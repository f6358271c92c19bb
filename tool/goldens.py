#!/usr/bin/env python
"""Regenerate the pinned experiment tables (``tests/goldens/``).

Runs the quick paper plan and the quick extension plan at seed 0, in
order, and writes every table's render to
``tests/goldens/quick_seed0.txt``; ``tests/test_runner.py`` compares a
fresh run with that file byte for byte.  Runs are seeded, so the file
only changes when a number does: a change that moves one regenerates
the file and says why.

Usage::

    python tool/goldens.py          # rewrite the golden file
    make goldens                    # the same, via the Makefile
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(REPO_ROOT, "tests", "goldens", "quick_seed0.txt")
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def main() -> int:
    from repro.experiments.runner import (experiment_plan, extension_plan,
                                          run_plan)
    _, text = run_plan(experiment_plan(quick=True, seed=0)
                       + extension_plan(quick=True, seed=0))
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        fh.write(text)
    print(f"wrote {os.path.relpath(GOLDEN_PATH, REPO_ROOT)} "
          f"({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

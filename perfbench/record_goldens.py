"""Record the output digests the benchmark checks its runs against.

Usage, from the repository root::

    python3 perfbench/record_goldens.py --workload sweep-mixed --seeds 0-40

Runs one untraced pass per seed and merges its outputs into
``perfbench/goldens.json``.  A seed without a recorded golden is still
checked for determinism across passes and for the invariants, but
drift in the simulator's numbers shows only against a golden.  Record
again only for a change that is meant to move those numbers.
"""

from __future__ import annotations

import argparse
import json
import sys

import workload as wl
from spans import FrameCounter


def seed_range(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seeds", required=True, type=seed_range,
                        help="inclusive range, e.g. 0-40")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(wl.ROOT / "src"))
    counter = FrameCounter()
    counter.install()
    recorded, broken = {}, 0
    for seed in args.seeds:
        workload = wl.WORKLOADS[args.workload](seed, counter)
        workload.prepare()
        try:
            result = workload.run_pass()
        finally:
            workload.close()
        failed = [name for name, ok in result.invariants if not ok]
        if failed:
            broken += 1
            print(f"seed {seed}: invariants failed, not recorded: {failed}",
                  file=sys.stderr)
            continue
        recorded[str(seed)] = result.outputs
        print(f"seed {seed}: {len(result.outputs)} outputs "
              f"({result.wall:.2f}s)", file=sys.stderr)

    goldens = (json.loads(wl.GOLDENS.read_text())
               if wl.GOLDENS.exists() else {})
    goldens.setdefault(args.workload, {}).update(recorded)
    goldens[args.workload] = dict(sorted(goldens[args.workload].items(),
                                         key=lambda kv: int(kv[0])))
    wl.GOLDENS.write_text(json.dumps(goldens, indent=1)
                          + "\n")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())

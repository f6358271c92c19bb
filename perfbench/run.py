"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-quick --seed 1 \\
        --seconds 10 --trace 0

Runs the named workload in its own process (``perfbench/workload.py``)
and prints every metric by name and unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer ones from a separate traced pass.

With ``--trace 0``, set-up time is measured in ``SETUP_PROBES`` fresh
processes (the main run's own included) and reported as their median.  The full run record
(outputs, check failures, machine) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD = BENCH_DIR / "workload.py"
OUT_DIR = BENCH_DIR / "out"

#: Fresh processes that each measure set-up (the main run is one).
SETUP_PROBES = 5

#: Wall-clock cap on the whole run, in seconds.
RUN_BUDGET = 170.0


class BenchError(Exception):
    pass


def run_child(args: List[str], timeout: float) -> dict:
    """Run ``workload.py`` with ``args``; its last stdout line is JSON.
    The child leads its own process group, so a timeout also stops the
    pool workers it started."""
    proc = subprocess.Popen(
        [sys.executable, str(WORKLOAD), *args], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"workload exceeded {timeout:.0f}s: {args}")
    if proc.returncode != 0:
        raise BenchError(f"workload exited {proc.returncode}: {args}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"workload printed nothing: {args}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no simulator sources under src/repro",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # The traced run reports no set-up time, so it needs no probes.
        setups = [run_child(common + ["--setup-only"],
                            deadline - time.monotonic())["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES - 1)]
        result = run_child(common + ["--seconds", str(args.seconds),
                                     "--trace", str(args.trace)],
                           deadline - time.monotonic())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    measured = result["metrics"]
    if not args.trace:
        setups.append(measured["setup_s"])
        measured["setup_s"] = statistics.median(setups)
        result["setup_samples"] = setups
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / (f"run-{args.workload}-{args.seed}"
                        f"-trace{args.trace}.json")
    record.write_text(json.dumps(result, indent=1) + "\n")

    attempted, failed = result["attempted"], result["failed"]
    print(f"# {args.workload} seed={args.seed} passes={result['passes']} "
          f"golden={'yes' if result['golden'] else 'no'} "
          f"record={record.relative_to(ROOT)}")
    for metric in wanted:
        print(f"{metric['name']:44s} {measured[metric['name']]:16.6f} "
              f"{metric['unit']}")
    print(f"{'failed_frac':44s} {failed / max(attempted, 1):16.6f} ratio "
          f"({failed} of {attempted} outputs)")
    if not args.trace:
        # Times above are speed-normalized (perfbench/clock.py); this is
        # the measured pass time they come from.
        raw = result["raw_wall_s"]
        print(f"{'raw_wall_s':44s} {raw:16.6f} s "
              f"(measured; wall_s = {measured['wall_s'] / raw:.3f} x this)")
    for failure in result["failures"]:
        print(f"# FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Benchmark runner with regression gating.

Runs the micro/e2e benchmark suite under pytest-benchmark and compares
every benchmark's min against the checked-in baseline
(``BENCH_fastpath.json`` in the repo root).  A benchmark more than
``--tolerance`` (default 20%) slower than its recorded min fails the
run -- the guard that keeps the lookup fast path fast.  The plain e2e
run is held tighter, to 1.1x its recorded min (the disabled metering
tap).

Then the same-run ratio gates (:data:`RATIO_GATES`): each divides one
benchmark of this run by another, and is reported, gated against its
bound and recorded in the baseline file, which is written once per run.

Usage::

    python tool/bench.py            # run + gate against the baseline
    python tool/bench.py --update   # run + rewrite the baseline
    make bench                      # the same, via the Makefile

New benchmarks (present in the run, absent from the baseline) are
reported but do not fail; run with ``--update`` to record them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_fastpath.json")
BENCH_TARGETS = ("benchmarks/test_microbench.py",
                 "benchmarks/test_sweep.py",
                 "benchmarks/test_fabric.py")

#: The plain e2e run (Fig. 5 L2, per-frame oracle): the denominator of
#: the overhead gates and the numerator of the batch speedup.
E2E_BENCH = "test_e2e_des_packet_rate"

#: Metering OFF (the guarded no-op tap on every hot-path site) may
#: cost at most this much over the *recorded baseline* of the plain
#: run -- a tighter screw than the general 20% regression tolerance,
#: because the disabled tap is pure overhead for everyone.
METERING_OFF_GATE = 1.1


@dataclass(frozen=True)
class RatioGate:
    """A factor taken within one run: ``min(slow) / min(fast)`` of a
    benchmark pair, recorded in the baseline under ``key`` on every run
    and bounded from above (an overhead, ``at_most``) or below (a
    speedup, ``at_least``).  Both sides run on the same machine in the
    same run, so a slower machine does not read as a regression."""

    key: str
    what: str
    slow: str
    fast: str
    at_most: Optional[float] = None
    at_least: Optional[float] = None
    #: Gate only on runners with this many available cores (the factor
    #: is still reported and recorded below that).
    min_cores: int = 1


RATIO_GATES = (
    # Span recording is opt-in and allowed to cost, but the tracer
    # records raw tuples and materializes spans lazily, so not much.
    RatioGate("obs_overhead_factor", "enabled-tracer e2e overhead",
              slow="test_e2e_traced_packet_rate", fast=E2E_BENCH,
              at_most=1.30),
    # Below 2.5x the struct-of-arrays chain is not paying for its
    # complexity.
    RatioGate("batch_e2e_speedup_factor",
              "batched e2e speedup over the per-frame oracle",
              slow=E2E_BENCH, fast="test_e2e_batched_packet_rate",
              at_least=2.5),
    # The warm worker pool over the sequential 8-point sweep; a process
    # pool cannot beat sequential runs on fewer than four cores.
    RatioGate("sweep_pool_speedup_factor",
              "warm-pool sweep speedup over sequential",
              slow="test_sweep_sequential_8pt", fast="test_sweep_pool_8pt",
              at_least=1.5, min_cores=4),
    # The 8-server fabric through the hybrid (fluid background,
    # per-packet study flows) against the pure-DES oracle.
    RatioGate("fabric_hybrid_speedup_factor",
              "fabric hybrid speedup over pure DES",
              slow="test_fabric_pure_des_8s32t",
              fast="test_fabric_hybrid_8s32t", at_least=5.0),
    # An armed MeteringSession over the plain run.
    RatioGate("metering_overhead_factor", "metering-enabled e2e overhead",
              slow="test_e2e_metered_packet_rate", fast=E2E_BENCH,
              at_most=1.6),
    # An idle resident control plane (heartbeats and autoscaler ticks,
    # no tenants) sharing the simulator: resident in every churn
    # experiment, so its do-nothing cost must stay near-free.
    RatioGate("control_plane_overhead_factor",
              "idle control-plane e2e overhead",
              slow="test_e2e_controlplane_packet_rate", fast=E2E_BENCH,
              at_most=1.1),
)


def available_cores() -> int:
    """Cores usable by this process (affinity/cgroup mask when the
    platform exposes one)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def run_benchmarks(json_out: str, targets) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"),
                    env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "pytest", *targets, "-q",
           "-p", "no:cacheprovider",
           f"--benchmark-json={json_out}"]
    print("+", " ".join(cmd))
    return subprocess.call(cmd, cwd=REPO_ROOT, env=env)


def extract_means(benchmark_json: str) -> dict:
    with open(benchmark_json) as handle:
        data = json.load(handle)
    return {
        bench["name"]: {
            # min is the gating statistic: it is far more stable against
            # scheduler/load noise than the mean (the mean is recorded
            # for reference only).
            "min_us": bench["stats"]["min"] * 1e6,
            "mean_us": bench["stats"]["mean"] * 1e6,
        }
        for bench in data.get("benchmarks", [])
    }


def load_baseline() -> dict:
    if not os.path.exists(BASELINE_PATH):
        return {}
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def gate(current: dict, baseline: dict, tolerance: float,
         partial: bool = False) -> int:
    recorded = baseline.get("benchmarks", {})
    regressions = []
    for name, stats in sorted(current.items()):
        value = stats["min_us"]
        base = recorded.get(name)
        if base is None:
            print(f"  NEW      {name}: {value:.2f}us (no baseline)")
            continue
        base_value = base["min_us"]
        ratio = value / base_value if base_value else float("inf")
        status = "OK" if ratio <= 1.0 + tolerance else "REGRESSED"
        print(f"  {status:<8} {name}: min {value:.2f}us "
              f"vs baseline {base_value:.2f}us ({ratio:.2f}x)")
        if status == "REGRESSED":
            regressions.append((name, ratio))
    missing = [] if partial else sorted(set(recorded) - set(current))
    for name in missing:
        print(f"  MISSING  {name}: in baseline but not in this run")
    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed beyond "
              f"{tolerance:.0%}:")
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x baseline")
        return 1
    if missing:
        print(f"\n{len(missing)} baseline benchmark(s) missing from the "
              "run (renamed/removed? run --update).")
        return 1
    print("\nAll benchmarks within tolerance.")
    return 0


def ratio_factors(current: dict) -> Dict[RatioGate, float]:
    """Each gate's factor, for the gates whose pair both ran."""
    factors = {}
    for g in RATIO_GATES:
        slow, fast = current.get(g.slow), current.get(g.fast)
        if slow and fast and fast["min_us"]:
            factors[g] = slow["min_us"] / fast["min_us"]
    return factors


def report_ratios(current: dict, factors: Dict[RatioGate, float]) -> None:
    print()
    for g, factor in factors.items():
        print(f"{g.what}: {factor:.2f}x (min {current[g.slow]['min_us']:.0f}"
              f"us {g.slow} vs {current[g.fast]['min_us']:.0f}us {g.fast})")


def gate_ratios(factors: Dict[RatioGate, float]) -> int:
    """Fail the run when any factor is outside its bound."""
    rc = 0
    cores = available_cores()
    for g, factor in factors.items():
        if cores < g.min_cores:
            print(f"SKIPPED  {g.key}: {cores} available core(s) < "
                  f"{g.min_cores}")
            continue
        if g.at_most is not None:
            ok, bound = factor <= g.at_most, f"<= {g.at_most}x"
        else:
            ok, bound = factor >= g.at_least, f">= {g.at_least}x"
        print(f"{'OK' if ok else 'FAILED':<8} {g.key}: {factor:.2f}x "
              f"(bound {bound})")
        rc = max(rc, 0 if ok else 1)
    return rc


def gate_metering_off(current: dict, baseline: dict) -> int:
    """The plain e2e run against its *recorded* baseline: the disabled
    metering tap must not drag the fast path."""
    plain = current.get(E2E_BENCH)
    base = baseline.get("benchmarks", {}).get(E2E_BENCH)
    if not plain or not base or not base.get("min_us"):
        return 0
    off = plain["min_us"] / base["min_us"]
    if off > METERING_OFF_GATE:
        print(f"FAILED   metering off: plain e2e at {off:.2f}x baseline > "
              f"{METERING_OFF_GATE}x (the disabled tap is dragging the "
              "fast path)")
        return 1
    print(f"OK       metering off: plain e2e at {off:.2f}x baseline "
          f"(bound <= {METERING_OFF_GATE}x)")
    return 0


def write_baseline(baseline: dict, factors: Dict[RatioGate, float]) -> None:
    """Write the baseline file once, with this run's factors."""
    baseline = dict(baseline)
    for g, factor in factors.items():
        baseline[g.key] = round(factor, 3)
    with open(BASELINE_PATH, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed slowdown vs baseline "
                             "(default 0.20 = 20%%)")
    parser.add_argument("--targets", nargs="+", default=list(BENCH_TARGETS),
                        help="benchmark files to run (default: all); a "
                             "subset skips the missing-benchmark check")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        json_out = os.path.join(tmp, "bench.json")
        rc = run_benchmarks(json_out, args.targets)
        if rc != 0:
            print("benchmark suite failed; not gating", file=sys.stderr)
            return rc
        current = extract_means(json_out)

    partial = set(args.targets) != set(BENCH_TARGETS)
    baseline = load_baseline()
    factors = ratio_factors(current)
    if args.update:
        write_baseline(dict(baseline, benchmarks=current), factors)
        print(f"Baseline rewritten: {BASELINE_PATH} "
              f"({len(current)} benchmarks)")
        report_ratios(current, factors)
        # The metering-off check would compare against the baseline
        # this run just rewrote: only the ratio gates mean anything.
        return gate_ratios(factors)
    if not baseline.get("benchmarks"):
        print(f"No baseline at {BASELINE_PATH}; run with --update first.",
              file=sys.stderr)
        return 1
    print(f"\nGating against {BASELINE_PATH} "
          f"(tolerance {args.tolerance:.0%}):")
    rc = gate(current, baseline, args.tolerance, partial=partial)
    report_ratios(current, factors)
    rc = max(rc, gate_ratios(factors), gate_metering_off(current, baseline))
    if factors:
        write_baseline(baseline, factors)
    return rc


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""cProfile harness for the Fig. 5 e2e scenario.

Profiles one end-to-end run of a Fig. 5 topology (default: MTS L2 with
2 vswitch VMs, p2v; 4 tenant flows at 200 kpps each) and prints the
run's function calls, kernel events and batch-station wakes, then the
top functions by cumulative time -- the lens that found and then
verified the batched-fastpath wins recorded in EXPERIMENTS.md.

Usage::

    python tool/profile.py              # batched fast path (default)
    python tool/profile.py --oracle     # per-frame oracle path
    python tool/profile.py --level baseline --traffic p2v
    python tool/profile.py --level l2 --traffic v2v
    python tool/profile.py --top 30     # more rows
    python tool/profile.py --duration 0.05
    python tool/profile.py --out prof.pstats   # also dump raw stats
    make profile                        # L2 p2v batched + oracle, then
                                        # Baseline p2v and L2(2) v2v
"""

from __future__ import annotations

import os
import sys

# This file is named like the stdlib ``profile`` module that cProfile
# imports; drop the script's own directory from the path so the real
# one wins, then make the repo importable.
_TOOL_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path = [p for p in sys.path
            if os.path.abspath(p or ".") != _TOOL_DIR]
sys.modules.pop("profile", None)

import argparse
import cProfile
import pstats

REPO_ROOT = os.path.dirname(_TOOL_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def run_fig5(duration: float, batch: bool, level: str = "l2",
             traffic: str = "p2v") -> dict:
    from repro.core import SecurityLevel, TrafficScenario, build_deployment
    from repro.core.spec import DeploymentSpec
    from repro.traffic import TestbedHarness

    spec = {
        "baseline": DeploymentSpec(level=SecurityLevel.BASELINE),
        "l1": DeploymentSpec(level=SecurityLevel.LEVEL_1),
        "l2": DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=2),
    }[level]
    deployment = build_deployment(spec, TrafficScenario(traffic))
    harness = TestbedHarness(deployment, batch=batch)
    harness.configure_tenant_flows(rate_per_flow_pps=200_000)
    events = deployment.sim.events_fired
    result = harness.run(duration=duration)
    return {"sent": result.sent, "delivered": result.delivered,
            "events": deployment.sim.events_fired - events,
            "label": f"{spec.label} {traffic}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--oracle", action="store_true",
                        help="profile the per-frame oracle path instead "
                             "of the batched fast path")
    parser.add_argument("--level", default="l2",
                        choices=["baseline", "l1", "l2"],
                        help="deployment: Baseline, L1, or L2 with 2 "
                             "vswitch VMs (default l2)")
    parser.add_argument("--traffic", default="p2v",
                        choices=["p2p", "p2v", "v2v"],
                        help="Fig. 5 traffic scenario (default p2v)")
    parser.add_argument("--duration", type=float, default=0.05,
                        help="simulated seconds of traffic (default 0.05)")
    parser.add_argument("--top", type=int, default=20,
                        help="rows of the cumulative-time table "
                             "(default 20)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "calls"],
                        help="pstats sort key (default cumulative)")
    parser.add_argument("--out", default=None,
                        help="also dump raw pstats to this path")
    args = parser.parse_args()

    label = "oracle (per-frame)" if args.oracle else "batched fast path"
    print(f"Profiling Fig. 5 {args.level} {args.traffic} e2e, {label}, "
          f"duration={args.duration}s ...")
    profiler = cProfile.Profile()
    profiler.enable()
    counts = run_fig5(args.duration, batch=not args.oracle,
                      level=args.level, traffic=args.traffic)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    wakes = sum(entry[1] for func, entry in stats.stats.items()
                if func[2] == "_wake" and func[0].endswith("resources.py"))
    print(f"{counts['label']}: sent={counts['sent']} "
          f"delivered={counts['delivered']} calls={stats.total_calls} "
          f"kernel events={counts['events']} station wakes={wakes}\n")

    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"raw pstats written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

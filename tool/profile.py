#!/usr/bin/env python
"""cProfile harness for the Fig. 5 e2e scenario and the overload shape.

Profiles one end-to-end run of a Fig. 5 topology (default: MTS L2 with
2 vswitch VMs, p2v; 4 tenant flows at 200 kpps each) and prints the
run's function calls, kernel events, batch-station wakes, sub-batch
flushes (``OvsBridge._execute_batch`` calls) per sent frame, generator
emission events (``LoadGenerator._emit`` calls) and per-frame bridge
passes (``OvsBridge._dispatch`` calls) per sent frame, heap operations
(``heapq`` calls on every heap: event kernel, stations, wire,
generator), microflow-cache lookups and misses per sent frame, and
jitter draws per sent frame, split into a batch's draws in lanes, a
small batch's draws made key by key (both ``HashJitter.units``) and
per-member scalar ``unit()`` draws, the garbage collector's
collections per generation during the run and the bytes the latency
monitor holds per sent frame, the objects and bytes left in cyclic
garbage once the run is released (``TestbedHarness.release``; the tool
exits 1 if any of them is of a ``repro`` type), then the top functions
by cumulative time -- the lens that found and then verified the
batched-fastpath wins recorded in EXPERIMENTS.md.
``--shape latency`` offers the Fig. 5 latency load instead: four flows
at 2.5 kpps each; ``--shape noisy-neighbor`` the noisy-neighbor
experiment's: one 2 Mpps flow and three 10 kpps victims;
``--shape policy-injection`` the policy-injection experiment's: 40 kpps
of randomized-source-port traffic and three 10 kpps victims;
``--shape fault-isolation`` the fault-isolation experiment's: four
tenants at 5 kpps, compartment 0 crashed a third of the way in and
cleared at two thirds; ``--shape latency-breakdown`` the latency
breakdown's: four flows at 2.5 kpps each, run under the
latency-attribution tap, whose row updates per sent frame it also
prints.  Each run prints the path it took (batched or oracle) and why
it fell back to the oracle, if it did.

Usage::

    python tool/profile.py              # batched fast path (default)
    python tool/profile.py --oracle     # per-frame oracle path
    python tool/profile.py --level baseline --traffic p2v
    python tool/profile.py --level l2 --traffic v2v
    python tool/profile.py --level l2 --shape latency \
        --duration 0.15                 # the Fig. 5 latency load
    python tool/profile.py --level l1 --shape noisy-neighbor \
        --duration 0.06                 # the overload shape
    python tool/profile.py --level l1 --shape policy-injection \
        --duration 0.06                 # the cache-busting shape
    python tool/profile.py --level l2 --shape fault-isolation \
        --duration 0.12                 # a crash and its clear
    python tool/profile.py --shape latency-breakdown \
        --duration 0.06                 # under the attribution tap
    python tool/profile.py --top 30     # more rows
    python tool/profile.py --duration 0.05
    python tool/profile.py --out prof.pstats   # also dump raw stats
    make profile                        # L2 p2v batched + oracle,
                                        # Baseline p2v, L2(2) v2v, the
                                        # L2 latency load, the L1
                                        # noisy-neighbor and
                                        # policy-injection shapes, the
                                        # L2 fault-isolation shape and
                                        # the L2 latency breakdown
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
import gc
import pstats

REPO_ROOT = os.path.dirname(_TOOL_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: The ``heapq`` functions counted as heap operations.
HEAP_OPS = ("heappush", "heappop", "heapreplace", "heappushpop", "heapify")


def count_batch_draws() -> dict:
    """Wrap ``HashJitter.units`` (a batch's draws) and its lane kernel
    ``HashJitter._lanes`` to count the draws each makes (one per key
    and site); returns the live counts."""
    from repro.sim.hashjit import HashJitter

    drawn = {"batch": 0, "lanes": 0}
    units, lanes = HashJitter.units, HashJitter._lanes

    def counted_units(self, keys, sites, *args):
        drawn["batch"] += len(keys) * len(sites)
        return units(self, keys, sites, *args)

    def counted_lanes(keys, starts, shift):
        drawn["lanes"] += len(keys) * (len(starts) // 2)
        return lanes(keys, starts, shift)

    HashJitter.units = counted_units
    HashJitter._lanes = staticmethod(counted_lanes)
    return drawn


def held_bytes(root: object) -> int:
    """``sys.getsizeof`` summed over ``root`` and every object it
    reaches through containers, instance dicts and slots (classes
    excluded), each object once."""
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return total


def cyclic_garbage() -> tuple:
    """What only the cycle collector could free now: (objects, bytes,
    the ``repro`` types among them with their counts)."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    kinds: dict = {}
    for obj in garbage:
        cls = type(obj)
        if cls.__module__.startswith("repro"):
            kinds[cls.__qualname__] = kinds.get(cls.__qualname__, 0) + 1
    return len(garbage), sum(map(sys.getsizeof, garbage)), kinds


def collections_made() -> list:
    """Collections so far, per generation."""
    return [gen["collections"] for gen in gc.get_stats()]


def run_fig5(duration: float, batch: bool, level: str = "l2",
             traffic: str = "p2v", shape: str = "fig5") -> dict:
    from repro import obs
    from repro.core import SecurityLevel, TrafficScenario, build_deployment
    from repro.core.spec import DeploymentSpec
    from repro.experiments import (fig5_latency, latency_breakdown,
                                   noisy_neighbor, policy_injection)
    from repro.traffic import TestbedHarness

    # Shared cores: also the noisy-neighbor experiment's deployments.
    spec = {
        "baseline": DeploymentSpec(level=SecurityLevel.BASELINE),
        "l1": DeploymentSpec(level=SecurityLevel.LEVEL_1),
        "l2": DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=2),
    }[level]
    deployment = build_deployment(spec, TrafficScenario(traffic))
    harness = TestbedHarness(deployment, batch=batch)
    if shape == "noisy-neighbor":
        harness.add_tenant_flow(noisy_neighbor.ATTACKER,
                                noisy_neighbor.ATTACK_RATE_PPS)
        for victim in noisy_neighbor.VICTIMS:
            harness.add_tenant_flow(victim, noisy_neighbor.VICTIM_RATE_PPS)
    elif shape == "policy-injection":
        harness.add_tenant_flow(policy_injection.ATTACKER,
                                policy_injection.ATTACK_RATE_PPS,
                                randomize_src_port=True)
        for victim in policy_injection.VICTIMS:
            harness.add_tenant_flow(victim,
                                    policy_injection.VICTIM_RATE_PPS)
    elif shape == "latency":
        # As the experiment splits it: one flow per tenant.
        harness.configure_tenant_flows(
            rate_per_flow_pps=fig5_latency.DEFAULT_AGGREGATE_PPS
            / spec.num_tenants)
    elif shape == "latency-breakdown":
        harness.configure_tenant_flows(
            rate_per_flow_pps=latency_breakdown.DEFAULT_AGGREGATE_PPS
            / spec.num_tenants)
    elif shape != "fault-isolation":
        harness.configure_tenant_flows(rate_per_flow_pps=200_000)
    session = None
    if shape == "fault-isolation":
        from repro.faults.campaign import RATE_PER_TENANT
        from repro.faults.plan import scripted_crash
        from repro.faults.session import ChaosSession

        # As the experiment runs it: compartment 0 down for the middle
        # third, its clear scripted.
        harness.configure_tenant_flows(rate_per_flow_pps=RATE_PER_TENANT)
        session = ChaosSession(deployment, harness, scripted_crash(
            compartment=0, at=duration / 3.0, duration=duration / 3.0))
        session.arm(duration)
    events = deployment.sim.events_fired
    tap = None
    if shape == "latency-breakdown":
        with obs.attributing(harness.egress_link.name) as tap:
            result = harness.run(duration=duration)
    else:
        result = harness.run(duration=duration)
    if session is not None:
        session.finish()
        session.release()
    caches = [bridge.cache.stats for bridge in deployment.bridges
              if bridge.cache is not None]
    counts = {"sent": result.sent, "delivered": result.delivered,
              "monitor": harness.monitor,
              "events": deployment.sim.events_fired - events,
              "lookups": sum(stats.lookups for stats in caches),
              "misses": sum(stats.misses for stats in caches),
              "path": result.path, "reason": result.oracle_reason,
              "tap": tap, "label": f"{spec.label} {traffic} {shape}"}
    harness.release()
    return counts


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
    parser.add_argument("--shape", default="fig5",
                        choices=["fig5", "latency", "noisy-neighbor",
                                 "policy-injection", "fault-isolation",
                                 "latency-breakdown"],
                        help="offered load: 4 x 200 kpps (fig5, the "
                             "default), 4 x 2.5 kpps (latency, the "
                             "Fig. 5 latency load), one 2 Mpps flow and "
                             "three 10 kpps victims (noisy-neighbor), "
                             "40 kpps of randomized source ports and "
                             "three 10 kpps victims (policy-injection), "
                             "4 x 5 kpps with compartment 0 down for "
                             "the middle third (fault-isolation), or "
                             "4 x 2.5 kpps under the latency-attribution "
                             "tap (latency-breakdown)")
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
    print(f"Profiling {args.shape} {args.level} {args.traffic} e2e, "
          f"{label}, duration={args.duration}s ...")
    drawn = count_batch_draws()
    profiler = cProfile.Profile()
    gc.collect()  # what is left after the run is the run's
    collected = collections_made()
    profiler.enable()
    counts = run_fig5(args.duration, batch=not args.oracle,
                      level=args.level, traffic=args.traffic,
                      shape=args.shape)
    profiler.disable()
    collected = [after - before for before, after
                 in zip(collected, collections_made())]
    left, left_bytes, leaked = cyclic_garbage()
    stats = pstats.Stats(profiler, stream=sys.stdout)

    def calls_of(name: str, module: str) -> int:
        return sum(entry[1] for func, entry in stats.stats.items()
                   if func[2] == name and func[0].endswith(module))

    wakes = calls_of("_wake", "resources.py")
    flushes = calls_of("_execute_batch", "ovs.py")
    emissions = calls_of("_emit", "generator.py")
    dispatches = calls_of("_dispatch", "ovs.py")
    # HashJitter.unit and its per-site form (HashJitter.site_unit) are
    # both named ``unit``; a small batch draws through the latter too.
    unit_calls = calls_of("unit", "hashjit.py")
    # Built-ins profile as ("~", 0, "<built-in method _heapq.heappop>").
    heap = {name: 0 for name in HEAP_OPS}
    for func, entry in stats.stats.items():
        for name in HEAP_OPS:
            if func[0] == "~" and func[2].endswith(f"_heapq.{name}>"):
                heap[name] += entry[1]
    sent = max(1, counts["sent"])
    print(f"{counts['label']}: path={counts['path']} "
          f"(oracle reason: {counts['reason'] or 'none'}) "
          f"sent={counts['sent']} "
          f"delivered={counts['delivered']} calls={stats.total_calls} "
          f"kernel events={counts['events']} station wakes={wakes} "
          f"sub-batch flushes per sent frame={flushes / sent:.3f}")
    print(f"emission events per sent frame={emissions / sent:.4f} "
          f"per-frame bridge passes per sent frame={dispatches / sent:.4f}")
    print(f"heap ops per sent frame={sum(heap.values()) / sent:.2f} "
          f"(heappop {heap['heappop'] / sent:.2f}; "
          + ", ".join(f"{name}={n}" for name, n in heap.items()) + ")")
    print(f"microflow lookups per sent frame="
          f"{counts['lookups'] / sent:.2f} "
          f"(misses {counts['misses'] / sent:.2f})")
    lanes = drawn["lanes"]
    small = drawn["batch"] - lanes
    scalar_draws = unit_calls - small
    print(f"jitter draws per sent frame="
          f"{(drawn['batch'] + scalar_draws) / sent:.3f} "
          f"(lanes {lanes / sent:.3f} = {lanes}, small batches "
          f"{small / sent:.3f} = {small}, scalar unit() "
          f"{scalar_draws / sent:.3f} = {scalar_draws})")
    print(f"gc collections gen0/gen1/gen2={'/'.join(map(str, collected))} "
          f"monitor bytes held per sent frame="
          f"{held_bytes(counts['monitor']) / sent:.1f}")
    tap = counts["tap"]
    if tap is not None:
        print(f"tap records per sent frame={tap.records / sent:.2f} "
              f"(captured {tap.captured})")
    print(f"cyclic garbage after release={left} objects, {left_bytes} "
          f"bytes (repro objects: {sum(leaked.values())})")
    print()

    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"raw pstats written to {args.out}")
    if leaked:
        print("FAIL: a released run left repro objects in reference "
              "cycles: " + ", ".join(f"{name} x{n}" for name, n
                                    in sorted(leaked.items())),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

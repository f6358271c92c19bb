"""One benchmark workload, run in its own process.

``python3 perfbench/workload.py --workload NAME --seed N --seconds S
--trace 0|1 [--setup-only]`` prepares the workload (imports, deployment
build, pool start), then repeats whole passes of its fixed work until
``S`` seconds have been measured, and prints one JSON object: the
metrics, the output checks and the run record.  ``perfbench/run.py``
is the entry point that spawns this; see ``perfbench/README.md``.

The workloads (each a closed loop: the next pass starts when the
previous one ends; simulated traffic rates are fixed per workload):

- ``paper-quick``: every thunk of ``experiment_plan(quick=True, seed)``
  and ``extension_plan(quick=True, seed)``, in order;
- ``dataplane-saturated``: Fig. 5 throughput topology, MTS L2 with two
  vswitch VMs, p2v, 4 flows x 200 kpps of 64 B frames for 0.1 s;
- ``sweep-mixed``: one ``Engine.run`` over a fixed mix of data-plane,
  policy-injection, fabric and churn specs on the warm process pool.

No result store is used anywhere, so no pass is served from cache.
Reported times are speed-normalized seconds: each measured time is
scaled by the machine speed sampled over it (``clock.py``), which on a
host in its fast state leaves it as measured.  The raw wall times are
kept in the run record and printed next to the normalized ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Taken before the first import of the simulator: setup starts here.
_T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
GOLDENS = BENCH_DIR / "goldens.json"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
from clock import SpeedSampler  # noqa: E402
from spans import (DELIVERED_KEY, FASTPATH_KEY, LAYERS,  # noqa: E402
                   SENT_KEY, SPEED_N_KEY, SPEED_SUM_KEY, FrameCounter,
                   SpanTracer)

#: paper-quick experiments reported by id; the rest sum into
#: ``experiments.analytic_s``.
TIMED_EXPERIMENTS = (
    "fig5-latency-shared", "fig5-latency-isolated", "fig5-latency-dpdk",
    "ext-noisy-neighbor", "ext-policy-injection", "ext-latency-breakdown",
    "ext-fault-isolation",
)

#: Fabric hybrid-vs-DES agreement the fabric package promises.
FLUID_TOLERANCE = 0.05


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Pass:
    """What one pass of a workload produced."""

    def __init__(self) -> None:
        #: Output name -> digest (or exact count string), checked
        #: against the recorded goldens and across passes.
        self.outputs: Dict[str, str] = {}
        #: (check name, passed) for seed-independent invariants.
        self.invariants: List[Tuple[str, bool]] = []
        self.frames = 0
        self.fastpath_frames = 0
        self.scenarios = 0
        #: Sum of ``ScenarioResult.elapsed`` and the workers they ran on.
        self.scenario_seconds = 0.0
        self.workers = 1
        #: paper-quick: wall seconds per experiment id.
        self.experiment_s: Dict[str, float] = {}
        #: Measured wall seconds, and the machine's mean sampled speed
        #: over them (see ``clock.py``; None when not sampled).
        self.wall = 0.0
        self.speed: Optional[float] = None

    @property
    def factor(self) -> float:
        """Speed-normalized seconds per measured second."""
        return self.speed if self.speed is not None else 1.0

    @property
    def seconds(self) -> float:
        """The pass's wall time in speed-normalized seconds."""
        return self.wall * self.factor


class Workload:
    """A fixed amount of work, made from the seed, repeatable by pass."""

    name = ""

    def __init__(self, seed: int, counter: FrameCounter) -> None:
        self.seed = seed
        self.counter = counter

    def prepare(self) -> None:
        """Setup: everything before the first timed operation."""

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`prepare` started."""

    def harness_invariants(self, out: Pass, runs_before: int) -> None:
        for i, (sent, delivered) in enumerate(
                self.counter.runs[runs_before:]):
            out.invariants.append(
                (f"harness-run-{i}: delivered <= sent", delivered <= sent))


class PaperQuick(Workload):
    name = "paper-quick"

    def prepare(self) -> None:
        from repro.experiments import runner
        self.plan = (runner.experiment_plan(quick=True, seed=self.seed)
                     + runner.extension_plan(quick=True, seed=self.seed))

    def run_pass(self, wrap: Optional[Callable] = None) -> Pass:
        """``wrap`` decorates each experiment thunk (the traced pass
        puts an ``experiments`` span around each)."""
        out = Pass()
        c = self.counter
        sent, fast, runs = c.sent, c.fastpath, len(c.runs)
        scenarios, elapsed = c.scenarios, c.scenario_seconds
        start = time.perf_counter()
        for key, thunk in self.plan:
            if wrap is not None:
                thunk = wrap(thunk)
            t = time.perf_counter()
            table = thunk()
            out.experiment_s[key] = time.perf_counter() - t
            out.outputs[key] = digest(table.render())
        out.wall = time.perf_counter() - start
        out.frames, out.fastpath_frames = c.sent - sent, c.fastpath - fast
        out.scenarios = c.scenarios - scenarios
        out.scenario_seconds = c.scenario_seconds - elapsed
        self.harness_invariants(out, runs)
        return out


class DataplaneSaturated(Workload):
    name = "dataplane-saturated"

    RATE_PER_FLOW_PPS = 200_000.0
    FRAME_BYTES = 64
    DURATION = 0.1
    WARMUP = 0.02

    def prepare(self) -> None:
        from repro.core.levels import SecurityLevel
        from repro.core.spec import DeploymentSpec
        self.spec = DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                   num_vswitch_vms=2)
        self.deployment = self._build()  # warms the deployment imports

    def _build(self):
        # Looked up per call so that the traced pass's wrapper is used.
        from repro.core import deployment
        from repro.core.spec import TrafficScenario
        return deployment.build_deployment(self.spec, TrafficScenario.P2V,
                                           seed=self.seed)

    def run_pass(self) -> Pass:
        from repro.traffic.harness import TestbedHarness
        out = Pass()
        runs = len(self.counter.runs)
        # The previous pass's deployment holds reference cycles: collect
        # it before timing, so that neither peak RSS nor collection
        # pauses depend on how many passes fit in the window.
        self.deployment = None
        gc.collect()
        start = time.perf_counter()
        self.deployment = self._build()
        harness = TestbedHarness(self.deployment)
        harness.configure_tenant_flows(
            rate_per_flow_pps=self.RATE_PER_FLOW_PPS,
            frame_bytes=self.FRAME_BYTES)
        result = harness.run(duration=self.DURATION, warmup=self.WARMUP)
        out.wall = time.perf_counter() - start
        out.frames = result.sent
        out.fastpath_frames = result.sent if harness.lg.batch else 0
        out.scenarios = 1
        out.outputs["sent/delivered"] = f"{result.sent}/{result.delivered}"
        out.outputs["latency"] = digest(repr(sorted(result.latencies)))
        self.harness_invariants(out, runs)
        return out


class SweepMixed(Workload):
    name = "sweep-mixed"

    #: Data-plane points: short, at the paper's four isolation levels.
    DP_DURATION = 0.05
    DP_RATE_PPS = 80_000.0
    PI_DURATION = 0.12
    FABRIC_SERVERS = (8, 16)
    FABRIC_DURATION = 0.08
    CHURN_DURATION = 240.0
    CHURN_ARRIVAL_RATE = 4.0

    def specs(self):
        from repro.controlplane import workload as churn
        from repro.core.levels import ResourceMode, SecurityLevel
        from repro.core.spec import DeploymentSpec, TrafficScenario
        from repro.experiments import policy_injection
        from repro.scenario.spec import ScenarioSpec
        from repro.sim.rng import RngStreams

        streams = RngStreams(self.seed)
        levels = (
            ("baseline", DeploymentSpec(level=SecurityLevel.BASELINE)),
            ("l1", DeploymentSpec(level=SecurityLevel.LEVEL_1)),
            ("l2", DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                  num_vswitch_vms=2)),
            ("l3", DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                  num_vswitch_vms=2, user_space=True,
                                  resource_mode=ResourceMode.ISOLATED)),
        )
        specs = []
        for i, (name, deployment) in enumerate(levels):
            for j, traffic in enumerate((TrafficScenario.P2P,
                                         TrafficScenario.P2V,
                                         TrafficScenario.V2V)):
                if traffic is TrafficScenario.V2V and i % 2:
                    continue
                params = {"frame_bytes": 64,
                          "aggregate_pps": self.DP_RATE_PPS}
                if (i + j) % 2 == 0:
                    params["metering"] = True
                label = f"dp/{name}/{traffic.value}"
                specs.append(ScenarioSpec(
                    workload="fig5.latency", deployment=deployment,
                    traffic=traffic, duration=self.DP_DURATION,
                    warmup=self.DP_DURATION / 5,
                    seed=streams.fork(label).seed, label=label,
                    params=params))
        specs.extend(policy_injection.scenarios(
            duration=self.PI_DURATION, warmup=self.PI_DURATION / 5,
            seed=streams.fork("policy-injection").seed))
        for servers in self.FABRIC_SERVERS:
            label = f"fabric/s{servers}"
            specs.append(ScenarioSpec(
                workload="fabric.hybrid",
                deployment=DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                          num_vswitch_vms=2, nic_ports=1),
                duration=self.FABRIC_DURATION,
                seed=streams.fork(label).seed, label=label,
                params={"servers": servers, "study_mode": "probes",
                        "study_flows": 2, "study_pps": 20_000.0}))
        for metering in (False, True):
            label = f"churn/metering={metering}"
            specs.append(churn.scenario(
                churn.default_plan(duration=self.CHURN_DURATION,
                                   arrival_rate=self.CHURN_ARRIVAL_RATE),
                seed=streams.fork(label).seed, label=label,
                metering=metering))
        return specs

    def prepare(self) -> None:
        from repro.scenario.engine import (Engine, ProcessPoolBackend,
                                           SequentialBackend)
        self.spec_list = self.specs()
        self.pool = ProcessPoolBackend(
            max_workers=len(os.sched_getaffinity(0)))
        self.engine = Engine(backend=self.pool, store=None)
        self.sequential = Engine(backend=SequentialBackend(), store=None)
        # Warm-up: spawn the workers on one spec of each workload.  The
        # pool's initializer preloads the first run's workloads, so every
        # worker then has the whole stack imported.
        first_of = {}
        for spec in self.spec_list:
            first_of.setdefault(spec.workload, spec)
        self.engine.run(list(first_of.values()))

    def run_pass(self, pooled: bool = True) -> Pass:
        out = Pass()
        engine = self.engine if pooled else self.sequential
        start = time.perf_counter()
        results = engine.run(self.spec_list)
        out.wall = time.perf_counter() - start
        out.workers = self.pool.max_workers if pooled else 1
        out.scenarios = len(results)
        # The machine speed the scenarios saw, sampled where they ran
        # (in the workers: this process only waits for them).
        samples = sum(r.metrics.get(SPEED_N_KEY, 0) for r in results)
        if samples:
            out.speed = sum(r.metrics[SPEED_SUM_KEY]
                            for r in results) / samples
        for i, (spec, result) in enumerate(zip(self.spec_list, results)):
            key = f"{i:02d}:{spec.display_label}"
            out.outputs[key] = digest(json.dumps(result.values,
                                                 sort_keys=True))
            out.scenario_seconds += result.elapsed
            sent = int(result.metrics.get(SENT_KEY, 0))
            delivered = int(result.metrics.get(DELIVERED_KEY, 0))
            out.frames += sent
            out.fastpath_frames += int(result.metrics.get(FASTPATH_KEY, 0))
            out.invariants.append(
                (f"{key}: frame counts reported", SENT_KEY in result.metrics))
            out.invariants.append(
                (f"{key}: delivered <= sent", delivered <= sent))
            if spec.workload == "controlplane.churn":
                out.invariants.append(
                    (f"{key}: churn violations == 0",
                     result.values.get("violations") == 0.0))
            if spec.workload == "fabric.hybrid":
                out.invariants.append(
                    (f"{key}: fluid_vs_des_err <= {FLUID_TOLERANCE}",
                     result.values["fluid_vs_des_err"] <= FLUID_TOLERANCE))
            if spec.param("metering", False):
                summaries = [u for u in result.usage
                             if u.get("kind") == "summary"]
                out.invariants.append(
                    (f"{key}: metering reconciles",
                     bool(summaries) and all(s["reconciled"]
                                             for s in summaries)))
        return out

    def close(self) -> None:
        self.pool.close()


WORKLOADS = {cls.name: cls for cls in (PaperQuick, DataplaneSaturated,
                                       SweepMixed)}


# -- checks -------------------------------------------------------------------

def load_goldens(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if not GOLDENS.exists():
        return None
    return json.loads(GOLDENS.read_text()).get(workload, {}).get(str(seed))


def check(passes: List[Pass], golden: Optional[Dict[str, str]]
          ) -> Tuple[int, int, List[str]]:
    """(attempted, failed, failure messages) over every pass: each
    output must match the golden for this seed when one is recorded,
    and the first pass's output otherwise; each invariant must hold."""
    attempted, failures = 0, []
    reference = golden if golden is not None else passes[0].outputs
    for n, p in enumerate(passes):
        keys = set(p.outputs) | set(reference)
        for key in sorted(keys):
            attempted += 1
            if p.outputs.get(key) != reference.get(key):
                failures.append(
                    f"pass {n}: output {key!r} is {p.outputs.get(key)!r}, "
                    f"expected {reference.get(key)!r}")
        for name, ok in p.invariants:
            attempted += 1
            if not ok:
                failures.append(f"pass {n}: invariant failed: {name}")
    return attempted, len(failures), failures


# -- metrics ------------------------------------------------------------------

def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's (the
    pool workers, once closed), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(passes: List[Pass], setup_s: float) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(p.seconds for p in passes),
        "setup_s": setup_s,
        "sim_pps": statistics.median(p.frames / p.seconds for p in passes),
        "scenarios_per_s": statistics.median(p.scenarios / p.seconds
                                             for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer: SpanTracer, traced: Pass, untraced: Pass,
              efficiency_pass: Pass) -> Dict[str, float]:
    # Times are speed-normalized: each scaled by its pass's speed.
    frames = max(traced.frames, 1)
    speed = traced.factor
    us = 1e6 * speed / frames
    counts = tracer.counts
    m: Dict[str, float] = {}
    for layer in LAYERS:
        if layer != "other":
            m[f"{layer}.us_per_frame"] = tracer.self_time.get(layer, 0.0) * us
    m["other.us_per_frame"] = (traced.wall - tracer.root_time) * us

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m["vswitch.ovs.plan_hit_ratio"] = ratio(counts["ovs.plan_hits"],
                                            counts["ovs.plan_lookups"])
    m["vswitch.flowtable.lookups_per_frame"] = \
        counts["flowtable.lookups"] / frames
    m["vswitch.flowtable.emc_hit_ratio"] = ratio(
        counts["flowtable.emc_hits"], counts["flowtable.emc_lookups"])
    m["vswitch.megaflow.hit_ratio"] = ratio(counts["megaflow.hits"],
                                            counts["megaflow.lookups"])
    m["sim.resources.wakes_per_frame"] = counts["resources.wakes"] / frames
    m["sim.resources.drop_frac"] = ratio(counts["resources.drops"],
                                         counts["resources.admissions"])
    m["sim.kernel.events_per_frame"] = counts["kernel.events"] / frames
    m["traffic.harness.fastpath_frame_frac"] = ratio(
        traced.fastpath_frames, traced.frames)
    builds = tracer.calls.get("core.deployment", 0)
    m["core.deployment.builds"] = float(builds)
    m["core.deployment.build_ms"] = ratio(
        tracer.inclusive["core.deployment"] * 1e3 * speed, builds)
    e = efficiency_pass
    m["scenario.engine.parallel_efficiency"] = ratio(
        e.scenario_seconds, e.workers * e.wall)
    m["scenario.engine.dispatch_s"] = (
        (e.wall - e.scenario_seconds / e.workers) * e.factor
        if e.scenario_seconds else 0.0)
    m["fabric.hybrid.s"] = tracer.inclusive["fabric.hybrid"] * speed
    m["perfmodel.capacity.solve_ms"] = \
        tracer.inclusive["perfmodel.capacity"] * 1e3 * speed
    m["controlplane.service.s"] = \
        tracer.inclusive["controlplane.service"] * speed
    for key in TIMED_EXPERIMENTS:
        m[f"experiments.{key}_s"] = \
            untraced.experiment_s.get(key, 0.0) * untraced.factor
    m["experiments.analytic_s"] = untraced.factor * sum(
        (s for key, s in untraced.experiment_s.items()
         if key not in TIMED_EXPERIMENTS), 0.0)
    m["bench.tracing_overhead"] = traced.seconds / untraced.seconds
    return m


def run_record() -> Dict[str, object]:
    """Where and on what the result was measured."""
    import subprocess
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "machine": platform.machine(),
    }


# -- measurement ----------------------------------------------------------

def measure(workload: Workload, seconds: float, trace: bool,
            setup_s: float, sampler: SpeedSampler) -> Dict[str, object]:
    golden = load_goldens(workload.name, workload.seed)
    passes: List[Pass] = []

    def run(**kwargs) -> Pass:
        mark = sampler.mark()
        p = workload.run_pass(**kwargs)
        if p.speed is None:
            p.speed = sampler.speed(mark)
        return p

    result: Dict[str, object] = {"workload": workload.name,
                                 "seed": workload.seed,
                                 "golden": golden is not None}
    if not trace:
        # Whole passes only: another pass starts if, at the median pass
        # time so far, it ends inside the window (the first always runs).
        start = time.perf_counter()
        while True:
            passes.append(run())
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p.wall for p in passes) > seconds:
                break
        workload.close()
        result["metrics"] = end_to_end(passes, setup_s)
    else:
        # The pool pass gives the engine's parallel efficiency; the
        # overhead baseline must run where the traced pass runs, which
        # for the sweep is in-process (wrappers do not reach workers).
        efficiency_pass = None
        kwargs = {}
        if isinstance(workload, SweepMixed):
            efficiency_pass = run()
            passes.append(efficiency_pass)
            kwargs = {"pooled": False}
        untraced = run(**kwargs)
        passes.append(untraced)
        workload.close()
        tracer = SpanTracer()
        tracer.install()
        if isinstance(workload, PaperQuick):
            kwargs = {"wrap": lambda fn: tracer.wrap("experiments", fn)}
        traced = run(**kwargs)
        passes.append(traced)
        if isinstance(workload, DataplaneSaturated):
            fired = workload.deployment.sim.events_fired
            traced.invariants.append(
                ("kernel events counted == Simulator.events_fired",
                 tracer.counts["kernel.events"] == fired))
        result["metrics"] = per_layer(tracer, traced, untraced,
                                      efficiency_pass or untraced)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload.name}-{workload.seed}.jsonl"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["spans_kept"] = len(tracer.spans)
        result["traced_frames"] = traced.frames
        result["traced_wall_s"] = traced.seconds
    attempted, failed, failures = check(passes, golden)
    # The raw measurement behind every normalized time.
    result.update(pass_wall_s=[p.wall for p in passes],
                  pass_speed=[p.speed for p in passes],
                  raw_wall_s=statistics.median(p.wall for p in passes))
    result.update(passes=len(passes), attempted=attempted, failed=failed,
                  failures=failures[:20],
                  outputs=passes[0].outputs,
                  record=run_record())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare, report setup_s and exit")
    args = parser.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    try:
        sys.path.insert(0, str(ROOT / "src"))
        counter = FrameCounter()
        counter.install()
        workload = WORKLOADS[args.workload](args.seed, counter)
        workload.prepare()
        setup_s = sampler.normalize(time.perf_counter() - _T0, 0)
        if args.setup_only:
            workload.close()
            result = {"setup_s": setup_s}
        else:
            result = measure(workload, args.seconds, bool(args.trace),
                             setup_s, sampler)
    finally:
        sampler.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""PMU-style latency breakdown (the §6 "evaluation limitations" ask).

"For a deeper understanding of the performance improvement we obtained
in this paper using SR-IOV, further measurements are necessary, e.g.,
using the performance monitoring unit (PMU) to collect a breakdown of
the packet processing latencies."

The simulated dataplane reports every nanosecond of a frame's journey
through a packet-tracer span (:mod:`repro.obs.trace`); this experiment
runs under the tracer, folds the spans of the frames the egress tap
saw into per-component sums, and answers the paper's open question
directly: where does each architecture spend its latency?

The expected story, quantified: the Baseline's p2v latency lives in
the vhost crossings and the tenant's Linux bridge; MTS replaces both
with microsecond-scale NIC traversals and spends its remaining budget
in the tenant's l2fwd poll loop.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro import obs
from repro.core.deployment import build_deployment
from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.experiments.common import EvalMode, configs_for_mode
from repro.measure.reporting import Series, Table
from repro.obs.trace import PacketTracer
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.scenario.spec import ScenarioResult, ScenarioSpec
from repro.traffic.harness import TestbedHarness
from repro.units import KPPS, USEC

COMPONENTS = ("wire", "nic", "vswitch.service", "vswitch.wait",
              "vswitch.queue", "vhost", "tenant")

WORKLOAD = "ext.latency-breakdown"

DEFAULT_AGGREGATE_PPS = 10 * KPPS

#: Breakdown component of each timed hop kind's ``attrs["delay"]``.
HOP_COMPONENTS = {"nic.in": "nic", "nic.out": "nic",
                  "vhost.crossing": "vhost", "tenant.forward": "tenant"}


def fold_components(tracer: PacketTracer, egress_link: str,
                    since: float) -> List[Dict[str, float]]:
    """Per-component delay sums of the frames whose ``egress_link``
    transmit starts at or after ``since``, in the link's (the egress
    tap's) order.  One pass over the spans: each adds the exact delay
    its hop added, in the order the frame met the hops.  Wire time on
    a link runs from the hand-off (an enqueue span's start) to arrival.
    """
    sums: Dict[int, Dict[str, float]] = {}
    handed_off: Dict[int, float] = {}
    captured: List[Dict[str, float]] = []
    for span in tracer.iter_spans():
        kind, fid, attrs = span.kind, span.trace_id, span.attrs
        if kind == "link.enqueue":
            handed_off[fid] = span.start
            continue
        if kind == "link.tx":
            parts = {"wire": span.end - handed_off.pop(fid, span.start)}
        elif kind == "vswitch.tx" and "service" in attrs:
            parts = {f"vswitch.{part}": attrs[part]
                     for part in ("service", "wait", "queue")}
        elif kind in HOP_COMPONENTS:
            parts = {HOP_COMPONENTS[kind]: attrs["delay"]}
        else:
            continue
        frame = sums.setdefault(fid, {})
        for component, seconds in parts.items():
            frame[component] = frame.get(component, 0.0) + seconds
        if kind == "link.tx" and span.component == egress_link \
                and span.start >= since:
            captured.append(frame)
    return captured


def measure_scenario(spec: ScenarioSpec,
                     calibration: Calibration = DEFAULT_CALIBRATION
                     ) -> Dict[str, float]:
    """Engine entry point: mean per-component latency (seconds)."""
    deployment = build_deployment(spec.deployment, spec.traffic,
                                  seed=spec.seed, calibration=calibration)
    harness = TestbedHarness(deployment)
    aggregate_pps = float(spec.param("aggregate_pps",
                                     DEFAULT_AGGREGATE_PPS))
    harness.configure_tenant_flows(
        rate_per_flow_pps=aggregate_pps / spec.deployment.num_tenants)

    with obs.tracing(deployment.sim) as tracer:
        harness.run(duration=spec.duration, warmup=spec.warmup)
    if tracer.spans_dropped:
        raise RuntimeError(
            f"tracer dropped {tracer.spans_dropped} spans for "
            f"{spec.display_label}: its breakdown would be partial")
    captured = fold_components(tracer, harness.egress_link.name,
                               spec.warmup)
    if not captured:
        raise RuntimeError(f"no frames captured for {spec.display_label}")

    totals = {component: 0.0 for component in COMPONENTS}
    for frame in captured:
        for component in COMPONENTS:
            totals[component] += frame.get(component, 0.0)
    return {component: total / len(captured)
            for component, total in totals.items()}


def measure_breakdown(
    spec: DeploymentSpec,
    scenario: TrafficScenario = TrafficScenario.P2V,
    aggregate_pps: float = DEFAULT_AGGREGATE_PPS,
    duration: float = 0.1,
    warmup: float = 0.02,
    seed: int = 0,
) -> Dict[str, float]:
    """Mean per-component latency (seconds) of delivered frames."""
    return measure_scenario(ScenarioSpec(
        workload=WORKLOAD, deployment=spec, traffic=scenario,
        duration=duration, warmup=warmup, seed=seed, label=spec.label,
        params={"aggregate_pps": aggregate_pps}))


def scenarios(mode: str = EvalMode.SHARED,
              scenario: TrafficScenario = TrafficScenario.P2V,
              duration: float = 0.1, warmup: float = 0.02,
              seed: int = 0) -> List[ScenarioSpec]:
    return [
        ScenarioSpec(workload=WORKLOAD, deployment=config.spec(),
                     traffic=scenario, duration=duration, warmup=warmup,
                     seed=seed, eval_mode=mode, label=config.label,
                     params={"aggregate_pps": DEFAULT_AGGREGATE_PPS})
        for config in configs_for_mode(mode)
        if config.supports(scenario)
    ]


def tabulate(results: Sequence[ScenarioResult],
             mode: str = EvalMode.SHARED,
             scenario: TrafficScenario = TrafficScenario.P2V) -> Table:
    table = Table(
        title=f"Latency breakdown ({scenario.value}, {mode} mode, "
              "10 kpps, mean per component)",
        unit="us",
        fmt=lambda v: f"{v:.1f}",
    )
    for result in results:
        series = Series(label=result.label)
        for component in COMPONENTS:
            if result.values[component] > 0:
                series.add(component, result.values[component] / USEC)
        series.add("TOTAL",
                   sum(result.values[c] for c in COMPONENTS) / USEC)
        table.add_series(series)
    return table


def run(mode: str = EvalMode.SHARED,
        scenario: TrafficScenario = TrafficScenario.P2V,
        duration: float = 0.1, seed: int = 0) -> Table:
    from repro.experiments.runner import default_engine
    results = default_engine().run(
        scenarios(mode, scenario, duration=duration, seed=seed))
    return tabulate(results, mode, scenario)

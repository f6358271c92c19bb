"""PMU-style latency breakdown (the §6 "evaluation limitations" ask).

"For a deeper understanding of the performance improvement we obtained
in this paper using SR-IOV, further measurements are necessary, e.g.,
using the performance monitoring unit (PMU) to collect a breakdown of
the packet processing latencies."

Every timed hop of the simulated dataplane charges the delay it adds to
a frame to that frame's row in the latency-attribution tap
(:mod:`repro.obs.attribution`), on the batched chain and on the
per-frame oracle alike.  This experiment runs under the tap, which
captures the rows of the frames leaving through the egress link after
the warmup and averages them per component, and answers the paper's
open question directly: where does each architecture spend its
latency?  The runs take the batched chain; the means equal the
oracle's bit for bit.

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
from repro.obs.attribution import COMPONENTS
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.scenario.spec import ScenarioResult, ScenarioSpec
from repro.traffic.harness import TestbedHarness
from repro.units import KPPS, USEC

WORKLOAD = "ext.latency-breakdown"

DEFAULT_AGGREGATE_PPS = 10 * KPPS


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

    with obs.attributing(harness.egress_link.name,
                         since=spec.warmup) as tap:
        harness.run(duration=spec.duration, warmup=spec.warmup)
    if not tap.captured:
        raise RuntimeError(f"no frames captured for {spec.display_label}")
    return tap.means()


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

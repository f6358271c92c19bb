"""Fig. 6(a,f,k): aggregate iperf TCP throughput.

Single-stream iperf clients at the load generator against servers in
the tenant VMs, 100 s runs, 5 repetitions, mean with 95% confidence.
The workload topology uses one NIC port for both directions (the
paper's Fig. 6 resource note).  Repetition noise draws from a named
RNG stream per (config, scenario) so the numbers are stable across
runs, processes and execution order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.deployment import build_deployment
from repro.core.spec import TrafficScenario
from repro.experiments.common import (
    EvalMode,
    configs_for_mode,
    repeat_with_noise,
)
from repro.measure.reporting import Series, Table
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.scenario.spec import ScenarioResult, ScenarioSpec
from repro.workloads.iperf import IperfModel

SCENARIOS = (TrafficScenario.P2V, TrafficScenario.V2V)

WORKLOAD = "fig6.iperf"

#: The paper's repetition count.
REPETITIONS = 5


def measure_scenario(spec: ScenarioSpec,
                     calibration: Calibration = DEFAULT_CALIBRATION
                     ) -> Dict[str, float]:
    """Engine entry point: iperf mean/CI of one spec."""
    deployment = build_deployment(spec.deployment, spec.traffic,
                                  seed=spec.seed, calibration=calibration)
    base = IperfModel(deployment, spec.traffic).run().aggregate_gbps
    mean, ci = repeat_with_noise(
        lambda: base,
        repetitions=int(spec.param("repetitions", REPETITIONS)),
        seed=spec.seed,
        stream=f"iperf:{spec.deployment.label}:{spec.traffic.value}")
    return {"gbps_mean": mean, "gbps_ci": ci}


def scenarios(mode: str = EvalMode.SHARED,
              seed: int = 0) -> List[ScenarioSpec]:
    """One figure row as engine-consumable specs."""
    specs: List[ScenarioSpec] = []
    for config in configs_for_mode(mode):
        for scenario in SCENARIOS:
            if not config.supports(scenario):
                continue
            specs.append(ScenarioSpec(
                workload=WORKLOAD,
                deployment=config.spec(nic_ports=1),
                traffic=scenario,
                seed=seed,
                eval_mode=mode,
                label=config.label,
                params={"repetitions": REPETITIONS},
            ))
    return specs


def tabulate(results: Sequence[ScenarioResult],
             mode: str = EvalMode.SHARED) -> Table:
    figure = {EvalMode.SHARED: "Fig. 6(a)", EvalMode.ISOLATED: "Fig. 6(f)",
              EvalMode.DPDK: "Fig. 6(k)"}[mode]
    table = Table(
        title=f"{figure} iperf aggregate TCP throughput, {mode} mode",
        unit="Gbps",
        fmt=lambda v: f"{v:.2f}",
    )
    by_label: Dict[str, Series] = {}
    for result in results:
        series = by_label.get(result.label)
        if series is None:
            series = by_label[result.label] = Series(label=result.label)
            table.add_series(series)
        series.add(result.traffic, result.values["gbps_mean"])
    return table


def run(mode: str = EvalMode.SHARED, seed: int = 0) -> Table:
    from repro.experiments.runner import default_engine
    results = default_engine().run(scenarios(mode, seed=seed))
    return tabulate(results, mode)

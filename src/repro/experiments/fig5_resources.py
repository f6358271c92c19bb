"""Fig. 5(c,f,i): CPU cores and memory per configuration.

Reads the resource accounting off built deployments: physical cores
consumed by virtual networking (host + vswitch compartments) and total
1 GB hugepages.  These are exact (not modelled) quantities -- the same
arithmetic the paper's bars show: e.g. the shared mode costs one extra
core regardless of compartment count, while isolated/DPDK modes grow
linearly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.deployment import build_deployment
from repro.core.spec import TrafficScenario
from repro.experiments.common import EvalMode, configs_for_mode
from repro.measure.reporting import Series, Table
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.scenario.spec import ScenarioResult, ScenarioSpec

WORKLOAD = "fig5.resources"

#: Column order of the figure's bars.
COLUMNS = ("networking-cores", "tenant-cores", "hugepages-1G")


def measure_scenario(spec: ScenarioSpec,
                     calibration: Calibration = DEFAULT_CALIBRATION
                     ) -> Dict[str, float]:
    """Engine entry point: exact resource accounting of one spec."""
    deployment = build_deployment(spec.deployment, spec.traffic,
                                  seed=spec.seed, calibration=calibration)
    report = deployment.resource_report()
    return {
        "networking-cores": float(report.networking_cores),
        "tenant-cores": float(report.tenant_cores),
        "hugepages-1G": float(report.total_hugepages_1g),
    }


def scenarios(mode: str = EvalMode.SHARED,
              seed: int = 0) -> List[ScenarioSpec]:
    """One figure row as engine-consumable specs."""
    return [
        ScenarioSpec(
            workload=WORKLOAD,
            deployment=config.spec(),
            traffic=TrafficScenario.P2V,
            seed=seed,
            eval_mode=mode,
            label=config.label,
        )
        for config in configs_for_mode(mode)
    ]


def tabulate(results: Sequence[ScenarioResult],
             mode: str = EvalMode.SHARED) -> Table:
    figure = {EvalMode.SHARED: "Fig. 5(c)", EvalMode.ISOLATED: "Fig. 5(f)",
              EvalMode.DPDK: "Fig. 5(i)"}[mode]
    table = Table(
        title=f"{figure} resources, {mode} mode",
        fmt=lambda v: f"{v:.0f}",
    )
    for result in results:
        series = Series(label=result.label)
        for column in COLUMNS:
            series.add(column, result.values[column])
        table.add_series(series)
    return table


def run(mode: str = EvalMode.SHARED, seed: int = 0) -> Table:
    from repro.experiments.runner import default_engine
    results = default_engine().run(scenarios(mode, seed=seed))
    return tabulate(results, mode)

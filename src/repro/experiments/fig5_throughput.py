"""Fig. 5(a,d,g): aggregate forwarding throughput, 64 B frames.

The load generator offers 4 flows at line rate (14.88 Mpps aggregate at
64 B on 10G); the reported number is the aggregate delivered rate,
computed by the max-min capacity solver over the deployment's resource
pools.  ``scenarios(mode)`` declares one figure row as specs for the
scenario engine, ``tabulate`` turns the engine's results back into the
figure's table, and ``run(mode)`` composes the two.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.deployment import build_deployment
from repro.core.spec import TrafficScenario
from repro.experiments.common import EvalMode, configs_for_mode
from repro.measure.reporting import Series, Table
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perfmodel.paths import throughput
from repro.scenario.spec import (
    ScenarioResult,
    ScenarioSpec,
    calibration_ref,
)
from repro.units import LINE_RATE_10G_64B_PPS, MPPS

SCENARIOS = (TrafficScenario.P2P, TrafficScenario.P2V, TrafficScenario.V2V)

WORKLOAD = "fig5.throughput"


def measure_scenario(spec: ScenarioSpec,
                     calibration: Calibration = DEFAULT_CALIBRATION
                     ) -> Dict[str, float]:
    """Engine entry point: saturation throughput of one spec."""
    deployment = build_deployment(spec.deployment, spec.traffic,
                                  seed=spec.seed, calibration=calibration)
    offered_per_flow = (LINE_RATE_10G_64B_PPS
                        / spec.deployment.num_tenants)
    result = throughput(deployment, spec.traffic,
                        frame_bytes=int(spec.param("frame_bytes", 64)),
                        offered_per_flow_pps=offered_per_flow)
    return {"mpps": result.aggregate_pps / MPPS}


def scenarios(mode: str = EvalMode.SHARED, frame_bytes: int = 64,
              seed: int = 0,
              calibration: Calibration = DEFAULT_CALIBRATION
              ) -> List[ScenarioSpec]:
    """One figure row as engine-consumable specs."""
    specs: List[ScenarioSpec] = []
    for config in configs_for_mode(mode):
        for scenario in SCENARIOS:
            if not config.supports(scenario):
                continue
            specs.append(ScenarioSpec(
                workload=WORKLOAD,
                deployment=config.spec(),
                traffic=scenario,
                seed=seed,
                eval_mode=mode,
                label=config.label,
                params={"frame_bytes": frame_bytes},
                calibration_ref=calibration_ref(calibration),
            ))
    return specs


def tabulate(results: Sequence[ScenarioResult],
             mode: str = EvalMode.SHARED,
             frame_bytes: int = 64) -> Table:
    figure = {EvalMode.SHARED: "Fig. 5(a)", EvalMode.ISOLATED: "Fig. 5(d)",
              EvalMode.DPDK: "Fig. 5(g)"}[mode]
    table = Table(
        title=f"{figure} throughput, {mode} mode, {frame_bytes} B frames",
        unit="Mpps",
        fmt=lambda v: f"{v:.2f}",
    )
    by_label: Dict[str, Series] = {}
    for result in results:
        series = by_label.get(result.label)
        if series is None:
            series = by_label[result.label] = Series(label=result.label)
            table.add_series(series)
        series.add(result.traffic, result.values["mpps"])
    return table


def run(mode: str = EvalMode.SHARED, frame_bytes: int = 64,
        seed: int = 0,
        calibration: Calibration = DEFAULT_CALIBRATION) -> Table:
    """One row of Fig. 5's throughput column."""
    from repro.experiments.runner import default_engine
    specs = scenarios(mode, frame_bytes, seed=seed, calibration=calibration)
    results = default_engine(calibration).run(specs)
    return tabulate(results, mode, frame_bytes)

"""Fig. 6(b,g,l) and (d,i,n): Apache throughput and response time.

ApacheBench against each tenant's webserver: a static 11.3 KB page,
up to 1000 concurrent connections per client, 100 s, 5 repetitions
with 95% confidence.  In v2v only two client-server pairs run (the
other tenants forward), as in the paper.

One scenario measures *both* metrics (each with its own named noise
stream), so the throughput and response-time rows of the figure share
one cached point per configuration.
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
from repro.units import MSEC
from repro.workloads.httpd import ApacheModel

SCENARIOS = (TrafficScenario.P2V, TrafficScenario.V2V)

WORKLOAD = "fig6.apache"

REPETITIONS = 5


def measure_scenario(spec: ScenarioSpec,
                     calibration: Calibration = DEFAULT_CALIBRATION
                     ) -> Dict[str, float]:
    """Engine entry point: both Apache metrics of one spec."""
    deployment = build_deployment(spec.deployment, spec.traffic,
                                  seed=spec.seed, calibration=calibration)
    report = ApacheModel(deployment, spec.traffic).run()
    repetitions = int(spec.param("repetitions", REPETITIONS))
    point = f"{spec.deployment.label}:{spec.traffic.value}"
    rps_mean, rps_ci = repeat_with_noise(
        lambda: report.aggregate_rps, repetitions=repetitions,
        seed=spec.seed, stream=f"apache.rps:{point}")
    rt_mean, rt_ci = repeat_with_noise(
        lambda: report.mean_response_time, repetitions=repetitions,
        seed=spec.seed, stream=f"apache.rt:{point}")
    return {"rps_mean": rps_mean, "rps_ci": rps_ci,
            "rt_mean_s": rt_mean, "rt_ci_s": rt_ci}


def scenarios(mode: str = EvalMode.SHARED,
              seed: int = 0) -> List[ScenarioSpec]:
    """One figure row as engine-consumable specs (shared by the
    throughput and response-time tables)."""
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


def _tabulate(results: Sequence[ScenarioResult], title: str, unit: str,
              fmt, value_of) -> Table:
    table = Table(title=title, unit=unit, fmt=fmt)
    by_label: Dict[str, Series] = {}
    for result in results:
        series = by_label.get(result.label)
        if series is None:
            series = by_label[result.label] = Series(label=result.label)
            table.add_series(series)
        series.add(result.traffic, value_of(result))
    return table


def tabulate_throughput(results: Sequence[ScenarioResult],
                        mode: str = EvalMode.SHARED) -> Table:
    figure = {EvalMode.SHARED: "Fig. 6(b)", EvalMode.ISOLATED: "Fig. 6(g)",
              EvalMode.DPDK: "Fig. 6(l)"}[mode]
    return _tabulate(results, f"{figure} Apache throughput, {mode} mode",
                     "req/s", lambda v: f"{v:.0f}",
                     lambda r: r.values["rps_mean"])


def tabulate_response_time(results: Sequence[ScenarioResult],
                           mode: str = EvalMode.SHARED) -> Table:
    figure = {EvalMode.SHARED: "Fig. 6(d)", EvalMode.ISOLATED: "Fig. 6(i)",
              EvalMode.DPDK: "Fig. 6(n)"}[mode]
    return _tabulate(results, f"{figure} Apache response time, {mode} mode",
                     "ms", lambda v: f"{v:.1f}",
                     lambda r: r.values["rt_mean_s"] / MSEC)


def run_throughput(mode: str = EvalMode.SHARED, seed: int = 0) -> Table:
    from repro.experiments.runner import default_engine
    return tabulate_throughput(
        default_engine().run(scenarios(mode, seed=seed)), mode)


def run_response_time(mode: str = EvalMode.SHARED, seed: int = 0) -> Table:
    from repro.experiments.runner import default_engine
    return tabulate_response_time(
        default_engine().run(scenarios(mode, seed=seed)), mode)

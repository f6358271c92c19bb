"""Fig. 5(b,e,h): one-way forwarding latency distributions.

Methodology mirrors the paper: a constant aggregate 10 kpps stream (4
flows) is replayed while both links are tapped; only samples from the
post-warmup window count.  The paper sends for 30 s and evaluates the
10-20 s slice; the discrete-event simulation reproduces the same
pipeline at a shorter (configurable) timescale -- the distributions are
stationary, so the window length only controls sample count.

The paper reports 64 B distributions and studied 512/1500/2048 B as
well; ``frame_bytes`` selects the size.  ``scenarios(mode)`` declares
one figure row for the scenario engine; ``run(mode)`` executes it and
tabulates the medians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.deployment import build_deployment
from repro.core.spec import TrafficScenario
from repro.experiments.common import ConfigPoint, EvalMode, configs_for_mode
from repro.measure.reporting import Series, Table
from repro.measure.stats import SummaryStats, summarize
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.scenario.spec import (
    ScenarioResult,
    ScenarioSpec,
    calibration_ref,
)
from repro.traffic.harness import TestbedHarness
from repro.units import KPPS, USEC

SCENARIOS = (TrafficScenario.P2P, TrafficScenario.P2V, TrafficScenario.V2V)

#: The paper's latency-test load.
DEFAULT_AGGREGATE_PPS = 10 * KPPS

WORKLOAD = "fig5.latency"

#: Measurement-window start of the figure's runs, in seconds.
WARMUP = 0.05


@dataclass
class LatencyMeasurement:
    config_label: str
    scenario: TrafficScenario
    stats: SummaryStats


def measure_latency(
    config: ConfigPoint,
    scenario: TrafficScenario,
    frame_bytes: int = 64,
    aggregate_pps: float = DEFAULT_AGGREGATE_PPS,
    duration: float = 0.3,
    warmup: float = 0.05,
    seed: int = 0,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> LatencyMeasurement:
    """Packet-level DES measurement of one configuration point."""
    warmup = min(warmup, duration / 3.0)
    spec = config.spec()
    deployment = build_deployment(spec, scenario, seed=seed,
                                  calibration=calibration)
    with TestbedHarness(deployment) as harness:
        harness.configure_tenant_flows(
            rate_per_flow_pps=aggregate_pps / spec.num_tenants,
            frame_bytes=frame_bytes,
        )
        result = harness.run(duration=duration, warmup=warmup)
    if not result.latencies:
        raise RuntimeError(
            f"no latency samples for {config.label}/{scenario.value}"
        )
    return LatencyMeasurement(config.label, scenario,
                              summarize(result.latencies))


def measure_scenario(spec: ScenarioSpec,
                     calibration: Calibration = DEFAULT_CALIBRATION
                     ) -> Dict[str, float]:
    """Engine entry point: the latency distribution of one spec."""
    warmup = min(spec.warmup, spec.duration / 3.0)
    deployment = build_deployment(spec.deployment, spec.traffic,
                                  seed=spec.seed, calibration=calibration)
    harness = TestbedHarness(deployment)
    aggregate_pps = float(spec.param("aggregate_pps",
                                     DEFAULT_AGGREGATE_PPS))
    harness.configure_tenant_flows(
        rate_per_flow_pps=aggregate_pps / spec.deployment.num_tenants,
        frame_bytes=int(spec.param("frame_bytes", 64)),
    )
    result = harness.run(duration=spec.duration, warmup=warmup)
    if not result.latencies:
        raise RuntimeError(
            f"no latency samples for {spec.display_label}")
    stats = summarize(result.latencies)
    return {
        "median_us": stats.median / USEC,
        "p25_us": stats.p25 / USEC,
        "p75_us": stats.p75 / USEC,
        "p99_us": stats.p99 / USEC,
        "mean_us": stats.mean / USEC,
        "samples": float(stats.count),
        "loss_fraction": result.loss_fraction,
    }


def scenarios(mode: str = EvalMode.SHARED, frame_bytes: int = 64,
              duration: float = 0.3, seed: int = 0,
              calibration: Calibration = DEFAULT_CALIBRATION
              ) -> List[ScenarioSpec]:
    """One figure row as engine-consumable specs."""
    # The measurement clamps warmup to a third of the window; a window
    # too short for the default warmup gets the clamped value up front.
    warmup = WARMUP if duration > WARMUP else duration / 3.0
    specs: List[ScenarioSpec] = []
    for config in configs_for_mode(mode):
        for scenario in SCENARIOS:
            if not config.supports(scenario):
                continue
            specs.append(ScenarioSpec(
                workload=WORKLOAD,
                deployment=config.spec(),
                traffic=scenario,
                duration=duration,
                warmup=warmup,
                seed=seed,
                eval_mode=mode,
                label=config.label,
                params={"frame_bytes": frame_bytes,
                        "aggregate_pps": DEFAULT_AGGREGATE_PPS},
                calibration_ref=calibration_ref(calibration),
            ))
    return specs


def tabulate(results: Sequence[ScenarioResult],
             mode: str = EvalMode.SHARED,
             frame_bytes: int = 64) -> Table:
    figure = {EvalMode.SHARED: "Fig. 5(b)", EvalMode.ISOLATED: "Fig. 5(e)",
              EvalMode.DPDK: "Fig. 5(h)"}[mode]
    table = Table(
        title=f"{figure} median one-way latency, {mode} mode, "
              f"{frame_bytes} B @ 10 kpps",
        unit="us",
        fmt=lambda v: f"{v:.1f}",
    )
    by_label: Dict[str, Series] = {}
    for result in results:
        series = by_label.get(result.label)
        if series is None:
            series = by_label[result.label] = Series(label=result.label)
            table.add_series(series)
        series.add(result.traffic, result.values["median_us"])
    return table


def run(mode: str = EvalMode.SHARED, frame_bytes: int = 64,
        duration: float = 0.3, seed: int = 0,
        calibration: Calibration = DEFAULT_CALIBRATION) -> Table:
    """One row of Fig. 5's latency column (medians, in microseconds)."""
    from repro.experiments.runner import default_engine
    specs = scenarios(mode, frame_bytes, duration, seed=seed,
                      calibration=calibration)
    results = default_engine(calibration).run(specs)
    return tabulate(results, mode, frame_bytes)

"""Fault isolation: what a vswitch crash takes down.

The flip side of the paper's security argument is availability: the
Baseline's single co-located vswitch is a single point of failure for
*every* tenant's network, while an MTS compartment crash blacks out
only its own tenants.  This experiment crashes one vswitch mid-run,
restores it, and reports per-tenant availability over the outage
window.

The crash rides the chaos layer's run routine
(:func:`repro.faults.campaign.run_plan`, shared with ``ext.chaos``):
the default plan is a scripted ``vswitch-crash`` at ``phase`` clearing
at ``2*phase`` -- exactly the crash the pre-chaos version hard-coded,
so the legacy table is byte-identical -- but the measurement windows
come from the session's *observed* outage (injection and repair
timestamps), and the watchdog's measured detection latency is reported
alongside.  Passing a different plan via the spec's ``faults`` field
reuses the same accounting for arbitrary campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.faults.campaign import RATE_PER_TENANT, configurations, run_plan
from repro.faults.plan import scripted_crash
from repro.measure.reporting import Series, Table
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.scenario.spec import ScenarioResult, ScenarioSpec

WORKLOAD = "ext.fault-isolation"


@dataclass
class AvailabilityResult:
    label: str
    #: tenant -> delivered fraction during the outage window.
    during_outage: Dict[int, float]
    #: tenant -> delivered fraction after recovery.
    after_recovery: Dict[int, float]

    def tenants_fully_down(self) -> List[int]:
        return [t for t, f in self.during_outage.items() if f < 0.01]

    def tenants_unaffected(self) -> List[int]:
        return [t for t, f in self.during_outage.items() if f > 0.99]


def measure_scenario(spec: ScenarioSpec,
                     calibration: Calibration = DEFAULT_CALIBRATION
                     ) -> Dict[str, float]:
    """Engine entry point: three equal phases -- healthy, crashed,
    recovered -- with per-tenant delivery fractions for the last two
    (``during:t<N>`` / ``after:t<N>`` keys)."""
    phase = spec.duration / 3.0
    # The legacy hard-coded fault: crash at phase, repair at 2*phase
    # (scripted, so the supervisor stays out of the way).
    plan = scripted_crash(compartment=int(spec.param("crash_index", 0)),
                          at=phase, duration=phase)
    harness, session, summary = run_plan(spec, plan, RATE_PER_TENANT,
                                         calibration)

    num_tenants = spec.deployment.num_tenants

    def fractions(t0: float, t1: float) -> Dict[int, float]:
        expected = RATE_PER_TENANT * (t1 - t0)
        return {
            t: min(1.0, harness.monitor.delivered_in_window(t0, t1, flow_id=t)
                   / expected)
            for t in range(num_tenants)
        }

    # Phase accounting from the *observed* outage: the session's first
    # outage window (injection .. repair), not assumed timestamps.  For
    # the default plan these are exactly phase and 2*phase.
    windows = session.outage_windows()
    t_down, t_up = windows[0] if windows else (phase, 2 * phase)
    # Give recovery a small settle margin inside the third phase.
    during = fractions(t_down, t_up)
    after = fractions(t_up + phase / 5, 3 * phase - phase / 5)
    values: Dict[str, float] = {}
    for t in range(num_tenants):
        values[f"during:t{t}"] = during[t]
        values[f"after:t{t}"] = after[t]
    values["detect_latency"] = summary["detect_latency"]
    values["outage"] = t_up - t_down
    values["violations"] = summary["violations"]
    return values


def measure(spec: DeploymentSpec, crash_index: int = 0,
            phase: float = 0.05, seed: int = 0) -> AvailabilityResult:
    """Three equal phases: healthy, crashed, recovered."""
    values = measure_scenario(ScenarioSpec(
        workload=WORKLOAD, deployment=spec, traffic=TrafficScenario.P2V,
        duration=3 * phase, seed=seed, label=spec.label,
        params={"crash_index": crash_index}))
    return AvailabilityResult(
        label=spec.label,
        during_outage={t: values[f"during:t{t}"]
                       for t in range(spec.num_tenants)},
        after_recovery={t: values[f"after:t{t}"]
                        for t in range(spec.num_tenants)},
    )


def scenarios(phase: float = 0.05, seed: int = 0) -> List[ScenarioSpec]:
    return [
        ScenarioSpec(workload=WORKLOAD, deployment=spec,
                     traffic=TrafficScenario.P2V, duration=3 * phase,
                     seed=seed, label=spec.label,
                     params={"crash_index": 0})
        for spec in configurations()
    ]


def tabulate(results: Sequence[ScenarioResult]) -> Table:
    table = Table(
        title="Fault isolation: one vswitch crashes for a third of the "
              "run (p2v, per-tenant delivered fraction during outage)",
        fmt=lambda v: f"{v:.2f}",
    )
    for result in results:
        series = Series(label=result.label)
        tenants = sorted(int(key.split(":t", 1)[1])
                         for key in result.values
                         if key.startswith("during:t"))
        for t in tenants:
            series.add(f"t{t}", result.values[f"during:t{t}"])
        table.add_series(series)
    return table


def run(phase: float = 0.05, seed: int = 0) -> Table:
    from repro.experiments.runner import default_engine
    return tabulate(default_engine().run(scenarios(phase=phase, seed=seed)))

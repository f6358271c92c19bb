"""The ``ext.chaos`` workload: blast radius and MTTR under a campaign.

Runs one fault plan against one deployment and reports what the paper's
availability argument predicts: a Baseline vswitch crash blacks out
*every* tenant until the supervisor brings the single shared bridge
back, while a Level-2 compartment crash takes down only the crashed
compartment's tenants -- and with warm standby the outage shrinks to
detection + failover.

The workload is chaos-aware: :func:`run_plan` arms its own
:class:`~repro.faults.session.ChaosSession`, which lets it report
outage-window availability per tenant on top of the session's summary.
``ext.fault-isolation`` runs through the same routine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.deployment import build_deployment
from repro.core.levels import ResourceMode, SecurityLevel
from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.faults.plan import FaultPlan, scripted_crash
from repro.faults.session import ChaosSession
from repro.measure.reporting import Series, Table
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.scenario.spec import ScenarioResult, ScenarioSpec
from repro.traffic.harness import TestbedHarness
from repro.units import KPPS

WORKLOAD = "ext.chaos"

RATE_PER_TENANT = 5 * KPPS

#: A tenant is "down" when it delivered under 1% of the offered load
#: over the outage window (mirrors the fault-isolation experiment).
DOWN_THRESHOLD = 0.01


def default_plan(duration: float, crash_index: int = 0,
                 warm_standby: bool = False) -> FaultPlan:
    """Crash one vswitch a third of the way in; no scripted repair --
    the watchdog + supervisor must bring it back."""
    return scripted_crash(compartment=crash_index, at=duration / 3.0,
                          warm_standby=warm_standby)


def _merge_windows(windows: Sequence[Tuple[float, float]]
                   ) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for t0, t1 in sorted(windows):
        if merged and t0 <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], t1))
        else:
            merged.append((t0, t1))
    return merged


def run_plan(spec: ScenarioSpec, default_plan: FaultPlan, rate: float,
             calibration: Calibration = DEFAULT_CALIBRATION
             ) -> Tuple[TestbedHarness, ChaosSession, Dict[str, float]]:
    """Run the spec's fault plan -- ``default_plan`` when the spec has
    none -- against its deployment, with every tenant offered ``rate``
    pps for the whole window.

    The session is armed before the run, which registers it on the run
    context: the harness hook attaches no second session, and a metered
    run charges this session's recoveries.  Returns the harness, the
    finished session and its summary."""
    plan = spec.faults
    if plan is None or not plan.faults:
        plan = default_plan
    deployment = build_deployment(spec.deployment, spec.traffic,
                                  seed=spec.seed, calibration=calibration)
    harness = TestbedHarness(deployment)
    harness.configure_tenant_flows(rate_per_flow_pps=rate)
    session = ChaosSession(deployment, harness, plan, seed=spec.seed)
    session.arm(spec.duration)
    harness.run(duration=spec.duration, warmup=0.0)
    return harness, session, session.finish()


def measure_scenario(spec: ScenarioSpec,
                     calibration: Calibration = DEFAULT_CALIBRATION
                     ) -> Dict[str, float]:
    """Engine entry point: run the spec's fault plan (or the default
    single-crash campaign) and report availability, blast radius and
    the session's inject/detect/recover accounting."""
    rate = float(spec.param("rate_pps", RATE_PER_TENANT))
    harness, session, summary = run_plan(
        spec, default_plan(spec.duration,
                           crash_index=int(spec.param("crash_index", 0)),
                           warm_standby=bool(spec.param("warm_standby", 0))),
        rate, calibration)

    num_tenants = spec.deployment.num_tenants
    windows = _merge_windows(session.outage_windows())
    outage_len = sum(t1 - t0 for t0, t1 in windows)

    values: Dict[str, float] = dict(summary)
    tenants_down = 0
    for t in range(num_tenants):
        expected = rate * spec.duration
        full = (min(1.0, harness.sink.per_flow.get(t, 0) / expected)
                if expected > 0 else 0.0)
        values[f"avail:t{t}"] = full
        if outage_len > 0:
            got = sum(harness.monitor.delivered_in_window(t0, t1, flow_id=t)
                      for t0, t1 in windows)
            frac = min(1.0, got / (rate * outage_len))
        else:
            frac = 1.0
        values[f"outage:t{t}"] = frac
        if frac < DOWN_THRESHOLD:
            tenants_down += 1
    values["tenants_down"] = float(tenants_down)
    values["blast_radius"] = (tenants_down / num_tenants
                              if num_tenants else 0.0)
    values["outage_window"] = outage_len
    return values


def configurations() -> List[DeploymentSpec]:
    return [
        DeploymentSpec(level=SecurityLevel.BASELINE,
                       resource_mode=ResourceMode.SHARED),
        DeploymentSpec(level=SecurityLevel.LEVEL_1,
                       resource_mode=ResourceMode.SHARED),
        DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=2,
                       resource_mode=ResourceMode.SHARED),
        DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=4,
                       resource_mode=ResourceMode.ISOLATED),
    ]


def scenarios(duration: float = 0.15, seed: int = 0,
              crash_index: int = 0, warm_standby: bool = False,
              plan: Optional[FaultPlan] = None) -> List[ScenarioSpec]:
    """One chaos spec per configuration.  The plan rides on the spec,
    so results are cached (and invalidated) per campaign."""
    if plan is None:
        plan = default_plan(duration, crash_index=crash_index,
                            warm_standby=warm_standby)
    return [
        ScenarioSpec(workload=WORKLOAD, deployment=spec,
                     traffic=TrafficScenario.P2V, duration=duration,
                     seed=seed, label=spec.label, faults=plan)
        for spec in configurations()
    ]


def tabulate(results: Sequence[ScenarioResult]) -> Table:
    """Blast radius vs MTTR across security levels."""
    table = Table(
        title="Chaos: one vswitch crash, watchdog-supervised recovery "
              "(p2v; blast radius = fraction of tenants fully down)",
        fmt=lambda v: f"{v:.3f}",
    )
    for result in results:
        series = Series(label=result.label)
        series.add("blast", result.values.get("blast_radius", 0.0))
        series.add("down", result.values.get("tenants_down", 0.0))
        series.add("detect", result.values.get("detect_latency", 0.0))
        series.add("mttr", result.values.get("mttr", 0.0))
        series.add("outage", result.values.get("outage_window", 0.0))
        series.add("viol", result.values.get("violations", 0.0))
        table.add_series(series)
    return table


def run(duration: float = 0.15, seed: int = 0,
        warm_standby: bool = False) -> Table:
    from repro.experiments.runner import default_engine
    return tabulate(default_engine().run(
        scenarios(duration=duration, seed=seed,
                  warm_standby=warm_standby)))

"""The ``controlplane.churn`` workload: the resident service as a
cacheable scenario.

One registry entry wraps the control plane for the scenario engine, so
churn campaigns get caching, pool execution and JSONL plumbing for
free.  The whole :class:`~repro.controlplane.plan.ChurnPlan` rides on
the spec as the ``churn`` param -- its *canonical JSON*, so the plan
folds into the spec's content hash and two campaigns with different
knobs can never collide in the result cache.  Individual params
(``arrival_rate``, ``churn_duration``, ``crashes``, ...) are accepted
as a convenience when no full plan is given.

The run is a pure function of ``(plan, seed)``: every stochastic draw
comes off a named RNG stream, so the sequential and process-pool
backends produce byte-identical values for the same spec -- the
engine's cacheability contract, checked by the tier-1 suite.

The service's lifecycle journal becomes the result's events.  When the
spec asks for metering (``("metering", True)``), the workload also
publishes one synthetic :class:`UsageRecord` per tenant that ever held
a seat: delivered traffic as IO bytes, modeled vswitch CPU from the
autoscaler's capacity constant, and -- the point of the exercise --
migration/autoscale re-sync charged as ``fault_seconds`` under the
crashed or overloaded compartment's policy, so ``repro billing``
prices recovery exactly like the chaos layer does.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.billing.meter import UsageRecord
from repro.controlplane.plan import ChurnPlan, CrashSpec
from repro.controlplane.service import ControlPlane
from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.core.levels import ResourceMode, SecurityLevel
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.scenario import context
from repro.scenario.spec import ScenarioSpec

WORKLOAD = "controlplane.churn"


def default_plan(duration: float = 60.0, arrival_rate: float = 2.0,
                 crashes: int = 3, mean_lifetime: float = 30.0,
                 seedable_repair: float = 10.0) -> ChurnPlan:
    """A lively default campaign: steady churn plus ``crashes``
    compartment failures spread evenly across the middle of the run."""
    scripted = tuple(
        CrashSpec(at=duration * (i + 1) / (crashes + 1), target="auto",
                  repair_after=seedable_repair)
        for i in range(crashes))
    return ChurnPlan(duration=duration, arrival_rate=arrival_rate,
                     mean_lifetime=mean_lifetime, crashes=scripted)


def plan_from_spec(spec: ScenarioSpec) -> ChurnPlan:
    """The spec's ``churn`` param (canonical plan JSON), or a default
    plan shaped by the convenience params."""
    text = spec.param("churn")
    if text:
        return ChurnPlan.from_json(str(text))
    return default_plan(
        duration=float(spec.param("churn_duration",
                                  spec.duration or 60.0)),
        arrival_rate=float(spec.param("arrival_rate", 2.0)),
        crashes=int(spec.param("crashes", 3)),
        mean_lifetime=float(spec.param("mean_lifetime", 30.0)))


def default_deployment() -> DeploymentSpec:
    """The deployment the churn scenario nominally runs against (the
    service models the fabric itself; this keys caching and labels)."""
    return DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=4,
                          resource_mode=ResourceMode.SHARED)


def scenario(plan: ChurnPlan, seed: int = 0, label: str = "",
             metering: bool = False,
             eval_mode: str = "") -> ScenarioSpec:
    """Wrap ``plan`` as an engine spec (the plan JSON is the param)."""
    params: List[Tuple[str, object]] = [("churn", plan.to_json())]
    if metering:
        params.append(("metering", True))
    return ScenarioSpec(workload=WORKLOAD, deployment=default_deployment(),
                        traffic=TrafficScenario.P2V, duration=plan.duration,
                        seed=seed, label=label or "churn",
                        eval_mode=eval_mode, params=tuple(params))


def _usage_from_service(plan: ChurnPlan,
                        service: ControlPlane) -> List[dict]:
    """Synthetic per-tenant usage records + the billing summary."""
    capacity = plan.autoscale.compartment_capacity_pps
    horizon = service.sim.now
    records = []
    fault_payers: Dict[int, float] = {}
    for tid in sorted(service.records):
        rec = service.records[tid]
        if rec.offered <= 0 and rec.recovery_seconds <= 0:
            continue  # never placed, nothing metered
        slot = rec.slot if rec.slot is not None else (0, 0)
        compartment = slot[0] * plan.compartments_per_server + slot[1]
        cpu = rec.delivered / capacity if capacity else 0.0
        records.append(UsageRecord(
            tenant_id=tid, compartment=compartment,
            t0=rec.requested_at, t1=rec.ended_at or horizon,
            cpu_seconds=cpu, cpu_seconds_exact=cpu, core_seconds=cpu,
            io_bytes=int(rec.delivered * rec.req.frame_bytes),
            passes=int(rec.delivered),
            drops={"fault": int(rec.dropped)} if rec.dropped else {},
            fault_seconds=rec.recovery_seconds,
            fault_drops=int(rec.dropped),
            quality="estimated"))
        if rec.recovery_seconds > 0:
            fault_payers[tid] = rec.recovery_seconds
    billed_fault = sum(fault_payers.values())
    # Recovery charged to tenants must equal the recovery the service
    # actually performed -- the churn reconciliation check.
    reconciled = abs(billed_fault - service.recovery_seconds_total) <= 1e-9
    failures = [] if reconciled else [
        f"fault charge mismatch: billed {billed_fault:.6f}s, "
        f"performed {service.recovery_seconds_total:.6f}s"]
    summary = {
        "kind": "summary",
        "windows": 1,
        "reconciled": reconciled,
        "failures": failures,
        "misattribution_score": 0.0,
        "billed_cpu_seconds": sum(r.cpu_seconds for r in records),
        "exact_cpu_seconds": sum(r.cpu_seconds_exact for r in records),
        "billed_io_bytes": sum(r.io_bytes for r in records),
        "billed_pcie_bytes": 0,
        "fault_seconds_total": billed_fault,
        "fault_payers": {str(t): s for t, s in sorted(fault_payers.items())},
        "fault_drops": {
            str(r.tenant_id): r.fault_drops for r in records
            if r.fault_drops},
        "tenant_cpu_skew": {},
    }
    return [r.to_dict() for r in records] + [summary]


def measure_scenario(spec: ScenarioSpec,
                     calibration: Calibration = DEFAULT_CALIBRATION
                     ) -> Dict[str, float]:
    """Engine entry point: run the churn campaign, publish the
    lifecycle journal and, when metered, the usage records."""
    plan = plan_from_spec(spec)
    service = ControlPlane(plan, seed=spec.seed)
    values = service.run()
    context.publish(events=service.log.events,
                    usage=(_usage_from_service(plan, service)
                           if spec.param("metering", False) else ()))
    return values

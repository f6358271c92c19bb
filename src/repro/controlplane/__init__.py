"""The resident control plane: tenant lifecycle, admission, autoscale,
self-healing live migration -- running *inside* sim time.

Layout:

- :mod:`~repro.controlplane.lifecycle` -- the explicit tenant state
  machine (validated transitions, packet-conservation accrual);
- :mod:`~repro.controlplane.plan` -- frozen, JSON-round-trippable
  churn campaigns (:class:`ChurnPlan`) and policy specs;
- :mod:`~repro.controlplane.admission` -- capacity leases + load shed;
- :mod:`~repro.controlplane.autoscaler` -- PID pool control with
  hysteresis and a scale-storm circuit breaker;
- :mod:`~repro.controlplane.service` -- :class:`ControlPlane`, the
  resident service tying it all together;
- :mod:`~repro.controlplane.workload` -- the ``controlplane.churn``
  scenario-engine entry point.
"""

from repro.controlplane.lifecycle import (  # noqa: F401
    LifecycleError, TenantRecord, TenantState, TRANSITIONS)
from repro.controlplane.plan import (  # noqa: F401
    AdmissionPolicySpec, AutoscalePolicySpec, ChurnPlan, CrashSpec)
from repro.controlplane.service import ControlPlane  # noqa: F401

__all__ = [
    "AdmissionPolicySpec",
    "AutoscalePolicySpec",
    "ChurnPlan",
    "ControlPlane",
    "CrashSpec",
    "LifecycleError",
    "TenantRecord",
    "TenantState",
    "TRANSITIONS",
]

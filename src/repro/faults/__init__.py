"""Declarative fault injection and watchdog-driven self-healing.

``repro.faults`` turns "what breaks, when, and how it comes back" into
data: a :class:`FaultPlan` is a hash-stable, JSON-round-trippable
campaign of :class:`FaultSpec` entries that rides on a
:class:`~repro.scenario.spec.ScenarioSpec` (so cached results are keyed
by the campaign too).  At run time an
:class:`~repro.faults.injector.Injector` applies the faults through
sim-kernel events, a :class:`~repro.faults.watchdog.Watchdog` measures
detection latency, and a :class:`~repro.faults.supervisor.Supervisor`
restarts or fails over the victim under an explicit policy -- all
stitched together by a :class:`~repro.faults.session.ChaosSession`.
A spec's plan reaches the harness through the run context
(:mod:`repro.scenario.context`), and the session's transitions come
back as :mod:`repro.obs.journal` events.

Only the declarative layer is imported eagerly; the session, injector
and campaign pull in the deployment stack and are imported on first
use.
"""

from repro.faults.plan import (FaultKind, FaultPlan, FaultSpec,
                               OUTAGE_KINDS, RestartPolicySpec,
                               scripted_crash)

__all__ = [
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "OUTAGE_KINDS",
    "RestartPolicySpec",
    "scripted_crash",
]

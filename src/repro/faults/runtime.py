"""Per-scenario chaos context: how a FaultPlan reaches the harness.

The scenario engine resolves a workload function and calls it; the
workload builds a deployment and a :class:`TestbedHarness` and runs it.
Neither the engine nor the harness knows about the other's objects, so
the plan travels through this module-level context instead:

1. :func:`repro.scenario.engine.run_scenario` calls :func:`activate`
   with the spec's (possibly ``None``) plan and seed before invoking
   the workload, and :func:`deactivate` after;
2. ``TestbedHarness.run`` calls :func:`attach_active_session` -- if a
   plan is present and unclaimed, a :class:`ChaosSession` is built
   around the harness and armed for the run;
3. the session publishes its event log here, and ``run_scenario``
   drains it into the :class:`ScenarioResult`.

Chaos-aware workloads (``ext.chaos``, ``ext.fault-isolation``) manage
their own session; they call :func:`claim` first so the harness hook
stays out of the way.

Everything is plain module state (no threads in the DES), reset by the
engine around every scenario; a workload run outside the engine simply
sees no active context and runs fault-free.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class _Context:
    """The chaos state of one in-flight scenario."""

    __slots__ = ("plan", "seed", "claimed", "events")

    def __init__(self, plan, seed: int) -> None:
        self.plan = plan
        self.seed = seed
        self.claimed = False
        self.events: List[dict] = []


_active: Optional[_Context] = None


def activate(plan, seed: int) -> _Context:
    """Install the chaos context for the scenario about to run.  The
    plan may be ``None`` (fault-free run); activating anyway keeps the
    engine's control flow uniform."""
    global _active
    _active = _Context(plan, seed)
    return _active


def deactivate(ctx: Optional[_Context] = None) -> None:
    """Tear the context down (engine ``finally`` path)."""
    global _active
    if ctx is None or _active is ctx:
        _active = None


def active_plan():
    """The unclaimed plan of the in-flight scenario, or ``None``."""
    if _active is None or _active.claimed:
        return None
    return _active.plan


def claim() -> Tuple[Optional[object], Optional[int]]:
    """Take ownership of the context (chaos-aware workloads): the
    harness hook will no longer auto-attach.  Returns ``(plan, seed)``,
    both ``None`` when no context is active."""
    if _active is None:
        return None, None
    _active.claimed = True
    return _active.plan, _active.seed


def publish(events: List[dict]) -> None:
    """Append a session's event dicts to the context (no-op without
    one, e.g. a harness run outside the engine)."""
    if _active is not None:
        _active.events.extend(events)


def drain() -> List[dict]:
    """All events published so far, clearing the buffer."""
    if _active is None:
        return []
    events = _active.events
    _active.events = []
    return events


def attach_active_session(harness, horizon: float):
    """Harness hook: build and arm a :class:`ChaosSession` for this run
    when an unclaimed plan with faults is active.  Returns the session
    (caller must ``finish()`` it after the run) or ``None``."""
    if _active is None or _active.claimed:
        return None
    plan = _active.plan
    if plan is None or not plan.faults:
        return None
    _active.claimed = True
    from repro.faults.session import ChaosSession
    session = ChaosSession(harness.deployment, harness, plan,
                           seed=_active.seed or 0)
    session.arm(horizon)
    return session

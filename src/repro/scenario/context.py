"""The run context: what one scenario asks of its harness runs, and
what they report back.

The scenario engine resolves a workload function and calls it; the
workload builds a deployment and a :class:`TestbedHarness` and runs
it.  Neither knows the other's objects, so one context carries the
spec's requests down and the run's reports back up:

1. :func:`repro.scenario.engine.run_scenario` activates a context from
   the spec -- fault plan, seed, ``metering``, ``metering_interval``
   -- before invoking the workload, and drains one ``(events, usage)``
   pair after it;
2. ``TestbedHarness.run`` reads the active context once per run.
   Before it picks the data-plane path it calls
   :meth:`RunContext.attach_chaos`, which arms a
   :class:`~repro.faults.session.ChaosSession` for the plan unless the
   run already has one (arming marks the deployment for the oracle).
   After ``enable_batched_fastpath`` -- the meter snapshots the bridge
   stations that call swaps -- it calls
   :meth:`RunContext.attach_metering`;
3. ``ChaosSession.arm`` registers the session here, whether the
   harness or a chaos-aware workload armed it, so the harness attaches
   no second one and the metering session charges that session's
   recoveries;
4. finished sessions :func:`publish` journal events
   (:mod:`repro.obs.journal`) and usage records;
5. every deployment, harness, fabric cloud and control plane built
   while the context is active registers with it (:func:`own`), and
   ``run_scenario`` releases them (:meth:`RunContext.release`) once the
   workload has returned its values.  Releasing disconnects the
   callbacks that close reference cycles through a run's objects, so
   they go by reference counting instead of waiting for the cycle
   collector.

This module holds the only per-scenario state; there are no threads in
the DES, and the engine replaces the context around every scenario.  A
workload run outside the engine sees no active context and runs
fault-free and unmetered.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple


class RunContext:
    """The requests and reports of one in-flight scenario."""

    __slots__ = ("plan", "seed", "metering", "metering_interval",
                 "chaos", "metered", "events", "usage", "owned")

    def __init__(self, plan=None, seed: int = 0, metering: bool = False,
                 metering_interval: float = 0.0) -> None:
        self.plan = plan
        self.seed = seed
        self.metering = metering
        self.metering_interval = metering_interval
        #: The run's ChaosSession, whoever armed it.
        self.chaos = None
        #: True once a harness run took the metering request (nested
        #: runs meter only the first).
        self.metered = False
        self.events: List[dict] = []
        self.usage: List[dict] = []
        #: What the run built (see :func:`own`), in build order.
        self.owned: list = []

    def attach_chaos(self, harness, horizon: float):
        """Arm a :class:`ChaosSession` for the plan on ``harness``
        unless the plan is empty or the run already has a session.
        Returns the new session (the harness finishes it) or ``None``."""
        if self.chaos is not None or self.plan is None or not self.plan.faults:
            return None
        from repro.faults.session import ChaosSession
        session = ChaosSession(harness.deployment, harness, self.plan,
                               seed=self.seed)
        session.arm(horizon)
        return session

    def attach_metering(self, harness, horizon: float):
        """Arm a :class:`MeteringSession` on the first harness run of a
        metered scenario; it charges the run's chaos session, if any.
        Returns the session (the harness finishes it) or ``None``."""
        if not self.metering or self.metered:
            return None
        self.metered = True
        from repro.billing.session import MeteringSession
        session = MeteringSession(harness.deployment, harness,
                                  interval=self.metering_interval,
                                  seed=self.seed, chaos=self.chaos)
        session.arm(horizon)
        return session

    def release(self) -> None:
        """Release everything the run owns, last built first (a harness
        before its deployment).  Each ``release()`` is idempotent."""
        owned, self.owned = self.owned, []
        while owned:
            owned.pop().release()

    def drain(self) -> Tuple[List[dict], List[dict]]:
        """The events and usage published so far, clearing both."""
        drained = self.events, self.usage
        self.events, self.usage = [], []
        return drained


_active: Optional[RunContext] = None


def activate(plan=None, seed: int = 0, metering: bool = False,
             metering_interval: float = 0.0) -> RunContext:
    """Install the context for the scenario about to run."""
    global _active
    _active = RunContext(plan, seed, metering, metering_interval)
    return _active


def deactivate(ctx: RunContext) -> None:
    """Tear ``ctx`` down if it is still the active context."""
    global _active
    if _active is ctx:
        _active = None


def active() -> Optional[RunContext]:
    """The in-flight scenario's context, or ``None`` outside the engine."""
    return _active


def register_chaos(session) -> None:
    """Make ``session`` the active run's chaos session (no-op outside
    the engine)."""
    if _active is not None:
        _active.chaos = session


def own(obj) -> None:
    """Make the active run own ``obj``, which has a ``release()``
    method: the engine releases it after the workload returns (no-op
    outside the engine)."""
    if _active is not None:
        _active.owned.append(obj)


def publish(events: Iterable[dict] = (), usage: Iterable[dict] = ()) -> None:
    """Append events and usage records to the active context (no-op
    outside the engine)."""
    if _active is not None:
        _active.events.extend(events)
        _active.usage.extend(usage)

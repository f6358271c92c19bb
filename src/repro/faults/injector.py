"""The fault injector: turns FaultSpecs into sim-kernel events.

Arming walks the plan once and schedules *all* injection (and scripted
clearance) events up front:

- **scripted** faults land at ``arm_time + at`` (and clear at
  ``at + duration`` when self-clearing);
- **stochastic** faults draw their entire occurrence sequence at arm
  time from a named RNG stream
  (``faults.<i>.<kind>.<target>``) -- exponential inter-failure gaps
  (mean ``mtbf``) and, when the fault is operator-repaired, exponential
  outage lengths (mean ``mttr``).  Drawing everything up front makes
  the schedule a pure function of the seed, independent of anything
  the dataplane does during the run.

Application is mechanical per kind:

==================== =====================================================
vswitch-crash        :func:`~repro.core.orchestrator.crash_bridge` (all
                     bridge ports blackhole; drops counted)
vf-reset             the VF's rx port drops frames until repair
link-flap            the link's ``send`` drops every frame
packet-loss/corrupt  ``send`` drops each frame with prob. ``severity``
controller-partition supervisor re-sync stalls until the partition heals
==================== =====================================================

Injecting into an already-down target is a counted no-op (stochastic
schedules can overlap an ongoing outage), never state corruption.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.orchestrator import crash_bridge, restore_bridge
from repro.errors import ConfigurationError
from repro.faults.plan import (LINK_KINDS, OUTAGE_KINDS, FaultKind,
                               FaultPlan, FaultSpec)


class Injector:
    """Schedules and applies one plan's faults against one testbed."""

    def __init__(self, session) -> None:
        self.session = session
        self.sim = session.sim
        self.plan: FaultPlan = session.plan
        #: (kind, target) -> saved send callable of an active link burst.
        self._burst_saved: Dict[Tuple[str, str], Callable] = {}

    # -- arming ----------------------------------------------------------

    def arm(self, horizon: float) -> None:
        now0 = self.sim.now
        span = (self.plan.horizon if self.plan.horizon is not None
                else horizon)
        harness = self.session.harness
        for i, fault in enumerate(self.plan.faults):
            # Fail fast on bad targets, at arm time.
            target = self._resolve(fault)
            if fault.kind is FaultKind.VSWITCH_CRASH:
                target.arm_faults()
            elif fault.kind in LINK_KINDS and target is harness.ingress_link:
                # The generator hands frames to its link up to a burst
                # ahead of their wire time, and a link fault judges each
                # frame when it is handed over: emit each at its time.
                harness.lg.burst = 1
            if fault.scripted:
                self.sim.schedule(now0 + fault.at, self._inject, i, fault)
                if fault.duration is not None:
                    self.sim.schedule(now0 + fault.at + fault.duration,
                                      self._clear, i, fault)
            else:
                self._arm_stochastic(i, fault, now0, now0 + span)

    def _arm_stochastic(self, i: int, fault: FaultSpec, now0: float,
                        deadline: float) -> None:
        stream = self.session.fault_stream(i, fault)
        t = now0 + stream.expovariate(1.0 / fault.mtbf)
        while t < deadline:
            self.sim.schedule(t, self._inject, i, fault)
            if fault.mttr is not None:
                outage = stream.expovariate(1.0 / fault.mttr)
                self.sim.schedule(t + outage, self._clear, i, fault)
                t += outage
            t += stream.expovariate(1.0 / fault.mtbf)

    # -- target resolution ----------------------------------------------

    def _resolve(self, fault: FaultSpec):
        """The live object behind a fault's target address."""
        target = fault.target
        d = self.session.deployment
        if target == "controller":
            if fault.kind is not FaultKind.CONTROLLER_PARTITION:
                raise ConfigurationError(
                    f"{fault.kind.value} cannot target the controller")
            return self.session.supervisor
        scheme, _, rest = target.partition(":")
        if scheme == "compartment":
            try:
                index = int(rest)
            except ValueError:
                raise ConfigurationError(f"bad compartment index {rest!r}")
            if not 0 <= index < len(d.bridges):
                raise ConfigurationError(
                    f"no compartment {index} (deployment has "
                    f"{len(d.bridges)} bridge(s))")
            return d.bridges[index]
        if scheme == "link":
            harness = self.session.harness
            if rest == "ingress":
                return harness.ingress_link
            if rest == "egress":
                return harness.egress_link
            raise ConfigurationError(
                f"unknown link {rest!r} (ingress/egress)")
        if scheme == "vf":
            for vf_map in (d.tenant_vf, d.gw_vf, d.inout_vf):
                for vf in vf_map.values():
                    if vf.name == rest:
                        return vf
            raise ConfigurationError(f"no VF named {rest!r}")
        raise ConfigurationError(f"unresolvable fault target {target!r}")

    # -- inject / clear --------------------------------------------------

    def _inject(self, i: int, fault: FaultSpec) -> None:
        obj = self._resolve(fault)
        kind = fault.kind
        session = self.session

        if kind is FaultKind.CONTROLLER_PARTITION:
            until = self.sim.now + fault.duration
            obj.partition(until)
            session.on_injected(fault, detail={"until": until})
            return

        if kind in OUTAGE_KINDS:
            state = session.state_for(fault)
            if state.down:
                session.on_noop("inject")
                return
            restore = self._take_down(kind, fault, obj)
            session.on_injected(fault, state=state, restore=restore,
                                obj=obj)
            return

        # Degradation bursts (scripted duration or stochastic mttr).
        key = (kind.value, fault.target)
        if key in self._burst_saved:
            session.on_noop("inject")
            return
        self._burst_saved[key] = self._start_burst(kind, fault, obj, i)
        session.on_injected(fault)

    def _clear(self, i: int, fault: FaultSpec) -> None:
        kind = fault.kind
        session = self.session
        if kind is FaultKind.CONTROLLER_PARTITION:
            session.on_cleared(fault)
            return
        if kind in OUTAGE_KINDS:
            state = session.state_for(fault)
            if not state.down:
                session.on_noop("clear")
                return
            session.on_scripted_clear(state)
            return
        key = (kind.value, fault.target)
        saved = self._burst_saved.pop(key, None)
        if saved is None:
            session.on_noop("clear")
            return
        link = self._resolve(fault)
        link.send = saved
        session.on_cleared(fault)

    # -- fault mechanics -------------------------------------------------

    def _take_down(self, kind: FaultKind, fault: FaultSpec, obj
                   ) -> Callable[[], None]:
        """Apply an outage; returns the callable that repairs it."""
        session = self.session
        if kind is FaultKind.VSWITCH_CRASH:
            crash_bridge(obj)
            return lambda: restore_bridge(obj)
        if kind is FaultKind.VF_RESET:
            port = obj.port.rx
            saved_handler = port._handler

            def _dead_ring(frame) -> None:
                session.count_fault_drop(fault.target)

            port.connect(_dead_ring)
            return lambda: port.connect(saved_handler)
        if kind is FaultKind.LINK_FLAP:
            saved_send = obj.send

            def _dark(frame, at: Optional[float] = None) -> float:
                session.count_fault_drop(fault.target)
                return at if at is not None else self.sim.now

            obj.send = _dark

            def _relight() -> None:
                obj.send = saved_send

            return _relight
        raise ConfigurationError(f"{kind.value} is not an outage kind")

    def _start_burst(self, kind: FaultKind, fault: FaultSpec, link,
                     i: int) -> Callable:
        """Wrap ``link.send`` with probabilistic loss; returns the saved
        send for :meth:`_clear` to restore."""
        saved_send = link.send
        stream = self.session.fault_stream(i, fault)
        severity = fault.severity
        session = self.session

        def _lossy(frame, at: Optional[float] = None) -> float:
            if stream.random() < severity:
                session.count_fault_drop(fault.target)
                return at if at is not None else self.sim.now
            return saved_send(frame, at=at)

        link.send = _lossy
        return saved_send

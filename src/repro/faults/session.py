"""ChaosSession: one fault campaign wired into one harness run.

The session is the stateful hub the stateless pieces hang off:

- the :class:`~repro.faults.injector.Injector` applies faults and calls
  back in (``on_injected`` / ``on_cleared`` / ``on_noop``);
- the :class:`~repro.faults.watchdog.Watchdog` probes target health and
  reports detections (``on_detected``);
- the :class:`~repro.faults.supervisor.Supervisor` plans recoveries and
  completes them (``on_recovered`` / ``on_give_up``).

Every transition lands in the session's
:class:`~repro.obs.journal.Journal` (``layer`` "faults", the phase as
``kind``, the fault kind as ``fault``) and in the obs registry
(inject/detect/recover counters, detection-latency and downtime
histograms, per-tenant delivered-fraction gauges), and
:meth:`finish` closes the books: packet conservation
(``offered == delivered + fault drops + component drops``), the
no-forwarding-while-crashed invariant (a crashed bridge's pass counter
must not advance), and the restart-budget invariant.  Violations are
*reported*, never silently swallowed -- the chaos fuzz tests assert the
count is zero.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.faults.injector import Injector
from repro.faults.plan import UPSTREAM_KINDS, FaultPlan, FaultSpec
from repro.faults.supervisor import Supervisor
from repro.faults.watchdog import Watchdog
from repro.obs.integrate import drop_totals
from repro.obs.journal import Journal
from repro.scenario import context
from repro.sim.rng import RngStreams


class TargetState:
    """Health and recovery bookkeeping of one fault target."""

    __slots__ = ("name", "spec", "down", "down_since", "observed_down",
                 "detected_at", "restore", "obj", "attempts",
                 "quick_failures", "last_recovered_at", "gave_up",
                 "circuit_open", "passes_at_inject")

    def __init__(self, name: str, spec: FaultSpec) -> None:
        self.name = name
        self.spec = spec
        self.down = False
        self.down_since = 0.0
        self.observed_down = False
        self.detected_at: Optional[float] = None
        self.restore: Optional[Callable[[], None]] = None
        self.obj = None
        self.attempts = 0
        self.quick_failures = 0
        self.last_recovered_at: Optional[float] = None
        self.gave_up = False
        self.circuit_open = False
        self.passes_at_inject: Optional[int] = None

    @property
    def is_compartment(self) -> bool:
        return self.name.startswith("compartment:")


class ChaosSession:
    """One plan, one deployment, one harness run."""

    def __init__(self, deployment, harness, plan: FaultPlan,
                 seed: int = 0) -> None:
        self.deployment = deployment
        self.harness = harness
        self.plan = plan
        self.sim = deployment.sim
        self.streams = RngStreams(seed)
        self.log = Journal("faults", self.sim)
        self.states: Dict[str, TargetState] = {}
        #: target -> frames swallowed by an injected condition (VF dead
        #: rings, dark links, loss bursts); bridge blackhole drops are
        #: counted on the bridges themselves.
        self.fault_drops: Dict[str, int] = {}
        #: Completed and open outage records (dicts, mutated in place).
        self.outages: List[dict] = []
        self.violations: List[str] = []
        self.supervisor = Supervisor(
            self.sim, self, plan.policy,
            rng=self.streams.stream("faults.supervisor"),
            warm_standby=plan.warm_standby)
        self.watchdog = Watchdog(self.sim, self, plan.heartbeat)
        self.injector = Injector(self)
        self._horizon = 0.0
        self._armed_at = 0.0
        self._drops_base: Dict[str, float] = {}
        self._blackhole_base = 0
        #: The plan acts upstream of the batch stations (see
        #: ``UPSTREAM_KINDS``): the run needs the per-frame oracle.
        self._holds_oracle = any(f.kind in UPSTREAM_KINDS
                                 for f in plan.faults)
        self._finished: Optional[Dict[str, float]] = None

    # -- metric families --------------------------------------------------

    def _injected_counter(self):
        return obs.REGISTRY.counter(
            "faults_injected_total", "faults applied", labels=("kind",))

    def _detections_counter(self):
        return obs.REGISTRY.counter(
            "fault_detections_total", "watchdog detections",
            labels=("kind",))

    def _recoveries_counter(self):
        return obs.REGISTRY.counter(
            "fault_recoveries_total", "repairs completed", labels=("mode",))

    def _noop_counter(self):
        return obs.REGISTRY.counter(
            "fault_noop_operations_total",
            "redundant fault operations ignored", labels=("op",))

    # -- lifecycle --------------------------------------------------------

    def arm(self, horizon: float) -> None:
        """Snapshot baselines, schedule the plan, start the watchdog.

        A plan with a fault upstream of the batch stations (a link or VF
        fault, see ``UPSTREAM_KINDS``) marks the deployment for the
        per-frame oracle until :meth:`finish` (see
        ``Deployment.hold_oracle``); vswitch crashes and controller
        partitions run batched, each crash target armed for its
        instants (``OvsBridge.arm_faults``).  Registers the session on
        the run context, so the harness attaches no second one and a
        metered run charges this one's recoveries."""
        if self._holds_oracle:
            self.deployment.hold_oracle("chaos")
        context.register_chaos(self)
        self._horizon = horizon
        self._armed_at = self.sim.now
        self._drops_base = drop_totals(self.deployment)
        self._blackhole_base = self._blackhole_drops()
        self.injector.arm(horizon)
        self.watchdog.start(horizon)

    def fault_stream(self, index: int, fault: FaultSpec):
        """The named RNG stream owning fault ``index``'s draws."""
        return self.streams.stream(
            f"faults.{index}.{fault.kind.value}.{fault.target}")

    def state_for(self, fault: FaultSpec) -> TargetState:
        state = self.states.get(fault.target)
        if state is None:
            state = TargetState(fault.target, fault)
            self.states[fault.target] = state
        return state

    def _record(self, phase: str, fault: FaultSpec, target: str,
                attempt: int = 0, **detail: float) -> None:
        self.log.record(phase, fault=fault.kind.value, target=target,
                        attempt=attempt, **detail)

    def count_fault_drop(self, target: str) -> None:
        self.fault_drops[target] = self.fault_drops.get(target, 0) + 1

    def failover_capable(self, state: TargetState) -> bool:
        """Warm standby exists only for Level-2 compartments: a
        per-tenant standby vswitch VM is exactly what the monolithic
        Baseline/Level-1 switch cannot have."""
        from repro.core.levels import SecurityLevel
        return (state.is_compartment
                and self.deployment.spec.level is SecurityLevel.LEVEL_2)

    def _blackhole_drops(self) -> int:
        return sum(b.fault_blackhole_drops for b in self.deployment.bridges)

    # -- injector callbacks ----------------------------------------------

    def on_injected(self, fault: FaultSpec, state: Optional[TargetState]
                    = None, restore: Optional[Callable[[], None]] = None,
                    obj=None, detail: Optional[Dict[str, float]] = None
                    ) -> None:
        now = self.sim.now
        self._injected_counter().labels(kind=fault.kind.value).inc()
        if state is not None:
            state.down = True
            state.down_since = now
            state.observed_down = False
            state.detected_at = None
            state.restore = restore
            state.obj = obj
            state.passes_at_inject = getattr(obj, "passes", None)
            window = self.plan.policy.circuit_window
            if (state.last_recovered_at is not None
                    and now - state.last_recovered_at <= window):
                state.quick_failures += 1
            else:
                state.quick_failures = 0
            self.outages.append({
                "target": fault.target, "kind": fault.kind.value,
                "injected_at": now, "detected_at": None,
                "recovered_at": None, "mode": None, "attempt": 0,
            })
        self._record("inject", fault, fault.target, **(detail or {}))

    def on_cleared(self, fault: FaultSpec) -> None:
        """A degradation burst or controller partition ended."""
        self._record("clear", fault, fault.target,
                     drops=float(self.fault_drops.get(fault.target, 0)))

    def on_noop(self, op: str) -> None:
        self._noop_counter().labels(op=op).inc()

    # -- watchdog callback -----------------------------------------------

    def on_detected(self, state: TargetState, latency: float) -> None:
        now = self.sim.now
        state.detected_at = now
        fault = state.spec
        self._detections_counter().labels(kind=fault.kind.value).inc()
        obs.REGISTRY.histogram(
            "fault_detection_latency_seconds",
            "inject -> watchdog detection").observe(latency)
        self._open_outage(state.name)["detected_at"] = now
        self._record("detect", fault, state.name, attempt=state.attempts,
                     latency=latency)
        if fault.self_heal:
            self.supervisor.on_detect(state)

    # -- supervisor callbacks --------------------------------------------

    def on_restart_attempt(self, state: TargetState) -> None:
        obs.REGISTRY.counter("fault_restart_attempts_total",
                             "supervisor restarts started").inc()

    def on_give_up(self, state: TargetState) -> None:
        obs.REGISTRY.counter("fault_giveups_total",
                             "targets abandoned (budget spent)").inc()
        self._record("give-up", state.spec, state.name,
                     attempt=state.attempts)

    def on_circuit_open(self, state: TargetState) -> None:
        obs.REGISTRY.counter("fault_circuit_open_total",
                             "circuit breakers opened").inc()
        self._record("circuit-open", state.spec, state.name,
                     attempt=state.attempts,
                     quick_failures=float(state.quick_failures))

    def on_recovered(self, state: TargetState, mode: str,
                     attempt: int) -> None:
        self._repair(state, phase="recover", mode=mode, attempt=attempt)

    def on_scripted_clear(self, state: TargetState) -> None:
        """A scripted (or drawn-MTTR) repair fired while down."""
        self._repair(state, phase="clear", mode="scripted", attempt=0)

    def _repair(self, state: TargetState, phase: str, mode: str,
                attempt: int) -> None:
        now = self.sim.now
        if state.restore is not None:
            state.restore()
        downtime = now - state.down_since
        detail: Dict[str, float] = {"downtime": downtime, "mode_is_" + mode: 1.0}
        if state.detected_at is not None:
            detail["detect_latency"] = state.detected_at - state.down_since
        # Invariant: a crashed component must not have forwarded.
        if state.passes_at_inject is not None:
            forwarded = getattr(state.obj, "passes", 0) - state.passes_at_inject
            if forwarded:
                self.violations.append(
                    f"{state.name} forwarded {forwarded} frames while down")
                detail["passes_while_down"] = float(forwarded)
        state.down = False
        state.observed_down = False
        state.restore = None
        state.last_recovered_at = now
        outage = self._open_outage(state.name)
        outage["recovered_at"] = now
        outage["mode"] = mode
        outage["attempt"] = attempt
        self._recoveries_counter().labels(mode=mode).inc()
        obs.REGISTRY.histogram("fault_downtime_seconds",
                               "inject -> recovery").observe(downtime)
        self._record(phase, state.spec, state.name, attempt=attempt,
                     **detail)

    def _open_outage(self, target: str) -> dict:
        for outage in reversed(self.outages):
            if outage["target"] == target and outage["recovered_at"] is None:
                return outage
        return {"target": target, "detected_at": None,
                "recovered_at": None}  # defensive: never armed

    # -- recovery cost model ---------------------------------------------

    def resync_cost(self, state: TargetState) -> float:
        """Flow-table re-sync + ARP re-learning time for a cold restart
        of ``state``'s component (compartments only)."""
        if not state.is_compartment:
            return 0.0
        policy = self.plan.policy
        index = int(state.name.split(":", 1)[1])
        bridge = self.deployment.bridges[index]
        rules = sum(len(table) for table in bridge.tables.values())
        views = self.deployment.compartment_views
        if index < len(views):
            entries = len(views[index].tenants)
        else:  # Baseline / Level-1: one bridge serving every tenant
            entries = self.deployment.spec.num_tenants
        return (rules * policy.resync_per_rule
                + entries * policy.arp_relearn_per_entry)

    # -- windows & summary ------------------------------------------------

    def outage_windows(self) -> List[Tuple[float, float]]:
        """(start, end) of every outage; open outages end at the run
        horizon."""
        end_default = self._armed_at + self._horizon
        return [(o["injected_at"],
                 o["recovered_at"] if o["recovered_at"] is not None
                 else end_default)
                for o in self.outages if "injected_at" in o]

    def finish(self) -> Dict[str, float]:
        """Close the books: conservation, invariants, per-tenant gauges.
        Publishes the journal's events to the run context and returns a
        flat summary (idempotent)."""
        if self._finished is not None:
            return self._finished
        if self._holds_oracle:
            self.deployment.release_oracle("chaos")
        lg = self.harness.lg
        sink = self.harness.sink
        offered = lg.sent
        delivered = sink.total
        blackhole = self._blackhole_drops() - self._blackhole_base
        wrapper = sum(self.fault_drops.values())
        fault_drops = blackhole + wrapper
        drops_now = drop_totals(self.deployment)
        component_drops = (sum(drops_now.values())
                           - sum(self._drops_base.values()))
        unaccounted = offered - delivered - fault_drops - component_drops
        if unaccounted:
            self.violations.append(
                f"conservation: {unaccounted} frames unaccounted "
                f"(offered {offered}, delivered {delivered}, fault drops "
                f"{fault_drops}, component drops {component_drops:.0f})")
        budget = self.plan.policy.max_restarts
        for state in self.states.values():
            if state.attempts > budget:
                self.violations.append(
                    f"{state.name}: {state.attempts} restarts exceed the "
                    f"budget of {budget}")

        gauge = obs.REGISTRY.gauge(
            "tenant_delivered_fraction",
            "per-tenant delivered fraction over the chaos run",
            labels=("tenant",))
        for flow in lg.flows:
            expected = flow.rate_pps * self._horizon
            got = sink.per_flow.get(flow.flow_id, 0)
            frac = min(1.0, got / expected) if expected > 0 else 0.0
            tenant = (flow.tenant_id if flow.tenant_id is not None
                      else flow.flow_id)
            gauge.labels(tenant=tenant).set(frac)

        detects = self.log.of_kind("detect")
        repairs = [e for e in self.log.of_kind("recover", "clear")
                   if "downtime" in e]
        summary: Dict[str, float] = {
            "injected": float(len(self.log.of_kind("inject"))),
            "detected": float(len(detects)),
            "recovered": float(len(self.log.of_kind("recover"))),
            "repaired": float(len(repairs)),
            "giveups": float(len(self.log.of_kind("give-up"))),
            "restart_attempts": float(sum(s.attempts
                                          for s in self.states.values())),
            "detect_latency": (
                sum(e["latency"] for e in detects) / len(detects)
                if detects else 0.0),
            "mttr": (sum(e["downtime"] for e in repairs)
                     / len(repairs) if repairs else 0.0),
            "downtime_total": sum(e["downtime"] for e in repairs),
            "offered": float(offered),
            "delivered": float(delivered),
            "fault_drops": float(fault_drops),
            "component_drops": float(component_drops),
            "unaccounted": float(unaccounted),
            "violations": float(len(self.violations)),
        }
        context.publish(events=self.log.events)
        self._finished = summary
        return summary

"""The resident control plane: a tenant-lifecycle service in sim time.

:class:`ControlPlane` runs *inside* the simulator as a first-class
workload: Poisson tenant arrivals walk the lifecycle state machine
(:mod:`repro.controlplane.lifecycle`), an admission controller leases
seats and sheds load when the pool is full
(:mod:`repro.controlplane.admission`), a PID autoscaler grows and
shrinks the vswitch-VM compartment pool
(:mod:`repro.controlplane.autoscaler`), and a watchdog heartbeat in the
``faults/`` idiom detects crashed compartments and live-migrates their
resident tenants onto healthy ones -- re-placed through
:func:`repro.fabric.placement.incremental_place` under the same
security constraints as the offline optimizer, with downtime and
re-sync cost priced by the PR 4 supervisor model.

The data plane is modeled at the fluid level (rates are constant
between events, so lazy accrual at every boundary is exact): each
placed tenant's demand is offered to the fabric and delivered while its
compartment is healthy, dropped while it is crashed, degraded or
migrating.  That makes three invariants *auditable* rather than
asserted: no tenant lost (every arrival is in exactly one live or
terminal state), no double placement (occupancy rebuilt from the
assignment matches the incremental books, and the full security
validator passes), and packet conservation (offered equals delivered
plus dropped for every tenant).

Everything stochastic draws from named :class:`~repro.sim.rng`
streams, so a churn trace is a pure function of ``(plan, seed)`` --
byte-identical across the sequential and process-pool backends.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.controlplane.admission import AdmissionController
from repro.controlplane.autoscaler import PoolAutoscaler
from repro.controlplane.lifecycle import (
    PLACED_STATES, TERMINAL_STATES, TenantRecord, TenantState)
from repro.controlplane.plan import ChurnPlan, CrashSpec
from repro.fabric.placement import (
    Placement, PlacementError, incremental_place, validate_placement)
from repro.fabric.topology import FabricTopology
from repro.obs.journal import Journal
from repro.scenario import context
from repro.sim import Simulator
from repro.sim.rng import RngStreams

Slot = Tuple[int, int]

#: Audit cadence in watchdog probes (a full audit is O(tenants)).
_AUDIT_EVERY = 100

#: Stop appending after this many violations (one is already a failed
#: run; an unbounded list only obscures the first cause).
_MAX_VIOLATIONS = 50


def _counter(name: str, help_: str, labels=()):
    return obs.REGISTRY.counter(name, help_, labels=labels)


def _gauge(name: str, help_: str):
    return obs.REGISTRY.gauge(name, help_)


class ControlPlane:
    """The resident orchestrator service (see module docstring)."""

    def __init__(self, plan: ChurnPlan, seed: int = 0,
                 sim: Optional[Simulator] = None) -> None:
        self.plan = plan
        self.sim = sim if sim is not None else Simulator()
        self.topology = FabricTopology(num_servers=plan.servers)
        self.rng = RngStreams(seed)
        self.records: Dict[int, TenantRecord] = {}
        #: tenant -> seat; committed at placement decision time (the
        #: seat is booked while the control ops run, so two in-flight
        #: placements can never race onto one seat).
        self.assignment: Dict[int, Slot] = {}
        self.occupants: Dict[Slot, List[int]] = {}
        self.comp_dedicated: Dict[Slot, bool] = {}
        self.open_slots: Set[Slot] = set()
        self.ready_at: Dict[Slot, float] = {}
        self.crashed: Dict[Slot, float] = {}
        self.detected: Set[Slot] = set()
        self.closing: Set[Slot] = set()
        self.admission = AdmissionController(
            self._pool_view, plan.tenants_per_compartment)
        self.autoscaler = PoolAutoscaler(
            plan.autoscale, max_pool_limit=plan.total_slots)
        self.log = Journal("controlplane", self.sim)
        self.violations: List[str] = []
        # SLO accumulators (sum/count pairs for the values dict).
        self._admission_lat = [0.0, 0]
        self._migration_down = [0.0, 0]
        self._detect_lat = [0.0, 0]
        self.counts: Dict[str, int] = {
            "arrivals": 0, "departures": 0, "evictions": 0,
            "rejections": 0, "placements": 0, "placement_retries": 0,
            "migrations_started": 0, "migrations_completed": 0,
            "crashes": 0, "crashes_skipped": 0, "detections": 0,
            "repairs": 0, "scale_ups": 0, "scale_downs": 0,
            "scale_suppressed": 0,
        }
        self.recovery_seconds_total = 0.0
        self._next_id = 0
        self._probes = 0
        self._recurring: List[object] = []
        self._horizon = plan.duration
        # The initial pool, striped across servers.
        size = min(self.autoscaler.min_pool, plan.total_slots)
        for i in range(size):
            self.open_slots.add((i % plan.servers, i // plan.servers))
        context.own(self)

    def release(self) -> None:
        """Free the service by reference counting: cancel its timers,
        drop the kernel's pending events and the admission controller's
        pool view, each bound to this service.  Read the values
        first."""
        for timer in self._recurring:
            timer.cancel()
        self._recurring = []
        self.admission._pool_view = None
        self.sim.release()

    # -- pool views -------------------------------------------------------

    def _healthy_open(self, now: Optional[float] = None) -> List[Slot]:
        now = self.sim.now if now is None else now
        return [s for s in sorted(self.open_slots)
                if s not in self.crashed and s not in self.closing
                and self.ready_at.get(s, 0.0) <= now]

    def _pool_view(self) -> Dict[Slot, Tuple[Optional[int], int]]:
        view: Dict[Slot, Tuple[Optional[int], int]] = {}
        for slot in self._healthy_open():
            residents = self.occupants.get(slot, [])
            if not residents:
                view[slot] = (None, 0)
            elif self.comp_dedicated.get(slot, False):
                # A dedicated seat fills its compartment for leasing.
                view[slot] = (self.records[residents[0]].req.group,
                              self.plan.tenants_per_compartment)
            else:
                view[slot] = (self.records[residents[0]].req.group,
                              len(residents))
        return view

    def _assigned_demand(self) -> float:
        return sum(self.records[t].req.demand_pps for t in self.assignment)

    # -- logging / accrual ------------------------------------------------

    def _healthy(self, slot: Optional[Slot]) -> bool:
        return slot is not None and slot not in self.crashed

    def _accrue(self, rec: TenantRecord) -> None:
        rec.accrue(self.sim.now, self._healthy(rec.slot))

    def _violate(self, message: str) -> None:
        if len(self.violations) < _MAX_VIOLATIONS:
            self.violations.append(message)
        _counter("controlplane_invariant_violations_total",
                 "Lifecycle invariant violations detected by the audit",
                 ).inc()
        self.log.record("violation", message=message)

    # -- seats ------------------------------------------------------------

    def _book_seat(self, tid: int, slot: Slot) -> None:
        self.assignment[tid] = slot
        self.occupants.setdefault(slot, []).append(tid)
        if self.records[tid].req.isolation >= 2:
            self.comp_dedicated[slot] = True
        self.records[tid].slot = slot

    def _free_seat(self, tid: int) -> None:
        slot = self.assignment.pop(tid, None)
        rec = self.records[tid]
        rec.slot = None
        if slot is None:
            return
        residents = self.occupants.get(slot, [])
        if tid in residents:
            residents.remove(tid)
        if not residents:
            self.occupants.pop(slot, None)
            self.comp_dedicated.pop(slot, None)
            if slot in self.closing:
                self._finish_close(slot)

    # -- arrivals ---------------------------------------------------------

    def _schedule_next_arrival(self) -> None:
        if self.plan.arrival_rate <= 0:
            return
        gap = self.rng.stream("cp.arrivals").expovariate(
            self.plan.arrival_rate)
        if self.sim.now + gap > self.plan.duration:
            return
        self.sim.call_later(gap, self._arrive)

    def _arrive(self) -> None:
        now = self.sim.now
        mix = self.rng.stream("cp.mix")
        from repro.fabric.placement import TenantReq
        tid = self._next_id
        self._next_id += 1
        group = mix.randrange(self.plan.num_groups)
        dedicated = mix.random() < self.plan.dedicated_fraction
        spread = self.plan.demand_spread
        demand = self.plan.demand_pps * (1.0 + spread * (2 * mix.random() - 1))
        lifetime = self.rng.stream("cp.lifetimes").expovariate(
            1.0 / self.plan.mean_lifetime)
        req = TenantReq(tid, demand_pps=demand, group=group,
                        isolation=2 if dedicated else 1)
        rec = TenantRecord(req, requested_at=now, lifetime=lifetime,
                           last_accrued=now)
        self.records[tid] = rec
        self.counts["arrivals"] += 1
        _counter("controlplane_arrivals_total",
                 "Tenant arrival requests").inc()
        self.log.record("arrival", tenant=tid, group=group,
                        isolation=req.isolation,
                        demand_pps=round(demand, 3))
        ok, reason = self.admission.try_admit(req, now)
        if not ok:
            rec.advance(TenantState.EVICTED, now, f"shed:{reason}")
            self.counts["rejections"] += 1
            _counter("controlplane_rejections_total",
                     "Arrivals shed by admission control",
                     labels=("reason",)).labels(reason=reason).inc()
            self.log.record("reject", tenant=tid, reason=reason)
        else:
            rec.advance(TenantState.ADMITTED, now, "lease-granted")
            self.sim.call_later(self.plan.admission.admit_latency,
                                self._begin_placing, tid, rec.epoch)
        self._schedule_next_arrival()

    def _begin_placing(self, tid: int, epoch: int) -> None:
        rec = self.records[tid]
        if rec.epoch != epoch or rec.state is not TenantState.ADMITTED:
            return
        rec.advance(TenantState.PLACING, self.sim.now, "lease-held")
        self._try_place(tid)

    def _placed_reqs(self, extra: Optional[int] = None) -> list:
        tids = sorted(self.assignment)
        if extra is not None and extra not in self.assignment:
            tids.append(extra)
        return [self.records[t].req for t in tids]

    def _try_place(self, tid: int) -> None:
        rec = self.records[tid]
        now = self.sim.now
        adm = self.plan.admission
        try:
            seat = incremental_place(
                self._placed_reqs(extra=tid),
                Placement(dict(self.assignment)),
                self.topology, self.plan.compartments_per_server,
                self.plan.tenants_per_compartment, [tid],
                open_slots=self._healthy_open())
        except PlacementError:
            rec.retries += 1
            self.counts["placement_retries"] += 1
            _counter("controlplane_placement_retries_total",
                     "Placement attempts that found no feasible slot").inc()
            if rec.retries > adm.max_retries:
                self.admission.release(tid)
                rec.advance(TenantState.EVICTED, now, "placement-failed")
                self._evicted(tid, "placement-failed")
                return
            delay = (adm.backoff_base
                     * adm.backoff_factor ** (rec.retries - 1))
            jitter = self.rng.stream("cp.backoff")
            delay *= 1.0 + adm.backoff_jitter * (2 * jitter.random() - 1)
            self.sim.call_later(delay, self._retry_place, tid, rec.epoch)
            return
        self._book_seat(tid, seat[tid])
        self.sim.call_later(adm.place_latency, self._activate, tid,
                            rec.epoch)

    def _retry_place(self, tid: int, epoch: int) -> None:
        rec = self.records[tid]
        if rec.epoch != epoch or rec.state is not TenantState.PLACING \
                or rec.slot is not None:
            return
        self._try_place(tid)

    def _activate(self, tid: int, epoch: int) -> None:
        rec = self.records[tid]
        if rec.epoch != epoch or rec.state is not TenantState.PLACING:
            return
        now = self.sim.now
        rec.advance(TenantState.ACTIVE, now, "placed")
        rec.last_accrued = now
        self.admission.release(tid)
        self.counts["placements"] += 1
        _counter("controlplane_placements_total",
                 "Tenants successfully placed and activated").inc()
        latency = now - rec.requested_at
        self._admission_lat[0] += latency
        self._admission_lat[1] += 1
        obs.REGISTRY.histogram(
            "controlplane_admission_latency_seconds",
            "Request-to-active latency").observe(latency)
        self.log.record("activate", tenant=tid,
                        slot=f"{rec.slot[0]}:{rec.slot[1]}",
                        latency=round(latency, 9))
        if not rec.departure_scheduled:
            rec.departure_scheduled = True
            self.sim.call_later(rec.lifetime, self._depart, tid)

    def _evicted(self, tid: int, reason: str) -> None:
        rec = self.records[tid]
        self._free_seat(tid)
        self.counts["evictions"] += 1
        _counter("controlplane_evictions_total",
                 "Tenants evicted (retries exhausted, no healthy slot)",
                 labels=("reason",)).labels(reason=reason).inc()
        self.log.record("evict", tenant=tid, reason=reason)

    # -- departures -------------------------------------------------------

    def _depart(self, tid: int) -> None:
        rec = self.records[tid]
        if rec.state in TERMINAL_STATES:
            return
        if rec.state not in (TenantState.ACTIVE, TenantState.DEGRADED,
                             TenantState.MIGRATING):
            return
        now = self.sim.now
        self._accrue(rec)
        rec.advance(TenantState.DRAINING, now, "departure")
        self.sim.call_later(self.plan.drain_latency, self._terminate,
                            tid, rec.epoch)

    def _terminate(self, tid: int, epoch: int) -> None:
        rec = self.records[tid]
        if rec.epoch != epoch or rec.state is not TenantState.DRAINING:
            return
        now = self.sim.now
        self._accrue(rec)
        rec.advance(TenantState.TERMINATED, now, "departed")
        self._free_seat(tid)
        self.counts["departures"] += 1
        _counter("controlplane_departures_total",
                 "Tenants that departed gracefully").inc()
        self.log.record("terminate", tenant=tid)

    # -- crashes / watchdog -----------------------------------------------

    def _resolve_crash_target(self, target: str) -> Optional[Slot]:
        healthy = self._healthy_open()
        if target != "auto":
            server, _, k = target.partition(":")
            slot = (int(server), int(k))
            return slot if slot in healthy else None
        loaded = sorted(
            healthy,
            key=lambda s: (-sum(self.records[t].req.demand_pps
                                for t in self.occupants.get(s, [])), s))
        return loaded[0] if loaded else None

    def _crash_event(self, spec: CrashSpec) -> None:
        slot = self._resolve_crash_target(spec.target)
        if slot is None:
            self.counts["crashes_skipped"] += 1
            self.log.record("crash-skipped", target=spec.target)
            return
        self._crash(slot, spec.repair_after)

    def _crash(self, slot: Slot, repair_after: Optional[float]) -> None:
        now = self.sim.now
        for tid in sorted(self.occupants.get(slot, [])):
            self._accrue(self.records[tid])
        self.crashed[slot] = now
        self.counts["crashes"] += 1
        _counter("controlplane_crashes_total",
                 "Compartment crashes injected").inc()
        self.log.record("crash", slot=f"{slot[0]}:{slot[1]}",
                        residents=len(self.occupants.get(slot, [])))
        if repair_after is not None:
            self.sim.call_later(repair_after, self._repair, slot)

    def _next_stochastic_crash(self) -> None:
        if self.plan.crash_mtbf is None:
            return
        gap = self.rng.stream("cp.crashes").expovariate(
            1.0 / self.plan.crash_mtbf)
        if self.sim.now + gap > self.plan.duration:
            return
        self.sim.call_later(gap, self._stochastic_crash)

    def _stochastic_crash(self) -> None:
        repair = None
        if self.plan.crash_mttr is not None:
            repair = self.rng.stream("cp.repairs").expovariate(
                1.0 / self.plan.crash_mttr)
        self._crash_event(CrashSpec(at=self.sim.now, target="auto",
                                    repair_after=repair))
        self._next_stochastic_crash()

    def _repair(self, slot: Slot) -> None:
        if slot not in self.crashed:
            return
        now = self.sim.now
        for tid in sorted(self.occupants.get(slot, [])):
            self._accrue(self.records[tid])
        del self.crashed[slot]
        self.detected.discard(slot)
        self.counts["repairs"] += 1
        _counter("controlplane_repairs_total",
                 "Compartments repaired (scripted or stochastic)").inc()
        self.log.record("repair", slot=f"{slot[0]}:{slot[1]}")
        # Residents the watchdog degraded but migration had not yet
        # rescued come straight back.
        for tid in sorted(self.occupants.get(slot, [])):
            rec = self.records[tid]
            if rec.state is TenantState.DEGRADED:
                rec.advance(TenantState.ACTIVE, now, "compartment-repaired")

    def _probe(self) -> None:
        now = self.sim.now
        for slot in sorted(self.crashed):
            if slot in self.detected:
                continue
            self.detected.add(slot)
            latency = now - self.crashed[slot]
            self.counts["detections"] += 1
            _counter("controlplane_detections_total",
                     "Watchdog detections of crashed compartments").inc()
            self._detect_lat[0] += latency
            self._detect_lat[1] += 1
            obs.REGISTRY.histogram(
                "controlplane_detect_latency_seconds",
                "Crash-to-detection latency").observe(latency)
            self.log.record("detect", slot=f"{slot[0]}:{slot[1]}",
                            latency=round(latency, 9))
            if self.occupants.get(slot):
                self._boot_replacement(slot)
            for tid in sorted(self.occupants.get(slot, [])):
                rec = self.records[tid]
                if rec.state is TenantState.ACTIVE:
                    self._accrue(rec)
                    rec.advance(TenantState.DEGRADED, now,
                                "compartment-failed")
                    self._start_migration(tid, "failover")
        self._probes += 1
        if self._probes % _AUDIT_EVERY == 0:
            self.audit()

    def _boot_replacement(self, crashed_slot: Slot) -> None:
        """Failover capacity: the pool lost a member with residents
        aboard, so boot a replacement *now* -- the migration retry
        budget is milliseconds (supervisor backoff) while the PID loop
        reacts in seconds, and self-healing must not lose that race.
        The boot/re-sync cost is billed to the crashed compartment's
        residents, per its recovery policy."""
        replacement = self._pick_open_slot()
        if replacement is None:
            return
        now = self.sim.now
        self.open_slots.add(replacement)
        self.ready_at[replacement] = \
            now + self.plan.autoscale.boot_resync_seconds
        self.counts["scale_ups"] += 1
        _counter("controlplane_scale_events_total",
                 "Autoscaler pool changes", labels=("direction",)
                 ).labels(direction="up").inc()
        residents = sorted(self.occupants.get(crashed_slot, []))
        share = self.plan.autoscale.boot_resync_seconds / len(residents)
        for tid in residents:
            self.records[tid].recovery_seconds += share
            self.recovery_seconds_total += share
        self.log.record("failover-boot",
                        slot=f"{replacement[0]}:{replacement[1]}",
                        crashed=f"{crashed_slot[0]}:{crashed_slot[1]}")

    # -- migration --------------------------------------------------------

    def _start_migration(self, tid: int, reason: str) -> None:
        """Re-place ``tid`` on a healthy compartment and start the
        migration window; backs off and retries (bounded by the
        supervisor restart budget) when no slot is feasible."""
        rec = self.records[tid]
        now = self.sim.now
        try:
            seat = incremental_place(
                self._placed_reqs(extra=tid),
                Placement(dict(self.assignment)),
                self.topology, self.plan.compartments_per_server,
                self.plan.tenants_per_compartment, [tid],
                open_slots=self._healthy_open())
        except PlacementError:
            rec.migration_retries += 1
            if rec.migration_retries > self.plan.policy.max_restarts:
                self._accrue(rec)
                rec.advance(TenantState.EVICTED, now, "no-healthy-slot")
                self._evicted(tid, "no-healthy-slot")
                return
            policy = self.plan.policy
            delay = (policy.backoff_base
                     * policy.backoff_factor ** (rec.migration_retries - 1))
            jitter = self.rng.stream("cp.migrate-backoff")
            delay *= 1.0 + policy.backoff_jitter * (2 * jitter.random() - 1)
            self.sim.call_later(delay, self._retry_migration, tid,
                                rec.epoch, reason)
            return
        src = rec.slot
        self._accrue(rec)
        self._free_seat(tid)
        self._book_seat(tid, seat[tid])
        rec.advance(TenantState.MIGRATING, now, reason)
        rec.migrations_started += 1
        rec.migrate_started_at = now
        self.counts["migrations_started"] += 1
        _counter("controlplane_migrations_total",
                 "Live migrations started", labels=("reason",)
                 ).labels(reason=reason).inc()
        resync = self.plan.migration_resync_seconds()
        rec.recovery_seconds += resync
        self.recovery_seconds_total += resync
        self.log.record("migrate", tenant=tid, reason=reason,
                        src=f"{src[0]}:{src[1]}" if src else "none",
                        dst=f"{seat[tid][0]}:{seat[tid][1]}")
        self.sim.call_later(self.plan.migration_downtime(),
                            self._complete_migration, tid, rec.epoch)

    def _retry_migration(self, tid: int, epoch: int, reason: str) -> None:
        rec = self.records[tid]
        if rec.epoch != epoch or rec.state is not TenantState.DEGRADED:
            return
        self._start_migration(tid, reason)

    def _complete_migration(self, tid: int, epoch: int) -> None:
        rec = self.records[tid]
        if rec.epoch != epoch or rec.state is not TenantState.MIGRATING:
            return
        now = self.sim.now
        self._accrue(rec)
        rec.advance(TenantState.ACTIVE, now, "migrated")
        rec.migrations_completed += 1
        rec.migration_retries = 0
        rec.delivered_since_migration = 0.0
        rec.healthy_since_migration = 0.0
        downtime = now - (rec.migrate_started_at or now)
        self._migration_down[0] += downtime
        self._migration_down[1] += 1
        obs.REGISTRY.histogram(
            "controlplane_migration_downtime_seconds",
            "Per-tenant live-migration downtime").observe(downtime)
        self.counts["migrations_completed"] += 1
        _counter("controlplane_migrations_completed_total",
                 "Live migrations that completed").inc()
        self.log.record("migrated", tenant=tid,
                        slot=f"{rec.slot[0]}:{rec.slot[1]}",
                        downtime=round(downtime, 9))

    # -- autoscaler -------------------------------------------------------

    def _pool_size(self) -> int:
        """Open, un-crashed, not-closing compartments (booting count:
        capacity is committed even before the boot finishes)."""
        return len([s for s in self.open_slots
                    if s not in self.crashed and s not in self.closing])

    def _pick_open_slot(self) -> Optional[Slot]:
        per_server: Dict[int, int] = {}
        for s, _k in self.open_slots:
            per_server[s] = per_server.get(s, 0) + 1
        candidates = [
            (s, k) for s in range(self.plan.servers)
            for k in range(self.plan.compartments_per_server)
            if (s, k) not in self.open_slots]
        candidates.sort(key=lambda sk: (per_server.get(sk[0], 0), sk))
        return candidates[0] if candidates else None

    def _charge_autoscale(self, cost: float) -> None:
        """Bill a scale-up's boot/re-sync to the tenants of the hottest
        compartment -- the overload that triggered the growth."""
        loaded = sorted(
            ((sum(self.records[t].req.demand_pps for t in residents),
              slot, residents)
             for slot, residents in self.occupants.items() if residents),
            key=lambda e: (-e[0], e[1]))
        if not loaded:
            return
        _demand, _slot, residents = loaded[0]
        share = cost / len(residents)
        for tid in sorted(residents):
            self.records[tid].recovery_seconds += share
            self.recovery_seconds_total += share

    def _autoscale_tick(self) -> None:
        now = self.sim.now
        # Compartment load is whichever binds first: forwarding demand
        # or seat occupancy (expressed in capacity-equivalent pps, so
        # a seat-full pool at low pps still reads as loaded and the
        # autoscaler grows it instead of admission shedding forever).
        seat_equiv = (len(self.assignment)
                      / self.plan.tenants_per_compartment
                      * self.plan.autoscale.compartment_capacity_pps)
        demand = max(self._assigned_demand(), seat_equiv)
        pool = self._pool_size()
        decision = self.autoscaler.decide(now, demand, pool)
        _gauge("controlplane_pool_size",
               "Open vswitch-VM compartments").set(float(pool))
        _gauge("controlplane_pool_utilization",
               "Pool utilization against modeled capacity"
               ).set(decision.utilization)
        if decision.suppressed and decision.suppressed != "deadband":
            self.counts["scale_suppressed"] += 1
        if decision.delta > 0:
            for _ in range(decision.delta):
                slot = self._pick_open_slot()
                if slot is None:
                    break
                self.open_slots.add(slot)
                self.ready_at[slot] = now + \
                    self.plan.autoscale.boot_resync_seconds
                self.counts["scale_ups"] += 1
                _counter("controlplane_scale_events_total",
                         "Autoscaler pool changes", labels=("direction",)
                         ).labels(direction="up").inc()
                self._charge_autoscale(
                    self.plan.autoscale.boot_resync_seconds)
                self.log.record("scale-up", slot=f"{slot[0]}:{slot[1]}",
                                utilization=round(decision.utilization, 6))
        elif decision.delta < 0:
            for _ in range(-decision.delta):
                self._scale_down_one(decision.utilization)

    def _scale_down_one(self, utilization: float) -> None:
        now = self.sim.now
        candidates = sorted(
            self._healthy_open(),
            key=lambda s: (len(self.occupants.get(s, [])),
                           sum(self.records[t].req.demand_pps
                               for t in self.occupants.get(s, [])), s))
        if not candidates:
            return
        slot = candidates[0]
        residents = list(self.occupants.get(slot, []))
        if not residents:
            self.open_slots.discard(slot)
            self.ready_at.pop(slot, None)
            self.counts["scale_downs"] += 1
            _counter("controlplane_scale_events_total",
                     "Autoscaler pool changes", labels=("direction",)
                     ).labels(direction="down").inc()
            self.log.record("scale-down", slot=f"{slot[0]}:{slot[1]}",
                            utilization=round(utilization, 6))
            return
        # Drain-and-close: only if every resident has a feasible seat
        # elsewhere right now (a scale-down must never evict).
        movable = [t for t in residents
                   if self.records[t].state is TenantState.ACTIVE]
        if len(movable) != len(residents):
            return
        pool = [s for s in self._healthy_open() if s != slot]
        try:
            incremental_place(
                self._placed_reqs(), Placement(dict(self.assignment)),
                self.topology, self.plan.compartments_per_server,
                self.plan.tenants_per_compartment, movable,
                open_slots=pool)
        except PlacementError:
            return
        self.closing.add(slot)
        self.log.record("closing", slot=f"{slot[0]}:{slot[1]}",
                        residents=len(residents))
        for tid in sorted(movable):
            self._start_migration(tid, "scale-down")

    def _finish_close(self, slot: Slot) -> None:
        self.closing.discard(slot)
        self.open_slots.discard(slot)
        self.ready_at.pop(slot, None)
        self.counts["scale_downs"] += 1
        _counter("controlplane_scale_events_total",
                 "Autoscaler pool changes", labels=("direction",)
                 ).labels(direction="down").inc()
        self.log.record("scale-down", slot=f"{slot[0]}:{slot[1]}")

    # -- audit ------------------------------------------------------------

    def audit(self) -> List[str]:
        """Check every lifecycle invariant; appends to ``violations``."""
        now = self.sim.now
        before = len(self.violations)
        live = 0
        terminal = 0
        for tid in self.records:
            rec = self.records[tid]
            if rec.state in TERMINAL_STATES:
                terminal += 1
                if tid in self.assignment:
                    self._violate(f"terminal tenant {tid} still seated")
            else:
                live += 1
            in_placed = rec.state in PLACED_STATES
            booked = tid in self.assignment
            if in_placed and not booked:
                self._violate(
                    f"tenant {tid} {rec.state.value} without a seat")
            if booked and not in_placed \
                    and rec.state is not TenantState.PLACING:
                self._violate(
                    f"tenant {tid} seated while {rec.state.value}")
            if booked and rec.slot != self.assignment[tid]:
                self._violate(f"tenant {tid} slot/assignment disagree")
            if rec.conservation_error() > 1e-6:
                self._violate(
                    f"tenant {tid} packet conservation broken "
                    f"(err={rec.conservation_error():.3e})")
            if rec.retries > self.plan.admission.max_retries + 1:
                self._violate(f"tenant {tid} exceeded placement budget")
            if rec.migration_retries > self.plan.policy.max_restarts + 1:
                self._violate(f"tenant {tid} exceeded migration budget")
            if rec.state is TenantState.ACTIVE and rec.slot is not None \
                    and rec.slot in self.crashed \
                    and rec.slot in self.detected:
                self._violate(
                    f"tenant {tid} ACTIVE on detected-crashed "
                    f"{rec.slot}")
        if live + terminal != len(self.records) \
                or len(self.records) != self.counts["arrivals"]:
            self._violate("tenant bookkeeping lost a record")
        # Occupancy rebuilt from the assignment must match the books
        # (no double placement, no phantom seats).
        rebuilt: Dict[Slot, List[int]] = {}
        for tid in sorted(self.assignment):
            rebuilt.setdefault(self.assignment[tid], []).append(tid)
        books = {s: sorted(r) for s, r in self.occupants.items() if r}
        if {s: sorted(r) for s, r in rebuilt.items()} != books:
            self._violate("occupancy books disagree with assignment")
        for slot, crashed_at in self.crashed.items():
            if slot not in self.detected \
                    and now - crashed_at > 2 * self.plan.heartbeat:
                self._violate(f"crash at {slot} undetected after "
                              f"{now - crashed_at:.3f}s")
        leased = self.admission.outstanding()
        holders = sum(1 for r in self.records.values()
                      if r.state in (TenantState.ADMITTED,
                                     TenantState.PLACING))
        if leased != holders:
            self._violate(
                f"lease table ({leased}) disagrees with "
                f"ADMITTED/PLACING tenants ({holders})")
        if self.assignment:
            try:
                validate_placement(
                    self._placed_reqs(),
                    Placement(dict(self.assignment)), self.topology,
                    self.plan.compartments_per_server,
                    self.plan.tenants_per_compartment)
            except PlacementError as exc:
                self._violate(f"security validation failed: {exc}")
        return self.violations[before:]

    # -- driving ----------------------------------------------------------

    def start(self, horizon: Optional[float] = None) -> None:
        """Schedule the service's event sources on the simulator; the
        caller (or :meth:`run`) drives the clock."""
        self._horizon = self.plan.duration if horizon is None else horizon
        self._schedule_next_arrival()
        for crash in self.plan.crashes:
            self.sim.schedule(self.sim.now + crash.at, self._crash_event,
                              crash)
        self._next_stochastic_crash()
        self._recurring.append(
            self.sim.every(self.plan.heartbeat, self._probe,
                           until=self.sim.now + self._horizon))
        if self.plan.autoscale.enabled:
            self._recurring.append(
                self.sim.every(self.plan.autoscale.interval,
                               self._autoscale_tick,
                               until=self.sim.now + self._horizon))

    def finish(self) -> Dict[str, float]:
        """Final accrual + audit; returns the flat values dict."""
        for ev in self._recurring:
            ev.cancel()
        self._recurring.clear()
        for tid in sorted(self.records):
            rec = self.records[tid]
            if rec.state not in TERMINAL_STATES:
                self._accrue(rec)
        self.audit()
        return self._values()

    def run(self, settle: float = 2.0) -> Dict[str, float]:
        """Standalone drive: start, run the clock for the plan duration
        plus ``settle`` (lets in-flight drains/migrations land), audit."""
        self.start(horizon=self.plan.duration + settle)
        self.sim.run(until=self.sim.now + self.plan.duration + settle)
        return self.finish()

    def _values(self) -> Dict[str, float]:
        offered = sum(r.offered for r in self.records.values())
        delivered = sum(r.delivered for r in self.records.values())
        dropped = sum(r.dropped for r in self.records.values())
        migrated = [r for r in self.records.values()
                    if r.migrations_completed > 0]
        resumed = [r for r in migrated
                   if r.healthy_since_migration <= 0.0
                   or r.delivered_since_migration > 0.0]
        transitions = sum(len(r.history) for r in self.records.values())
        values = {
            "active_final": float(sum(
                1 for r in self.records.values()
                if r.state is TenantState.ACTIVE)),
            "admission_latency_mean": (
                self._admission_lat[0] / self._admission_lat[1]
                if self._admission_lat[1] else 0.0),
            "availability": delivered / offered if offered else 1.0,
            "breaker_trips": float(self.autoscaler.breaker_trips),
            "delivered_pkts": delivered,
            "detect_latency_mean": (
                self._detect_lat[0] / self._detect_lat[1]
                if self._detect_lat[1] else 0.0),
            "dropped_pkts": dropped,
            "live_final": float(sum(
                1 for r in self.records.values()
                if r.state not in TERMINAL_STATES)),
            "migration_downtime_mean": (
                self._migration_down[0] / self._migration_down[1]
                if self._migration_down[1] else 0.0),
            "migration_resumed_fraction": (
                len(resumed) / len(migrated) if migrated else 1.0),
            "offered_pkts": offered,
            "pool_final": float(self._pool_size()),
            "recovery_seconds_total": self.recovery_seconds_total,
            "transitions_total": float(transitions),
            "violations": float(len(self.violations)),
        }
        for name, count in self.counts.items():
            values[name] = float(count)
        return values

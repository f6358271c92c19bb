"""The resident control plane: state machine, admission, autoscaling,
self-healing migration, invariants, backend identity, billing."""

import itertools
import json
import random

import pytest

from repro.controlplane import (
    AdmissionPolicySpec,
    AutoscalePolicySpec,
    ChurnPlan,
    ControlPlane,
    CrashSpec,
    LifecycleError,
    TenantRecord,
    TenantState,
    TRANSITIONS,
)
from repro.controlplane.autoscaler import PoolAutoscaler
from repro.controlplane.lifecycle import PLACED_STATES, TERMINAL_STATES
from repro.errors import ValidationError
from repro.fabric.placement import (
    Placement,
    PlacementError,
    TenantReq,
    incremental_place,
    validate_placement,
)
from repro.fabric.topology import FabricTopology


def _record(state: TenantState) -> TenantRecord:
    rec = TenantRecord(TenantReq(0, demand_pps=1000.0), requested_at=0.0,
                       lifetime=10.0)
    rec.state = state
    return rec


class TestTransitionMatrix:
    """Exhaustive legal/illegal matrix over every (src, dst) pair."""

    @pytest.mark.parametrize(
        "src,dst", list(itertools.product(TenantState, TenantState)))
    def test_every_pair(self, src, dst):
        rec = _record(src)
        if dst in TRANSITIONS[src]:
            rec.advance(dst, now=1.0, reason="matrix")
            assert rec.state is dst
            assert rec.history[-1][1:3] == (src.value, dst.value)
        else:
            with pytest.raises(LifecycleError):
                rec.advance(dst, now=1.0, reason="matrix")
            assert rec.state is src  # unchanged on rejection

    def test_terminal_states_have_no_exits(self):
        for state in TERMINAL_STATES:
            assert not TRANSITIONS[state]
        assert TERMINAL_STATES == {TenantState.TERMINATED,
                                   TenantState.EVICTED}

    def test_every_state_reachable(self):
        reachable = {TenantState.REQUESTED}
        frontier = [TenantState.REQUESTED]
        while frontier:
            nxt = TRANSITIONS[frontier.pop()]
            fresh = nxt - reachable
            reachable |= fresh
            frontier.extend(fresh)
        assert reachable == set(TenantState)

    def test_epoch_bumps_and_terminal_stamp(self):
        rec = _record(TenantState.REQUESTED)
        rec.advance(TenantState.ADMITTED, 1.0)
        rec.advance(TenantState.PLACING, 2.0)
        rec.advance(TenantState.EVICTED, 3.0)
        assert rec.epoch == 3
        assert rec.ended_at == 3.0

    def test_conservation_accrual(self):
        rec = _record(TenantState.ACTIVE)
        rec.slot = (0, 0)
        rec.last_accrued = 0.0
        rec.accrue(2.0, healthy=True)
        rec.accrue(3.0, healthy=False)  # crashed span drops
        assert rec.offered == pytest.approx(3000.0)
        assert rec.delivered == pytest.approx(2000.0)
        assert rec.dropped == pytest.approx(1000.0)
        assert rec.conservation_error() < 1e-12


class TestPlanRoundTrip:
    def test_json_round_trip(self):
        plan = ChurnPlan(duration=30.0, arrival_rate=1.5,
                         crashes=(CrashSpec(at=10.0, repair_after=5.0),),
                         crash_mtbf=40.0, crash_mttr=6.0)
        again = ChurnPlan.from_json(plan.to_json())
        assert again == plan
        assert again.to_json() == plan.to_json()

    def test_unknown_fields_rejected(self):
        data = json.loads(ChurnPlan().to_json())
        data["bogus"] = 1
        with pytest.raises(ValidationError):
            ChurnPlan.from_dict(data)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ChurnPlan(duration=0.0)
        with pytest.raises(ValidationError):
            AdmissionPolicySpec(backoff_jitter=1.5)
        with pytest.raises(ValidationError):
            AutoscalePolicySpec(target_utilization=1.5)
        with pytest.raises(ValidationError):
            CrashSpec(at=-1.0)

    def test_migration_cost_model(self):
        plan = ChurnPlan(rules_per_tenant=10, arp_entries_per_tenant=5)
        resync = (10 * plan.policy.resync_per_rule
                  + 5 * plan.policy.arp_relearn_per_entry)
        assert plan.migration_resync_seconds() == pytest.approx(resync)
        assert plan.migration_downtime() == pytest.approx(
            plan.drain_latency + plan.policy.failover_latency + resync)

    def test_plan_param_changes_spec_hash(self):
        from repro.controlplane.workload import scenario
        a = scenario(ChurnPlan(duration=30.0), seed=0)
        b = scenario(ChurnPlan(duration=31.0), seed=0)
        assert a.content_hash() != b.content_hash()


class TestIncrementalPlace:
    def test_residents_keep_their_seats(self):
        topo = FabricTopology(num_servers=2)
        reqs = [TenantReq(t, demand_pps=1000.0, group=t % 2)
                for t in range(6)]
        placement = Placement({t: (t % 2, 0) for t in range(4)})
        seats = incremental_place(reqs, placement, topo, 2, 4, [4, 5])
        assert set(seats) == {4, 5}
        combined = dict(placement.assignment)
        combined.update(seats)
        validate_placement(reqs, Placement(combined), topo, 2, 4)

    def test_raises_when_pool_exhausted(self):
        topo = FabricTopology(num_servers=1)
        reqs = [TenantReq(t, demand_pps=1.0, group=0) for t in range(3)]
        placement = Placement({0: (0, 0), 1: (0, 0)})
        with pytest.raises(PlacementError):
            incremental_place(reqs, placement, topo, 1, 2, [2],
                              open_slots=[(0, 0)])


class TestAutoscaler:
    SPEC = AutoscalePolicySpec(interval=1.0, cooldown=0.0, deadband=0.05,
                               min_pool=1, storm_threshold=100)

    def test_grows_under_load(self):
        scaler = PoolAutoscaler(self.SPEC, max_pool_limit=16)
        demand = 8 * self.SPEC.compartment_capacity_pps * 0.9
        decision = scaler.decide(0.0, demand, pool_size=2)
        assert decision.delta > 0

    def test_deadband_holds(self):
        scaler = PoolAutoscaler(self.SPEC, max_pool_limit=16)
        demand = 4 * self.SPEC.compartment_capacity_pps * \
            self.SPEC.target_utilization
        decision = scaler.decide(0.0, demand, pool_size=4)
        assert decision.delta == 0
        assert decision.suppressed == "deadband"

    def test_cooldown_suppresses(self):
        spec = AutoscalePolicySpec(interval=1.0, cooldown=10.0,
                                   deadband=0.01, min_pool=1,
                                   storm_threshold=100)
        scaler = PoolAutoscaler(spec, max_pool_limit=16)
        heavy = 8 * spec.compartment_capacity_pps
        first = scaler.decide(0.0, heavy, pool_size=2)
        assert first.delta > 0
        second = scaler.decide(1.0, heavy, pool_size=2 + first.delta)
        assert second.delta == 0
        assert second.suppressed in ("cooldown", "deadband")

    def test_storm_breaker_opens(self):
        spec = AutoscalePolicySpec(interval=1.0, cooldown=0.0,
                                   deadband=0.01, min_pool=1,
                                   storm_threshold=3, storm_window=100.0,
                                   storm_hold=50.0)
        scaler = PoolAutoscaler(spec, max_pool_limit=64)
        heavy = 32 * spec.compartment_capacity_pps
        now, pool = 0.0, 2
        while not scaler.breaker_open(now):
            decision = scaler.decide(now, heavy, pool)
            pool = max(1, pool + decision.delta - 2)  # fight the scaler
            now += 1.0
            assert now < 50.0, "breaker never opened"
        assert scaler.breaker_trips == 1
        frozen = scaler.decide(now, heavy, pool)
        assert frozen.delta == 0 and frozen.suppressed == "breaker"

    def test_clamps_to_bounds(self):
        scaler = PoolAutoscaler(self.SPEC, max_pool_limit=4)
        huge = 100 * self.SPEC.compartment_capacity_pps
        decision = scaler.decide(0.0, huge, pool_size=4)
        assert decision.delta == 0
        assert decision.suppressed == "at-max"


def _fuzz_plan(seed: int) -> ChurnPlan:
    """A randomized-but-deterministic 5-way campaign: arrivals x
    departures x crashes x autoscale x migration, shaped by ``seed``."""
    rng = random.Random(seed)
    crashes = tuple(
        CrashSpec(at=rng.uniform(5.0, 55.0), target="auto",
                  repair_after=rng.choice([None, rng.uniform(3.0, 10.0)]))
        for _ in range(rng.randint(1, 4)))
    return ChurnPlan(
        duration=60.0,
        arrival_rate=rng.uniform(0.5, 3.0),
        mean_lifetime=rng.uniform(10.0, 60.0),
        demand_pps=rng.uniform(5_000.0, 40_000.0),
        dedicated_fraction=rng.choice([0.0, 0.1, 0.3]),
        num_groups=rng.randint(2, 6),
        servers=rng.randint(2, 4),
        compartments_per_server=rng.randint(2, 4),
        tenants_per_compartment=rng.choice([4, 8]),
        crashes=crashes,
        crash_mtbf=rng.choice([None, rng.uniform(20.0, 60.0)]),
        crash_mttr=rng.uniform(4.0, 12.0),
        autoscale=AutoscalePolicySpec(
            interval=rng.uniform(0.5, 2.0),
            cooldown=rng.uniform(0.0, 3.0),
            min_pool=rng.randint(1, 3)),
    )


class TestChurnInvariants:
    """Seeded randomized fuzz: no run may violate a lifecycle invariant."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fuzzed_campaigns_hold_invariants(self, seed):
        plan = _fuzz_plan(seed)
        service = ControlPlane(plan, seed=seed)
        values = service.run()
        assert values["violations"] == 0.0, service.violations[:5]
        # No tenant lost: every arrival is live or terminal, exactly once.
        records = service.records
        assert len(records) == values["arrivals"]
        live = [r for r in records.values()
                if r.state not in TERMINAL_STATES]
        assert len(live) == values["live_final"]
        # No double placement: the books rebuild exactly.
        seats = {}
        for tid, rec in records.items():
            if rec.state in PLACED_STATES:
                assert rec.slot is not None
                seats.setdefault(rec.slot, []).append(tid)
        for slot, tids in seats.items():
            assert sorted(tids) == sorted(service.occupants[slot])
        # Budgets respected.
        for rec in records.values():
            assert rec.retries <= plan.admission.max_retries + 1
            assert rec.migration_retries <= plan.policy.max_restarts + 1
        # Packet conservation per tenant.
        for rec in records.values():
            assert rec.conservation_error() < 1e-6

    def test_runs_are_deterministic(self):
        plan = _fuzz_plan(3)
        a = ControlPlane(plan, seed=11).run()
        b = ControlPlane(plan, seed=11).run()
        assert a == b
        c = ControlPlane(plan, seed=12).run()
        assert c != a

    def test_load_shedding_rejects_instead_of_wedging(self):
        plan = ChurnPlan(duration=20.0, arrival_rate=10.0,
                         mean_lifetime=1000.0, servers=1,
                         compartments_per_server=2,
                         tenants_per_compartment=2,
                         autoscale=AutoscalePolicySpec(enabled=False,
                                                       min_pool=2))
        service = ControlPlane(plan, seed=0)
        values = service.run()
        assert values["violations"] == 0.0, service.violations[:5]
        assert values["rejections"] > 0  # shed, not wedged
        assert values["active_final"] <= 4  # capacity respected
        kinds = {e["kind"] for e in service.log.events}
        assert "reject" in kinds


class TestSelfHealing:
    def test_crash_triggers_detection_and_migration(self):
        plan = ChurnPlan(duration=40.0, arrival_rate=2.0,
                         mean_lifetime=100.0,
                         crashes=(CrashSpec(at=20.0),))
        service = ControlPlane(plan, seed=5)
        values = service.run()
        assert values["violations"] == 0.0, service.violations[:5]
        assert values["crashes"] == 1.0
        assert values["detections"] == 1.0
        assert values["migrations_completed"] >= 1.0
        assert values["migration_resumed_fraction"] == 1.0
        # Detection is bounded by the heartbeat.
        assert values["detect_latency_mean"] <= 2 * plan.heartbeat

    def test_migrated_tenants_resume_forwarding(self):
        plan = ChurnPlan(duration=60.0, arrival_rate=1.0,
                         mean_lifetime=200.0,
                         crashes=(CrashSpec(at=20.0),
                                  CrashSpec(at=35.0)))
        service = ControlPlane(plan, seed=9)
        values = service.run()
        assert values["violations"] == 0.0
        migrated = [r for r in service.records.values()
                    if r.migrations_completed > 0]
        assert migrated
        for rec in migrated:
            if rec.healthy_since_migration > 0:
                assert rec.delivered_since_migration > 0

    def test_recovery_work_is_charged(self):
        plan = ChurnPlan(duration=40.0, arrival_rate=2.0,
                         mean_lifetime=100.0,
                         crashes=(CrashSpec(at=20.0),))
        service = ControlPlane(plan, seed=5)
        service.run()
        payers = [r for r in service.records.values()
                  if r.recovery_seconds > 0]
        assert payers
        billed = sum(r.recovery_seconds for r in service.records.values())
        assert billed == pytest.approx(service.recovery_seconds_total)


class TestAcceptance:
    """The issue's churn acceptance: a 10-minute sim-time run with
    hundreds of lifecycle events, crashes and an active autoscaler
    completes with zero invariant violations and full recovery."""

    def test_ten_minute_churn(self):
        plan = ChurnPlan(
            duration=600.0, arrival_rate=0.6, mean_lifetime=120.0,
            crashes=tuple(CrashSpec(at=80.0 * (i + 1), target="auto",
                                    repair_after=20.0)
                          for i in range(6)))
        service = ControlPlane(plan, seed=1)
        values = service.run()
        lifecycle_events = values["arrivals"] + values["departures"]
        assert lifecycle_events >= 200
        assert values["crashes"] >= 5
        assert values["scale_ups"] + values["scale_downs"] > 0
        assert values["violations"] == 0.0, service.violations[:5]
        assert values["migrations_completed"] >= 1
        assert values["migration_resumed_fraction"] == 1.0
        assert values["evictions"] == 0.0
        assert 0.97 <= values["availability"] <= 1.0
        # The final audit itself ran clean on the full state.
        assert service.audit() == []


class TestBackendIdentity:
    def test_sequential_and_pool_byte_identical(self):
        from repro.controlplane.workload import default_plan, scenario
        from repro.scenario import (Engine, ProcessPoolBackend,
                                    SequentialBackend)
        specs = [scenario(default_plan(duration=20.0), seed=s,
                          label=f"churn-{s}") for s in (0, 1)]
        seq = Engine(backend=SequentialBackend()).run(specs)
        pool_backend = ProcessPoolBackend(max_workers=2)
        try:
            pool = Engine(backend=pool_backend).run(specs)
        finally:
            pool_backend.close()
        assert [r.result_hash() for r in seq] == \
            [r.result_hash() for r in pool]
        assert [r.values for r in seq] == [r.values for r in pool]

    def test_results_cache(self, tmp_path):
        from repro.controlplane.workload import default_plan, scenario
        from repro.scenario import Engine, ResultStore
        spec = scenario(default_plan(duration=15.0), seed=3)
        store = ResultStore(str(tmp_path))
        first = Engine(store=store).run([spec])
        second = Engine(store=store).run([spec])
        assert not first[0].cached and second[0].cached
        assert first[0].result_hash() == second[0].result_hash()


class TestChurnBilling:
    def test_metered_churn_reconciles(self):
        from repro.billing.invoice import invoices_from_records
        from repro.billing.meter import UsageRecord
        from repro.controlplane.workload import default_plan, scenario
        from repro.scenario import Engine
        spec = scenario(default_plan(duration=30.0), seed=0,
                        metering=True)
        result = Engine().run([spec])[0]
        records = [UsageRecord.from_dict(u) for u in result.usage
                   if u.get("kind") == "usage"]
        summaries = [u for u in result.usage if u.get("kind") == "summary"]
        assert records and len(summaries) == 1
        summary = summaries[0]
        assert summary["reconciled"], summary["failures"]
        # Migration/autoscale re-sync appears as recovery line items.
        assert summary["fault_seconds_total"] == pytest.approx(
            result.values["recovery_seconds_total"])
        payers = {int(t) for t in summary["fault_payers"]}
        assert payers
        invoices = {inv.tenant_id: inv for inv in
                    invoices_from_records(records)}
        for tenant in payers:
            items = {li.kind for li in invoices[tenant].items}
            assert "fault_recovery" in items

    def test_unmetered_churn_publishes_nothing(self):
        from repro.controlplane.workload import default_plan, scenario
        from repro.scenario import Engine
        spec = scenario(default_plan(duration=15.0), seed=0)
        result = Engine().run([spec])[0]
        assert result.usage == []
        assert result.events  # the lifecycle log still ships


class TestServeCli:
    def test_serve_check_passes(self, capsys):
        from repro.cli import main
        rc = main(["serve", "--duration", "20", "--no-cache", "--check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Tenant lifecycle" in out
        assert "Self-healing and autoscaling" in out

    def test_serve_events_out(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "events.jsonl"
        rc = main(["serve", "--duration", "15", "--no-cache",
                   "--events-out", str(path)])
        assert rc == 0
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        assert lines
        kinds = {e["kind"] for e in lines}
        assert "arrival" in kinds and "activate" in kinds

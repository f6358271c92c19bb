"""Chaos layer: fault plans, injection, self-healing, invariants."""

import json
import random

import pytest

from repro import obs
from repro.core import TrafficScenario, build_deployment
from repro.core.levels import ResourceMode, SecurityLevel
from repro.core.orchestrator import crash_bridge, restore_bridge
from repro.core.spec import DeploymentSpec
from repro.errors import ConfigurationError, ValidationError
from repro.faults import FaultKind, FaultPlan, FaultSpec, RestartPolicySpec, scripted_crash
from repro.faults.session import ChaosSession
from repro.scenario import (
    Engine,
    ProcessPoolBackend,
    ResultStore,
    ScenarioSpec,
    SequentialBackend,
    run_scenario,
)
from repro.traffic import TestbedHarness
from tests.conftest import make_spec


def chaos_spec(level=SecurityLevel.LEVEL_2, vms=2, faults=None, seed=0,
               duration=0.09, mode=ResourceMode.SHARED, **params):
    return ScenarioSpec(
        workload="ext.chaos",
        deployment=DeploymentSpec(level=level, num_vswitch_vms=vms,
                                  resource_mode=mode),
        traffic=TrafficScenario.P2V,
        duration=duration,
        seed=seed,
        params=params,
        faults=faults,
    )


def events_jsonl(result) -> str:
    return "\n".join(json.dumps(e, sort_keys=True, separators=(",", ":"))
                     for e in result.events)


class TestFaultPlanValidation:
    def test_exactly_one_schedule_style(self):
        with pytest.raises(ValidationError):
            FaultSpec(kind=FaultKind.VSWITCH_CRASH)  # neither at nor mtbf
        with pytest.raises(ValidationError):
            FaultSpec(kind=FaultKind.VSWITCH_CRASH, at=0.1, mtbf=0.1)

    def test_burst_needs_explicit_clearing(self):
        # The watchdog can't see degradation, so it can't self-heal.
        with pytest.raises(ValidationError):
            FaultSpec(kind=FaultKind.PACKET_LOSS, target="link:ingress",
                      at=0.01)
        FaultSpec(kind=FaultKind.PACKET_LOSS, target="link:ingress",
                  at=0.01, duration=0.02)  # fine

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError):
            FaultSpec.from_dict({"kind": "vswitch-crash", "at": 0.1,
                                 "frobnicate": 1})
        with pytest.raises(ValidationError):
            FaultPlan.from_dict({"faults": [], "frobnicate": 1})
        with pytest.raises(ValidationError):
            RestartPolicySpec.from_dict({"max_restarts": 2, "nope": 1})

    def test_json_round_trip(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind=FaultKind.VSWITCH_CRASH,
                          target="compartment:1", at=0.02),
                FaultSpec(kind=FaultKind.PACKET_LOSS, target="link:egress",
                          mtbf=0.05, mttr=0.01, severity=0.5),
            ),
            heartbeat=0.002,
            policy=RestartPolicySpec(max_restarts=2),
            warm_standby=True,
        )
        clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone == plan

    def test_faults_key_the_content_hash(self):
        bare = chaos_spec()
        assert "faults" not in bare.to_dict()  # pre-chaos hashes intact
        crashed = chaos_spec(faults=scripted_crash(at=0.03))
        other = chaos_spec(faults=scripted_crash(at=0.04))
        assert bare.content_hash() != crashed.content_hash()
        assert crashed.content_hash() != other.content_hash()
        clone = ScenarioSpec.from_dict(
            json.loads(json.dumps(crashed.to_dict())))
        assert clone == crashed
        assert clone.content_hash() == crashed.content_hash()


class TestIdempotentCrashRestore:
    def _bridge(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_2, vms=2),
                             TrafficScenario.P2V)
        return d, d.bridges[0]

    def _noops(self, op):
        return obs.REGISTRY.snapshot().get(
            f'fault_noop_operations_total{{op="{op}"}}', 0.0)

    def test_double_crash_is_counted_noop(self):
        _, bridge = self._bridge()
        saved = crash_bridge(bridge)
        before = self._noops("crash")
        again = crash_bridge(bridge)
        assert again is saved
        assert self._noops("crash") == before + 1
        restore_bridge(bridge)

    def test_restore_of_healthy_bridge_is_counted_noop(self):
        _, bridge = self._bridge()
        before = self._noops("restore")
        restore_bridge(bridge)
        assert self._noops("restore") == before + 1

    @staticmethod
    def _tenant_frame(d, tenant=0):
        from repro.net import Frame, MacAddress
        return Frame(src_mac=MacAddress.parse("02:1b:00:00:00:01"),
                     dst_mac=d.ingress_dmac_for_tenant(tenant, 0),
                     src_ip=d.plan.external_ip(0),
                     dst_ip=d.plan.tenant_ip(tenant),
                     flow_id=tenant, size_bytes=64)

    def test_crash_restore_cycle_still_works(self):
        d, bridge = self._bridge()
        h = TestbedHarness(d)
        crash_bridge(bridge)
        restore_bridge(bridge)
        d.external_ingress(0).receive(self._tenant_frame(d))
        d.sim.run(until=d.sim.now + 1.0)
        assert h.sink.per_flow[0] == 1

    def test_blackholed_frames_are_counted(self):
        d, bridge = self._bridge()
        TestbedHarness(d)
        crash_bridge(bridge)
        d.external_ingress(0).receive(self._tenant_frame(d))
        d.sim.run(until=d.sim.now + 1.0)
        assert bridge.fault_blackhole_drops >= 1

    def test_non_bridge_rejected(self):
        with pytest.raises(ConfigurationError):
            crash_bridge(None)
        with pytest.raises(ConfigurationError):
            restore_bridge(object())

    def test_unknown_compartment_target_rejected(self):
        spec = chaos_spec(faults=FaultPlan(faults=(
            FaultSpec(kind=FaultKind.VSWITCH_CRASH, target="compartment:9",
                      at=0.01),)))
        with pytest.raises(ConfigurationError):
            run_scenario(spec)

    def test_bad_target_scheme_rejected(self):
        spec = chaos_spec(faults=FaultPlan(faults=(
            FaultSpec(kind=FaultKind.VSWITCH_CRASH, target="teapot:3",
                      at=0.01),)))
        with pytest.raises(ConfigurationError):
            run_scenario(spec)


class TestBlastRadius:
    """The paper's availability claim, measured through the chaos layer."""

    def test_baseline_crash_blacks_out_every_tenant(self):
        result = run_scenario(chaos_spec(level=SecurityLevel.BASELINE,
                                         vms=1))
        assert result.values["blast_radius"] == 1.0
        assert result.values["violations"] == 0

    def test_level2_crash_confined_to_one_compartment(self):
        result = run_scenario(chaos_spec(level=SecurityLevel.LEVEL_2,
                                         vms=2))
        assert result.values["tenants_down"] == 2.0  # tenants 0 and 1
        assert result.values["outage:t2"] > 0.99
        assert result.values["outage:t3"] > 0.99
        assert result.values["violations"] == 0

    def test_supervised_recovery_decomposes_mttr(self):
        result = run_scenario(chaos_spec())
        assert result.values["recovered"] == 1.0
        policy = RestartPolicySpec()
        floor = policy.restart_latency  # + backoff + re-sync on top
        assert result.values["mttr"] > floor
        recover = [e for e in result.events if e["kind"] == "recover"]
        assert recover and recover[0]["downtime"] == \
            pytest.approx(result.values["mttr"])

    def test_warm_standby_is_a_level2_capability(self):
        plan = scripted_crash(at=0.03, warm_standby=True)
        l2 = run_scenario(chaos_spec(faults=plan))
        base = run_scenario(chaos_spec(level=SecurityLevel.BASELINE, vms=1,
                                       faults=plan))
        l2_recover = [e for e in l2.events if e["kind"] == "recover"]
        base_recover = [e for e in base.events if e["kind"] == "recover"]
        assert l2_recover and all(e.get("mode_is_failover")
                                  for e in l2_recover)
        assert base_recover and all(e.get("mode_is_restart")
                                    for e in base_recover)
        # failover skips backoff + re-sync, so Level-2 heals faster
        assert l2.values["mttr"] < base.values["mttr"]


class TestDeterminism:
    def test_backends_produce_byte_identical_event_logs(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind=FaultKind.VSWITCH_CRASH, target="compartment:0",
                      mtbf=0.03),
            FaultSpec(kind=FaultKind.PACKET_LOSS, target="link:ingress",
                      mtbf=0.04, mttr=0.01, severity=0.5),
        ))
        specs = [chaos_spec(faults=plan, seed=s) for s in (3, 4)]
        seq = SequentialBackend().run(specs)
        pool = ProcessPoolBackend(max_workers=2).run(specs)
        assert [events_jsonl(r) for r in seq] == \
            [events_jsonl(r) for r in pool]
        assert [r.values for r in seq] == [r.values for r in pool]
        assert any(r.events for r in seq)

    def test_result_cache_replays_the_event_log(self, tmp_path):
        spec = chaos_spec(faults=scripted_crash(at=0.02), seed=11)
        engine = Engine(store=ResultStore(tmp_path))
        first = engine.run_one(spec)
        second = engine.run_one(spec)
        assert not first.cached and second.cached
        assert events_jsonl(first) == events_jsonl(second)
        assert first.values == second.values

    def test_same_seed_same_events_different_seed_different_times(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind=FaultKind.VSWITCH_CRASH, target="compartment:0",
                      mtbf=0.03),))
        a = run_scenario(chaos_spec(faults=plan, seed=5))
        b = run_scenario(chaos_spec(faults=plan, seed=5))
        c = run_scenario(chaos_spec(faults=plan, seed=6))
        assert events_jsonl(a) == events_jsonl(b)
        assert events_jsonl(a) != events_jsonl(c)


def random_plan(rng: random.Random, compartments: int) -> FaultPlan:
    faults = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice((FaultKind.VSWITCH_CRASH, FaultKind.LINK_FLAP,
                           FaultKind.PACKET_LOSS))
        if kind is FaultKind.VSWITCH_CRASH:
            target = f"compartment:{rng.randrange(compartments)}"
        else:
            target = rng.choice(("link:ingress", "link:egress"))
        if kind is FaultKind.PACKET_LOSS:
            faults.append(FaultSpec(
                kind=kind, target=target, mtbf=rng.uniform(0.02, 0.06),
                mttr=rng.uniform(0.005, 0.02),
                severity=rng.uniform(0.2, 1.0)))
        elif rng.random() < 0.5:
            faults.append(FaultSpec(
                kind=kind, target=target, at=rng.uniform(0.005, 0.06),
                duration=rng.uniform(0.005, 0.03)))
        else:
            faults.append(FaultSpec(
                kind=kind, target=target, mtbf=rng.uniform(0.02, 0.08)))
    return FaultPlan(faults=tuple(faults),
                     heartbeat=rng.choice((0.002, 0.005)))


class TestChaosFuzz:
    """Seeded randomized campaigns; the session's violation counter is
    the oracle: packet conservation (offered == delivered + fault drops
    + component drops), no frame forwarded by a crashed bridge, and the
    supervisor never exceeding its restart budget."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_invariants_hold_under_random_schedules(self, seed):
        rng = random.Random(seed)
        vms = rng.choice((1, 2))
        level = SecurityLevel.LEVEL_2 if vms > 1 else SecurityLevel.BASELINE
        plan = random_plan(rng, compartments=vms)
        result = run_scenario(chaos_spec(level=level, vms=vms, faults=plan,
                                         seed=seed))
        v = result.values
        assert v["violations"] == 0, result.events
        assert v["unaccounted"] == 0
        assert v["offered"] == (v["delivered"] + v["fault_drops"]
                                + v["component_drops"])
        # every phase transition is well-formed and time-ordered per target
        last_t = {}
        for event in result.events:
            key = event["target"]
            assert event["t"] >= last_t.get(key, 0.0)
            last_t[key] = event["t"]


class TestSupervisorPolicies:
    def _session_for(self, plan, duration=0.1,
                     level=SecurityLevel.LEVEL_2, vms=2):
        d = build_deployment(make_spec(level=level, vms=vms),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        h.configure_tenant_flows(rate_per_flow_pps=2_000)
        session = ChaosSession(d, h, plan, seed=0)
        session.arm(duration)
        h.run(duration=duration, warmup=0.0)
        return session, session.finish()

    def test_restart_budget_gives_up(self):
        # Budget of zero: detection must lead straight to give-up.
        plan = FaultPlan(
            faults=(FaultSpec(kind=FaultKind.VSWITCH_CRASH,
                              target="compartment:0", at=0.02),),
            policy=RestartPolicySpec(max_restarts=0))
        session, summary = self._session_for(plan)
        assert summary["giveups"] == 1
        assert summary["recovered"] == 0
        assert summary["restart_attempts"] == 0
        assert [e["kind"] for e in session.log.events].count("give-up") == 1

    def test_circuit_breaker_stops_a_crash_loop(self):
        crashes = tuple(
            FaultSpec(kind=FaultKind.VSWITCH_CRASH, target="compartment:0",
                      at=0.01 + 0.015 * i) for i in range(5))
        plan = FaultPlan(
            faults=crashes,
            policy=RestartPolicySpec(circuit_threshold=2,
                                     circuit_window=10.0,
                                     backoff_base=0.001,
                                     restart_latency=0.002))
        session, summary = self._session_for(plan, duration=0.15)
        phases = [e["kind"] for e in session.log.events]
        assert phases.count("circuit-open") == 1
        # once open, no further restart attempts are spent
        state = session.states["compartment:0"]
        assert state.circuit_open
        assert summary["restart_attempts"] < len(crashes)

    def test_controller_partition_defers_resync(self):
        crash_at = 0.02
        partition_until = 0.08
        plan = FaultPlan(faults=(
            FaultSpec(kind=FaultKind.CONTROLLER_PARTITION,
                      target="controller", at=0.0,
                      duration=partition_until),
            FaultSpec(kind=FaultKind.VSWITCH_CRASH, target="compartment:0",
                      at=crash_at),
        ))
        session, summary = self._session_for(plan, duration=0.15)
        recovers = session.log.of_kind("recover")
        assert len(recovers) == 1
        # re-sync could not start before the partition healed
        assert recovers[0]["t"] > partition_until
        assert summary["violations"] == 0

    def test_vf_reset_heals_and_conserves(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_2, vms=2),
                             TrafficScenario.P2V)
        vf_name = d.tenant_vf[(0, 0)].name
        plan = FaultPlan(faults=(
            FaultSpec(kind=FaultKind.VF_RESET, target=f"vf:{vf_name}",
                      at=0.02, duration=0.03),))
        h = TestbedHarness(d)
        h.configure_tenant_flows(rate_per_flow_pps=2_000)
        session = ChaosSession(d, h, plan, seed=0)
        session.arm(0.1)
        h.run(duration=0.1, warmup=0.0)
        summary = session.finish()
        assert summary["repaired"] == 1
        assert summary["violations"] == 0
        assert session.fault_drops.get(f"vf:{vf_name}", 0) > 0


class TestHarnessAutoAttach:
    def test_fault_plan_reaches_any_harness_workload(self):
        """A plan on a non-chaos-aware workload (fig5.latency) attaches
        through the harness hook and reports events."""
        spec = ScenarioSpec(
            workload="fig5.latency",
            deployment=DeploymentSpec(level=SecurityLevel.LEVEL_1),
            traffic=TrafficScenario.P2V, duration=0.04, warmup=0.008,
            seed=0,
            params={"frame_bytes": 64, "aggregate_pps": 10_000.0},
            faults=scripted_crash(at=0.01, duration=0.02))
        result = run_scenario(spec)
        phases = [e["kind"] for e in result.events]
        assert "inject" in phases and "clear" in phases
        import dataclasses
        no_faults = run_scenario(dataclasses.replace(spec, faults=None))
        assert no_faults.events == []
        # the crash actually cost delivered packets
        assert result.values["loss_fraction"] > \
            no_faults.values["loss_fraction"]

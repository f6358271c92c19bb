"""Differential fuzzing of the lookup fast path.

The tuple-space classifier + EMC (``FlowTable(fastpath=True)``) and the
VEB decision cache must be *observationally identical* to their retained
O(n) reference paths -- same matched rules, same forwarding decisions,
same counters, byte for byte -- across arbitrary rule/table churn.  These
tests drive tens of thousands of randomized frames through both
implementations in lockstep and compare every observable after every
step.

The value universe is deliberately tiny (a handful of MACs/IPs/ports) so
the random streams produce a rich mix of hits, misses, EMC hits, prefix
matches, priority ties, and post-churn invalidations.
"""

import random

import pytest

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.packet import EtherType, Frame, IpProto
from repro.sriov.switch import UPLINK, VebSwitch
from repro.sriov.vf import FunctionKind, VirtualFunction
from repro.vswitch.actions import Drop, Output
from repro.vswitch.flowtable import FlowRule, FlowTable
from repro.vswitch.matches import FlowMatch

MACS = [MacAddress(0x020000000000 + i) for i in range(6)]
IPS = [IPv4Address(0x0A000000 + i) for i in range(6)]
SUBNETS = [(IPv4Address(0x0A000000), 24), (IPv4Address(0x0A000000), 30),
           (IPv4Address(0x0B000000), 8)]
PORTS = [0, 53, 80, 4789]
VLANS = [None, 10, 20]
TUNNELS = [None, 100, 200]
IN_PORTS = [1, 2, 3]
PROTOS = [IpProto.UDP, IpProto.TCP]


def random_match(rng: random.Random) -> FlowMatch:
    """A random conjunction: each field independently wildcarded."""
    kwargs = {}
    if rng.random() < 0.3:
        kwargs["in_port"] = rng.choice(IN_PORTS)
    if rng.random() < 0.3:
        kwargs["src_mac"] = rng.choice(MACS)
    if rng.random() < 0.4:
        kwargs["dst_mac"] = rng.choice(MACS)
    if rng.random() < 0.2:
        kwargs["ethertype"] = EtherType.IPV4
    if rng.random() < 0.3:
        kwargs["vlan"] = rng.choice([v for v in VLANS if v is not None])
    if rng.random() < 0.3:
        kwargs["src_ip"] = rng.choice(IPS)
    if rng.random() < 0.5:
        if rng.random() < 0.5:
            kwargs["dst_ip"] = rng.choice(IPS)
        else:
            net, prefix = rng.choice(SUBNETS)
            kwargs["dst_ip"] = net
            kwargs["dst_ip_prefix"] = prefix
    if rng.random() < 0.2:
        kwargs["proto"] = rng.choice(PROTOS)
    if rng.random() < 0.2:
        kwargs["src_port"] = rng.choice(PORTS)
    if rng.random() < 0.3:
        kwargs["dst_port"] = rng.choice(PORTS)
    if rng.random() < 0.2:
        kwargs["tunnel_id"] = rng.choice([t for t in TUNNELS if t is not None])
    return FlowMatch(**kwargs)


def random_frame(rng: random.Random) -> Frame:
    return Frame(
        src_mac=rng.choice(MACS),
        dst_mac=rng.choice(MACS),
        vlan=rng.choice(VLANS),
        src_ip=rng.choice(IPS) if rng.random() < 0.9 else None,
        dst_ip=rng.choice(IPS) if rng.random() < 0.9 else None,
        proto=rng.choice(PROTOS),
        src_port=rng.choice(PORTS),
        dst_port=rng.choice(PORTS),
        tunnel_id=rng.choice(TUNNELS),
        size_bytes=rng.choice([64, 512, 1500]),
    )


def make_rule(rng: random.Random, seq: int) -> dict:
    """Rule ingredients, instantiated twice (one per table)."""
    return dict(
        match=random_match(rng),
        priority=rng.choice([50, 100, 100, 100, 200, 300]),
        tenant_id=rng.choice([None, 0, 1, 2, 3]),
        actions_factory=(lambda: [Drop()]) if seq % 5 == 0
        else (lambda p=rng.choice([1, 2, 3, 4]): [Output(port_no=p)]),
    )


def assert_tables_agree(fast: FlowTable, oracle: FlowTable) -> None:
    assert fast.lookups == oracle.lookups
    assert fast.misses == oracle.misses
    assert len(fast) == len(oracle)
    assert fast.dump() == oracle.dump()  # cookies, priorities, counters


class TestFlowTableDifferential:
    """fastpath=True vs the linear-scan oracle, frame by frame."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lockstep_with_churn(self, seed):
        rng = random.Random(seed)
        fast = FlowTable("fuzz.fast", fastpath=True)
        oracle = FlowTable("fuzz.oracle", fastpath=False)
        live_cookies = []

        def add_rule():
            spec = make_rule(rng, len(live_cookies))
            a = fast.add(FlowRule(match=spec["match"],
                                  actions=spec["actions_factory"](),
                                  priority=spec["priority"],
                                  tenant_id=spec["tenant_id"]))
            b = oracle.add(FlowRule(match=spec["match"],
                                    actions=spec["actions_factory"](),
                                    priority=spec["priority"],
                                    tenant_id=spec["tenant_id"]))
            assert a.cookie == b.cookie  # per-table allocators in lockstep
            live_cookies.append(a.cookie)

        for _ in range(30):
            add_rule()

        n_frames = 4000  # x3 seeds >= 10k frames overall
        for i in range(n_frames):
            frame_spec = random_frame(rng)
            in_port = rng.choice(IN_PORTS)
            # Same header content, distinct Frame objects so counter
            # mutations (n_bytes via wire_size) cannot alias.
            r_fast = fast.lookup(frame_spec, in_port)
            r_oracle = oracle.lookup(frame_spec, in_port)
            if r_oracle is None:
                assert r_fast is None
            else:
                assert r_fast is not None
                assert r_fast.cookie == r_oracle.cookie
                assert r_fast.priority == r_oracle.priority
                assert r_fast.n_packets == r_oracle.n_packets
                assert r_fast.n_bytes == r_oracle.n_bytes

            # Interleaved churn: add/remove/withdraw-tenant/clear.
            if i % 97 == 0:
                add_rule()
            if i % 211 == 0 and live_cookies:
                cookie = rng.choice(live_cookies)
                assert (fast.remove_by_cookie(cookie)
                        == oracle.remove_by_cookie(cookie))
                live_cookies.remove(cookie)
            if i % 503 == 0:
                tenant = rng.choice([0, 1, 2, 3])
                assert (fast.remove_tenant(tenant)
                        == oracle.remove_tenant(tenant))
                live_cookies[:] = [r.cookie for r in fast]
            if i == n_frames // 2:
                fast.clear()
                oracle.clear()
                live_cookies.clear()
                for _ in range(20):
                    add_rule()
            if i % 251 == 0:
                assert_tables_agree(fast, oracle)

        assert_tables_agree(fast, oracle)
        assert fast.emc_stats.misses > 0

        # Steady-state phase: replay a handful of fixed headers so the
        # EMC actually serves hits (the random universe above is too
        # large for organic repeats), and verify cached hits keep
        # counters exact.
        steady = [(random_frame(rng), rng.choice(IN_PORTS))
                  for _ in range(8)]
        for _ in range(50):
            for frame, in_port in steady:
                r_fast = fast.lookup(frame, in_port)
                r_oracle = oracle.lookup(frame, in_port)
                if r_oracle is None:
                    assert r_fast is None
                else:
                    assert r_fast.cookie == r_oracle.cookie
                    assert r_fast.n_packets == r_oracle.n_packets
                    assert r_fast.n_bytes == r_oracle.n_bytes
        assert_tables_agree(fast, oracle)
        # The fast path must actually have been serving from the EMC.
        assert fast.emc_stats.hits > 0

    def test_conflict_detection_untouched(self):
        """check_conflicts walks self._rules, not the index: identical
        on both paths."""
        rng = random.Random(7)
        fast = FlowTable(fastpath=True)
        oracle = FlowTable(fastpath=False)
        for i in range(40):
            spec = make_rule(rng, i)
            fast.add(FlowRule(match=spec["match"],
                              actions=spec["actions_factory"](),
                              priority=spec["priority"],
                              tenant_id=spec["tenant_id"]))
            oracle.add(FlowRule(match=spec["match"],
                                actions=spec["actions_factory"](),
                                priority=spec["priority"],
                                tenant_id=spec["tenant_id"]))
        pairs_fast = [(a.cookie, b.cookie) for a, b in fast.check_conflicts()]
        pairs_oracle = [(a.cookie, b.cookie)
                        for a, b in oracle.check_conflicts()]
        assert pairs_fast == pairs_oracle
        assert pairs_fast  # the universe is small enough that some exist

    def test_priority_tie_breaks_by_insertion_order(self):
        """Two identical-priority overlapping rules: first added wins on
        both paths, even when they land in different mask groups."""
        fast = FlowTable(fastpath=True)
        oracle = FlowTable(fastpath=False)
        m_wide = FlowMatch(dst_ip=IPS[0], dst_ip_prefix=8)
        m_narrow = FlowMatch(dst_ip=IPS[0])
        for t in (fast, oracle):
            t.add(FlowRule(match=m_wide, actions=[Output(port_no=1)],
                           priority=100))
            t.add(FlowRule(match=m_narrow, actions=[Output(port_no=2)],
                           priority=100))
        frame = Frame(src_mac=MACS[0], dst_mac=MACS[1], dst_ip=IPS[0])
        assert fast.lookup(frame, 1).cookie == oracle.lookup(frame, 1).cookie


class TestVebDecisionCacheDifferential:
    """The cached VebSwitch.forward vs a mirror that always takes the
    uncached walk, across learning churn and attach/detach."""

    def _build(self):
        sw = VebSwitch("fuzz")
        vfs = []
        for i, vlan in enumerate([10, 10, 20, None]):
            vf = VirtualFunction(index=i, pf_index=0,
                                 kind=FunctionKind.TENANT,
                                 mac=MACS[i], vlan=vlan)
            sw.attach(vf)
            vfs.append(vf)
        return sw, vfs

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lockstep(self, seed):
        rng = random.Random(seed)
        cached, vfs_c = self._build()
        mirror, vfs_m = self._build()
        ingresses = [vf.name for vf in vfs_c] + [UPLINK]
        domains = [10, 20, 0]

        for i in range(3000):
            frame = Frame(src_mac=rng.choice(MACS),
                          dst_mac=rng.choice(MACS + [MacAddress((1 << 48) - 1)]))
            ingress = rng.choice(ingresses)
            vlan = rng.choice(domains)
            now = i * 1e-6
            d_cached = cached.forward(ingress, vlan, frame, now)
            d_mirror = mirror._forward_uncached(ingress, vlan, frame, now)
            assert d_cached.destinations == d_mirror.destinations
            assert d_cached.flooded == d_mirror.flooded
            assert d_cached.reason == d_mirror.reason
            assert cached.lookups == mirror.lookups
            assert cached.floods == mirror.floods
            assert cached.unknown_unicasts == mirror.unknown_unicasts
            assert cached.table_size() == mirror.table_size()

            if i % 379 == 0:
                j = rng.randrange(len(vfs_c))
                cached.detach(vfs_c[j])
                mirror.detach(vfs_m[j])
                cached.attach(vfs_c[j])
                mirror.attach(vfs_m[j])

        assert cached.decision_cache_hits > 0

    def test_last_seen_refreshed_on_cached_hit(self):
        sw, vfs = self._build()
        frame = Frame(src_mac=MACS[5], dst_mac=MACS[0])
        sw.forward(UPLINK, 10, frame, now=1.0)
        entry = sw.lookup(10, MACS[5])
        assert entry is not None and entry.last_seen == 1.0
        sw.forward(UPLINK, 10, frame, now=2.0)  # cached hit
        assert sw.decision_cache_hits == 1
        assert sw._table[(10, MACS[5])].last_seen == 2.0


# -- batched mediation chain vs per-frame oracle -------------------------

#: A mid-run vswitch crash that heals: both instants are catch-up
#: points of the batched chain, and members that arrive between them
#: vanish at their admission, fused registrations included.
CRASH_PLAN = None  # built lazily; FaultPlan import is heavier


def _crash_plan():
    global CRASH_PLAN
    if CRASH_PLAN is None:
        from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
        CRASH_PLAN = FaultPlan(faults=(
            FaultSpec(kind=FaultKind.VSWITCH_CRASH, target="compartment:0",
                      at=0.003, duration=0.003),
        ))
    return CRASH_PLAN


def _run_fig5(batch, burst, tracing, metering, faulted, duration):
    """One Fig. 5 L2 run; returns every observable the exactness
    contract compares."""
    import math
    from collections import defaultdict

    import repro.billing as billing
    from repro.billing.meter import TenantMeter
    from repro import obs
    from repro.core import SecurityLevel, TrafficScenario, build_deployment
    from repro.core.spec import DeploymentSpec
    from repro.scenario import context
    from repro.traffic import TestbedHarness

    if metering:
        billing.install(TenantMeter())
    if faulted:
        ctx = context.activate(_crash_plan(), seed=7)
    spec = DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=2)
    d = build_deployment(spec, TrafficScenario.P2V)
    tracer = obs.enable_tracing(d.sim) if tracing else None
    try:
        h = TestbedHarness(d, batch=batch)
        if burst is not None:
            h.lg.burst = burst
        h.configure_tenant_flows(rate_per_flow_pps=200_000)
        result = h.run(duration=duration)
        mon = h.monitor
        per_flow_eg = defaultdict(int)
        for _t, f in mon.egress_times:
            per_flow_eg[f] += 1
        meter = billing.METER.totals() if metering else None
        drop_spans = (sorted((s.component, s.outcome, s.trace_id)
                             for s in tracer.drops())
                      if tracing else None)
        bridge_drops = {
            b.name: (b.drops_no_match, b.drops_action, b.rx_drops(),
                     b.plan_cache_hits, b.passes)
            for b in d.bridges
        }
        nicd = d.server.nic.total_drops()
        return {
            "sent": result.sent,
            "delivered": result.delivered,
            "per_flow": dict(h.sink.per_flow),
            "samples": [(s.flow_id, s.t_in, s.t_out) for s in mon.samples],
            "eg_count": dict(per_flow_eg),
            "bridge_drops": bridge_drops,
            "nic_drops": (nicd.spoof, nicd.filtered, nicd.no_destination,
                          nicd.unconfigured_vf, nicd.rate_limited),
            "meter": meter,
            "drop_spans": drop_spans,
            "unmatched": mon.unmatched_egress,
            "loss": mon.loss_count(),
        }
    finally:
        if tracing:
            obs.disable_tracing()
        if faulted:
            context.deactivate(ctx)
        if metering:
            billing.uninstall(billing.METER)


def _assert_exact(oracle, batched):
    """The exactness contract: everything byte-identical -- including
    every latency sample's t_in/t_out and the samples' order -- except
    FP-accumulated CPU meters."""
    import math

    for key in ("sent", "delivered", "per_flow", "samples",
                "eg_count", "bridge_drops", "nic_drops", "drop_spans",
                "unmatched", "loss"):
        assert oracle[key] == batched[key], key
    if oracle["meter"] is not None:
        for cat in oracle["meter"]:
            av, bv = oracle["meter"][cat], batched["meter"][cat]
            if cat == "cpu":
                for t in set(av) | set(bv):
                    assert math.isclose(av.get(t, 0.0), bv.get(t, 0.0),
                                        rel_tol=1e-9, abs_tol=1e-15), \
                        f"meter.cpu[{t}]"
            else:
                assert av == bv, f"meter.{cat}"


class TestBatchedChainDifferential:
    """The struct-of-arrays mediation chain vs the per-frame oracle on
    the full Fig. 5 L2 topology: identical delivery sets and order,
    drop reasons, metering totals -- across batch shapes, tracing,
    metering, and a mid-run crash/heal fault plan."""

    # None: the harness default, a ramp from one frame up to
    # BATCHED_BURST; 4096 is above the batch station's _MAX_LAG.
    @pytest.mark.parametrize("burst", [1, 7, 32, None, 4096])
    def test_burst_shapes(self, burst):
        oracle = _run_fig5(batch=False, burst=None, tracing=False,
                           metering=False, faulted=False, duration=0.008)
        batched = _run_fig5(batch=True, burst=burst, tracing=False,
                            metering=False, faulted=False, duration=0.008)
        _assert_exact(oracle, batched)

    @pytest.mark.parametrize("metering", [False, True])
    @pytest.mark.parametrize("tracing", [False, True])
    def test_tracing_metering_matrix(self, tracing, metering):
        oracle = _run_fig5(batch=False, burst=None, tracing=tracing,
                           metering=metering, faulted=False,
                           duration=0.006)
        batched = _run_fig5(batch=True, burst=None, tracing=tracing,
                            metering=metering, faulted=False,
                            duration=0.006)
        _assert_exact(oracle, batched)

    @pytest.mark.parametrize("metering", [False, True])
    def test_fault_plan(self, metering):
        """A vswitch crash mid-run, batched: batches and fused
        registrations straddle the crash and heal instants, and every
        member is judged by its own arrival, as the oracle judges each
        frame, so the run must produce byte-identical results."""
        oracle = _run_fig5(batch=False, burst=None, tracing=False,
                           metering=metering, faulted=True,
                           duration=0.008)
        batched = _run_fig5(batch=True, burst=None, tracing=False,
                            metering=metering, faulted=True,
                            duration=0.008)
        assert oracle["delivered"] < oracle["sent"]  # crash actually bit
        _assert_exact(oracle, batched)

    def test_fault_plan_forces_per_frame_path(self):
        """The chaos gate itself: with a link fault armed (it acts
        upstream of every batch station) the harness must not flip the
        generator into batched emission."""
        from repro.core import (SecurityLevel, TrafficScenario,
                                build_deployment)
        from repro.core.spec import DeploymentSpec
        from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
        from repro.scenario import context
        from repro.traffic import TestbedHarness

        flap = FaultPlan(faults=(
            FaultSpec(kind=FaultKind.LINK_FLAP, target="link:ingress",
                      at=0.0005, duration=0.0005),))
        ctx = context.activate(flap, seed=7)
        try:
            spec = DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                  num_vswitch_vms=2)
            d = build_deployment(spec, TrafficScenario.P2V)
            h = TestbedHarness(d, batch=True)
            h.configure_tenant_flows(rate_per_flow_pps=200_000)
            h.run(duration=0.002)
            assert h.lg.batch is False
        finally:
            context.deactivate(ctx)

    def _run_churn_case(self, batch, duration=0.008):
        """One scripted-churn run: a live migration armed before the
        harness starts, scheduled mid-run via ChurnScript."""
        from collections import defaultdict

        from tests.churn import ChurnScript
        from repro.core import (SecurityLevel, TrafficScenario,
                                build_deployment)
        from repro.core.spec import DeploymentSpec
        from repro.traffic import TestbedHarness

        spec = DeploymentSpec(level=SecurityLevel.LEVEL_2,
                              num_vswitch_vms=2)
        d = build_deployment(spec, TrafficScenario.P2V)
        h = TestbedHarness(d, batch=batch)
        h.configure_tenant_flows(rate_per_flow_pps=200_000)
        script = ChurnScript(d)
        try:
            script.schedule_migration(0.003, tenant_id=0, target=1)
            result = h.run(duration=duration)
        finally:
            script.close()
        mon = h.monitor
        per_flow_eg = defaultdict(int)
        for _t, f in mon.egress_times:
            per_flow_eg[f] += 1
        return {
            "sent": result.sent,
            "delivered": result.delivered,
            "per_flow": dict(h.sink.per_flow),
            "samples": [(s.flow_id, s.t_in, s.t_out) for s in mon.samples],
            "eg_count": dict(per_flow_eg),
            "unmatched": mon.unmatched_egress,
            "loss": mon.loss_count(),
            "lg_batch": h.lg.batch,
            "migrations": list(script.completed),
        }

    def test_churn_migration_differential(self):
        """A ChurnScript-scheduled live migration mid-run: the armed
        lifecycle hold must force the per-frame oracle path (a batch
        straddling the migration instant would deliver as a unit where
        connectivity actually dropped mid-burst), and a batch-requested
        run must be byte-identical to the oracle."""
        oracle = self._run_churn_case(batch=False)
        batched = self._run_churn_case(batch=True)
        assert batched["lg_batch"] is False  # the gate held
        assert oracle["migrations"] == batched["migrations"]
        assert len(oracle["migrations"]) == 1
        assert oracle["delivered"] < oracle["sent"]  # downtime bit
        for key in ("sent", "delivered", "per_flow", "samples",
                    "eg_count", "unmatched", "loss"):
            assert oracle[key] == batched[key], key

    def test_churn_holds_drain(self):
        """Lifecycle marks must not leak: held before the ops fire,
        clear after the run (else every later run is deoptimized)."""
        from tests.churn import ChurnScript
        from repro.core import (SecurityLevel, TrafficScenario,
                                build_deployment)
        from repro.core.spec import DeploymentSpec
        from repro.traffic import TestbedHarness

        spec = DeploymentSpec(level=SecurityLevel.LEVEL_2,
                              num_vswitch_vms=2)
        d = build_deployment(spec, TrafficScenario.P2V)
        assert d.oracle_reason() is None
        h = TestbedHarness(d, batch=True)
        h.configure_tenant_flows(rate_per_flow_pps=200_000)
        script = ChurnScript(d)
        try:
            script.schedule_migration(0.001, tenant_id=0, target=1)
            assert d.oracle_reason() == "lifecycle"  # armed = held
            result = h.run(duration=0.004)
        finally:
            script.close()
        assert result.oracle_reason == "lifecycle"
        assert d.oracle_reason() is None  # drained, no leak

    def test_billing_reconciliation_on_batched_path(self):
        """MeteringSession windows + invariants must reconcile on the
        batched path, not just match the oracle's totals."""
        from repro.billing.session import MeteringSession
        from repro.core import (SecurityLevel, TrafficScenario,
                                build_deployment)
        from repro.core.spec import DeploymentSpec
        from repro.traffic import TestbedHarness

        spec = DeploymentSpec(level=SecurityLevel.LEVEL_2,
                              num_vswitch_vms=2)
        d = build_deployment(spec, TrafficScenario.P2V)
        h = TestbedHarness(d, batch=True)
        h.configure_tenant_flows(rate_per_flow_pps=200_000)
        session = MeteringSession(d, h, interval=0.002)
        session.arm(0.01)
        result = h.run(duration=0.01)
        summary = session.finish()
        assert summary["reconciled"], summary["failures"]
        assert summary["windows"] >= 5
        assert result.sent == 8001

    def test_tied_emission_times(self):
        """Flows whose emission timestamps coincide (1 Mpps, 5 kpps and
        50 kpps all emit at 250 us): both paths put tied frames on the
        wire in flow-index order."""
        from repro.core import SecurityLevel, TrafficScenario
        from repro.core import build_deployment
        from repro.core.spec import DeploymentSpec
        from repro.traffic import TestbedHarness

        def run(batch):
            d = build_deployment(DeploymentSpec(level=SecurityLevel.LEVEL_1),
                                 TrafficScenario.P2P, seed=95)
            h = TestbedHarness(d, batch=batch)
            for tenant, rate in enumerate((1e6, 5e3, 5e4, 2e5)):
                h.add_tenant_flow(tenant, rate)
            result = h.run(duration=0.008, warmup=0.0016)
            return (result.path, result.sent, result.delivered,
                    [(s.flow_id, s.t_in, s.t_out)
                     for s in h.monitor.samples])

        oracle, batched = run(False), run(True)
        assert batched[0] == "batched"
        assert oracle[1:] == batched[1:]


def _harness_latencies(spec, traffic, rate_per_flow, duration, warmup,
                       batch, metering=False):
    """One harness run at a benchmark shape: the result's latencies
    (in sample order), counts and the path taken."""
    from repro.billing.session import MeteringSession
    from repro.core import build_deployment
    from repro.traffic import TestbedHarness

    d = build_deployment(spec, traffic, seed=3)
    h = TestbedHarness(d, batch=batch)
    h.configure_tenant_flows(rate_per_flow_pps=rate_per_flow)
    session = None
    if metering:
        session = MeteringSession(d, h, interval=duration / 4)
        session.arm(duration)
    result = h.run(duration=duration, warmup=warmup)
    if session is not None:
        assert session.finish()["reconciled"]
    return (result.latencies, result.sent, result.delivered,
            result.path)


class TestBenchmarkShapes:
    """Bit-for-bit ``result.latencies`` against the oracle at the shapes
    the repository benchmark runs (``perfbench/workload.py``)."""

    def test_saturation_and_end_of_traffic_drain(self):
        """MTS L2, 2 vswitch VMs, p2v, 4 x 200 kpps of 64 B frames: rx
        rings overflow, and tail bursts cut short by the end of traffic
        leave through the drain sweep."""
        from repro.core import SecurityLevel, TrafficScenario
        from repro.core.spec import DeploymentSpec

        spec = DeploymentSpec(level=SecurityLevel.LEVEL_2,
                              num_vswitch_vms=2)
        args = (spec, TrafficScenario.P2V, 200_000.0, 0.02, 0.004)
        oracle = _harness_latencies(*args, batch=False)
        batched = _harness_latencies(*args, batch=True)
        assert batched[3] == "batched"
        assert oracle[2] < oracle[1]  # saturated: rings dropped frames
        assert oracle[:3] == batched[:3]

    def test_sweep_grid_with_metering(self):
        """The sweep's level x traffic grid at 80 kpps, metered."""
        from repro.core import ResourceMode, SecurityLevel, TrafficScenario
        from repro.core.spec import DeploymentSpec

        levels = (
            DeploymentSpec(level=SecurityLevel.BASELINE),
            DeploymentSpec(level=SecurityLevel.LEVEL_1),
            DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=2),
            DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=2,
                           user_space=True,
                           resource_mode=ResourceMode.ISOLATED),
        )
        for i, spec in enumerate(levels):
            for traffic in (TrafficScenario.P2P, TrafficScenario.P2V,
                            TrafficScenario.V2V):
                if traffic is TrafficScenario.V2V and i % 2:
                    continue
                args = (spec, traffic, 80_000.0 / spec.num_tenants, 0.02,
                        0.004)
                oracle = _harness_latencies(*args, batch=False,
                                            metering=True)
                batched = _harness_latencies(*args, batch=True,
                                             metering=True)
                label = f"{spec.label}/{traffic.value}"
                assert batched[3] == "batched", label
                assert oracle[:3] == batched[:3], label


def _fused_shape_run(spec, traffic, rates, duration, batch, randomized=(),
                     capacity=None, rng=None):
    """One harness run of a Fig. 5 shape with one flow per rate: every
    observable the exactness contract compares, the kernel events the
    run took per sent frame, and the longest fused-route chain the run
    resolved (0: none).  Tenants in ``randomized`` draw a random source
    port per frame, from ``rng`` when given; ``capacity`` resizes every
    bridge's flow cache."""
    from repro.core import build_deployment
    from repro.traffic import TestbedHarness

    d = build_deployment(spec, traffic, seed=5)
    if capacity is not None:
        for bridge in d.bridges:
            bridge.cache.capacity = capacity
    h = TestbedHarness(d, batch=batch)
    if rng is not None:
        h.lg.rng = rng
    for tenant, rate in enumerate(rates):
        h.add_tenant_flow(tenant, rate,
                          randomize_src_port=tenant in randomized)
    events = d.sim.events_fired
    result = h.run(duration=duration, warmup=duration / 5)
    events = d.sim.events_fired - events
    mon = h.monitor
    nicd = d.server.nic.total_drops()
    return {
        "path": result.path,
        "sent": result.sent,
        "delivered": result.delivered,
        "samples": [(s.flow_id, s.t_in, s.t_out) for s in mon.samples],
        "per_flow": dict(h.sink.per_flow),
        "bridges": {b.name: (b.rx_drops(), b.plan_cache_hits, b.passes,
                             b.drops_no_match) for b in d.bridges},
        "nic_drops": (nicd.spoof, nicd.filtered, nicd.no_destination,
                      nicd.unconfigured_vf, nicd.rate_limited),
        "loss": mon.loss_count(),
        "unmatched": mon.unmatched_egress,
        "caches": {b.name: (b.cache.stats, len(b.cache)) for b in d.bridges},
        "rng": h.lg.rng.getstate(),
    }, events / result.sent, _longest_chain(d)


def _longest_chain(d):
    from repro.vswitch.ovs import _FusedRoute

    longest = 0
    for route in getattr(d, "_route_cache", {}).values():
        depth = 0
        while isinstance(route, _FusedRoute):
            depth += 1
            route = route.next
        longest = max(longest, depth)
    return longest


def _fused_shapes():
    from repro.core import ResourceMode, SecurityLevel, TrafficScenario
    from repro.core.spec import DeploymentSpec

    base = SecurityLevel.BASELINE
    iso = ResourceMode.ISOLATED
    all3 = (TrafficScenario.P2P, TrafficScenario.P2V, TrafficScenario.V2V)
    shapes = [
        ("Baseline", DeploymentSpec(level=base), all3),
        ("Baseline(2)", DeploymentSpec(level=base, baseline_cores=2,
                                       resource_mode=iso), all3),
        ("Baseline+L3", DeploymentSpec(level=base, user_space=True,
                                       resource_mode=iso), all3),
        ("L1", DeploymentSpec(level=SecurityLevel.LEVEL_1),
         (TrafficScenario.V2V,)),
        ("L2(2)", DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                 num_vswitch_vms=2), (TrafficScenario.V2V,)),
        ("L2(2)+L3", DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                    num_vswitch_vms=2, user_space=True,
                                    resource_mode=iso),
         (TrafficScenario.V2V,)),
    ]
    return [(label, spec, traffic) for label, spec, traffics in shapes
            for traffic in traffics]


#: Per-flow rates and run lengths: each run sends 1k-6k frames.  The
#: noisy-neighbor shape floods one tenant at 2 Mpps next to three
#: 10 kpps flows.
FUSED_RATES = {
    "2.5k": ((2_500.0,) * 4, 0.1),
    "20k": ((20_000.0,) * 4, 0.02),
    "200k": ((200_000.0,) * 4, 0.004),
    "noisy": ((2e6, 1e4, 1e4, 1e4), 0.003),
}


class TestFusedRouteShapes:
    """Fused routes through vhost, the wire, tenant Linux bridges and
    l2fwds, and chained fused passes (v2v), against the per-frame
    oracle: bit-exact, and actually fused."""

    @pytest.mark.parametrize("rate", list(FUSED_RATES))
    @pytest.mark.parametrize(
        "shape", _fused_shapes(),
        ids=lambda s: f"{s[0]}-{s[2].value}")
    def test_matches_oracle_and_fuses(self, shape, rate):
        from repro.core import TrafficScenario

        _label, spec, traffic = shape
        rates, duration = FUSED_RATES[rate]
        oracle, oracle_ev, _ = _fused_shape_run(spec, traffic, rates,
                                                duration, batch=False)
        batched, batched_ev, chain = _fused_shape_run(
            spec, traffic, rates, duration, batch=True)
        assert batched.pop("path") == "batched"
        oracle.pop("path")
        for key in oracle:
            assert oracle[key] == batched[key], key
        # It fused: p2v's first pass pre-registers at its second, v2v
        # chains two fused passes (p2p's one pass is fabric-bound).  A
        # fused chain wakes stations once per burst or lookahead window,
        # where margin flushing pays per-member work at each hop.
        passes = {TrafficScenario.P2P: 0, TrafficScenario.P2V: 1,
                  TrafficScenario.V2V: 2}[traffic]
        assert chain == passes
        assert batched_ev < oracle_ev / 5, (batched_ev, oracle_ev)


class _ThreePorts(random.Random):
    """Source ports that collide: every draw is one of three ports."""

    def randint(self, a, b):
        return a + int(self.random() * 3)


def _policy_injection_configurations():
    from repro.experiments import policy_injection

    return policy_injection.configurations()


def _cache_busting_cases():
    """(id, spec, traffic, randomized tenants, capacity, rng factory).

    One 40 kpps randomized-source-port flow next to three 10 kpps
    victims (the policy-injection load) unless said otherwise."""
    from repro.core import ResourceMode, SecurityLevel, TrafficScenario
    from repro.core.spec import DeploymentSpec

    p2v, v2v = TrafficScenario.P2V, TrafficScenario.V2V
    cases = [(f"policy-injection-{spec.label}", spec, p2v, (0,), None,
              None) for spec in _policy_injection_configurations()]
    l1 = DeploymentSpec(level=SecurityLevel.LEVEL_1)
    cases += [
        ("Baseline+L3-p2v",
         DeploymentSpec(level=SecurityLevel.BASELINE, user_space=True,
                        resource_mode=ResourceMode.ISOLATED),
         p2v, (0,), None, None),
        ("L2(2)-v2v", DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                     num_vswitch_vms=2),
         v2v, (0,), None, None),
        ("L1-colliding-ports", l1, p2v, (0,), None,
         lambda: _ThreePorts(0)),
        ("L1-16-entry-cache", l1, p2v, (0,), 16, None),
        ("Baseline(2)-16-entry-cache",
         DeploymentSpec(level=SecurityLevel.BASELINE, baseline_cores=2,
                        resource_mode=ResourceMode.ISOLATED),
         p2v, (0,), 16, None),
    ]
    return cases


class TestCacheBustingShapes:
    """Randomized source ports on the batched chain against the
    per-frame oracle: every member charged the microflow miss its
    per-frame twin takes, in arrival order, LRU evictions included."""

    def _both(self, spec, traffic, rates, duration, **kwargs):
        runs = []
        for batch in (False, True):
            rng = kwargs.get("rng")
            kw = dict(kwargs, rng=rng() if rng is not None else None)
            runs.append(_fused_shape_run(spec, traffic, rates, duration,
                                         batch, **kw))
        (oracle, oracle_ev, _), (batched, batched_ev, _) = runs
        assert oracle.pop("path") == "oracle"
        assert batched.pop("path") == "batched"
        for key in oracle:
            assert oracle[key] == batched[key], key
        return oracle, oracle_ev, batched_ev

    def test_evicting_cache_charges_every_member(self):
        """Four uniform 20 kpps flows through a 4-entry cache: each
        frame's two passes need eight entries, so the cache evicts
        throughout.  Charging the miss only to a batch's first member,
        and touching the LRU at batch-event time, delivered all 1,600
        frames where the oracle delivers 747."""
        from repro.core import SecurityLevel, TrafficScenario
        from repro.core.spec import DeploymentSpec

        oracle, _, _ = self._both(
            DeploymentSpec(level=SecurityLevel.LEVEL_1),
            TrafficScenario.P2V, (20_000.0,) * 4, 0.02, capacity=4)
        (stats, size), = oracle["caches"].values()
        assert (oracle["delivered"], stats.evictions, size) == (747, 667, 4)

    @pytest.mark.parametrize(
        "case", _cache_busting_cases(), ids=lambda case: case[0])
    def test_matches_oracle(self, case):
        label, spec, traffic, randomized, capacity, rng = case
        _, oracle_ev, batched_ev = self._both(
            spec, traffic, (40_000.0, 10_000.0, 10_000.0, 10_000.0), 0.02,
            randomized=randomized, capacity=capacity, rng=rng)
        if label.startswith("policy-injection"):
            assert batched_ev < oracle_ev / 3, (batched_ev, oracle_ev)


# -- vswitch crashes on the batched chain --------------------------------


def _chaos_plans(n):
    """Crash plans by name, for a deployment with ``n`` compartments:
    compartment 0 crashes one third into a 0.03 s run (the overload
    cases scale the instants down with their run).  Supervisor policies
    are quick, so a supervised crash heals within the run."""
    from repro.faults.plan import (FaultKind, FaultPlan, FaultSpec,
                                   RestartPolicySpec)

    quick = RestartPolicySpec(backoff_base=0.001, restart_latency=0.002,
                              failover_latency=0.002)

    def crash(at, duration=None, k=0):
        return FaultSpec(kind=FaultKind.VSWITCH_CRASH,
                         target=f"compartment:{k}", at=at,
                         duration=duration)

    def plans(scale):
        return {
            "clear": FaultPlan(faults=(crash(0.01 * scale, 0.01 * scale),)),
            "supervised": FaultPlan(faults=(crash(0.01 * scale),),
                                    heartbeat=0.002 * scale, policy=quick),
            "standby": FaultPlan(faults=(crash(0.01 * scale),),
                                 heartbeat=0.002 * scale, policy=quick,
                                 warm_standby=True),
            # A second crash lands inside the first outage (a counted
            # no-op), and another compartment goes down across the
            # first one's restore.
            "overlap": FaultPlan(faults=(
                crash(0.008 * scale, 0.01 * scale),
                crash(0.012 * scale, 0.012 * scale),
                crash(0.014 * scale, 0.008 * scale, k=n - 1))),
            "budget0": FaultPlan(
                faults=(crash(0.01 * scale),), heartbeat=0.002 * scale,
                policy=RestartPolicySpec(max_restarts=0)),
            # Several outages, drawn at arm time.
            "stochastic": FaultPlan(faults=(FaultSpec(
                kind=FaultKind.VSWITCH_CRASH, target="compartment:0",
                mtbf=0.006 * scale, mttr=0.002 * scale),)),
        }

    return plans


class _InstantReads:
    """Mixed into a ChaosSession: the crashed bridge's pass counter as
    the invariant reads it at each inject and repair."""

    def on_injected(self, fault, state=None, **kwargs):
        super().on_injected(fault, state=state, **kwargs)
        if state is not None:
            self.reads.append(("inject", state.name, state.passes_at_inject))

    def _repair(self, state, **kwargs):
        obj = state.obj
        super()._repair(state, **kwargs)
        self.reads.append(("repair", state.name, obj.passes))


def _chaos_run(spec, traffic, plan, rates, duration, batch, metering):
    """One chaos run: every observable the exactness contract compares,
    the session's summary, events and instant reads, and each bridge's
    fault, pass, port, plan and rule counters."""
    from collections import defaultdict

    import repro.billing as billing
    from repro.billing.meter import TenantMeter
    from repro.core import build_deployment
    from repro.faults.session import ChaosSession
    from repro.traffic import TestbedHarness

    class Session(_InstantReads, ChaosSession):
        reads: list

    if metering:
        billing.install(TenantMeter())
    try:
        d = build_deployment(spec, traffic, seed=5)
        h = TestbedHarness(d, batch=batch)
        for tenant, rate in enumerate(rates):
            h.add_tenant_flow(tenant, rate)
        session = Session(d, h, plan, seed=3)
        session.reads = []
        session.arm(duration)
        result = h.run(duration=duration)
        summary = session.finish()
        meter = billing.METER.totals() if metering else None
    finally:
        if metering:
            billing.uninstall(billing.METER)
    mon = h.monitor
    per_flow_eg = defaultdict(int)
    for _t, f in mon.egress_times:
        per_flow_eg[f] += 1
    nicd = d.server.nic.total_drops()
    return result.path, {
        "sent": result.sent,
        "delivered": result.delivered,
        "per_flow": dict(h.sink.per_flow),
        "samples": [(s.flow_id, s.t_in, s.t_out) for s in mon.samples],
        "eg_count": dict(per_flow_eg),
        "bridge_drops": {
            b.name: (b.drops_no_match, b.drops_action, b.rx_drops(),
                     b.plan_cache_hits, b.passes, b.fault_blackhole_drops,
                     [p.rx_frames for p in b.ports()],
                     [(t.lookups, t.misses,
                       [(r.n_packets, r.n_bytes) for r in t])
                      for t in b.tables.values()],
                     b.cache.stats, len(b.cache))
            for b in d.bridges},
        "nic_drops": (nicd.spoof, nicd.filtered, nicd.no_destination,
                      nicd.unconfigured_vf, nicd.rate_limited),
        "meter": meter,
        "drop_spans": None,
        "unmatched": mon.unmatched_egress,
        "loss": mon.loss_count(),
        "summary": {k: summary[k] for k in (
            "violations", "fault_drops", "component_drops", "mttr",
            "injected", "recovered", "repaired", "giveups",
            "unaccounted")},
        "outages": session.outage_windows(),
        "events": session.log.events,
        "reads": session.reads,
    }


def _chaos_cases():
    """(id, spec, traffic, plan name, rates, duration, metering)."""
    from repro.core import ResourceMode, SecurityLevel, TrafficScenario
    from repro.core.spec import DeploymentSpec

    p2v, v2v = TrafficScenario.P2V, TrafficScenario.V2V
    iso = ResourceMode.ISOLATED
    base1 = DeploymentSpec(level=SecurityLevel.BASELINE)
    base2 = DeploymentSpec(level=SecurityLevel.BASELINE, baseline_cores=2,
                           resource_mode=iso)
    l1 = DeploymentSpec(level=SecurityLevel.LEVEL_1)
    l2 = DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=2)
    l2x4 = DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=4,
                          resource_mode=iso)
    low = ((5_000.0,) * 4, 0.03)
    # 4 x 200 kpps fill the rx rings before the crash instant.
    over = ((200_000.0,) * 4, 0.004)
    return [
        ("Baseline(1)-p2v-clear-metered", base1, p2v, "clear", low, True),
        ("Baseline(1)-p2v-clear-overload", base1, p2v, "clear", over,
         False),
        ("Baseline(2)-p2v-supervised", base2, p2v, "supervised", low,
         False),
        ("Baseline(2)-v2v-overlap", base2, v2v, "overlap", low, False),
        ("L1-p2v-clear", l1, p2v, "clear", low, False),
        ("L1-p2v-budget0", l1, p2v, "budget0", low, False),
        ("L1-p2v-supervised-overload", l1, p2v, "supervised", over, False),
        ("L1-v2v-stochastic", l1, v2v, "stochastic", low, False),
        ("L2(2)-p2v-supervised-metered", l2, p2v, "supervised", low, True),
        ("L2(2)-p2v-standby", l2, p2v, "standby", low, False),
        ("L2(2)-p2v-overlap-overload", l2, p2v, "overlap", over, False),
        ("L2(2)-v2v-clear", l2, v2v, "clear", low, False),
        ("L2(2)-v2v-overlap", l2, v2v, "overlap", low, False),
        ("L2(4)-p2v-standby", l2x4, p2v, "standby", low, False),
        ("L2(4)-p2v-budget0", l2x4, p2v, "budget0", low, False),
    ]


class TestChaosDifferential:
    """Vswitch crash plans run batched: each crash and restore instant
    is a catch-up point, and every member -- in a batch or a fused
    registration that straddles an instant -- is judged by its own
    arrival, as the per-frame oracle judges each frame.  Everything the
    oracle observes matches, down to the pass counter the session reads
    at each instant."""

    @pytest.mark.parametrize("case", _chaos_cases(),
                             ids=lambda case: case[0])
    def test_matches_oracle(self, case):
        _label, spec, traffic, plan_name, (rates, duration), metering = case
        n = spec.num_vswitch_vms if spec.level.is_mts else 1
        plan = _chaos_plans(n)(duration / 0.03)[plan_name]
        oracle_path, oracle = _chaos_run(spec, traffic, plan, rates,
                                         duration, False, metering)
        path, batched = _chaos_run(spec, traffic, plan, rates, duration,
                                   True, metering)
        assert (oracle_path, path) == ("oracle", "batched")
        assert oracle["summary"]["fault_drops"] > 0  # the crash bit
        _assert_exact(oracle, batched)
        for key in ("bridge_drops", "summary", "outages", "events",
                    "reads"):
            assert oracle[key] == batched[key], key

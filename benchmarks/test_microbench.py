"""Micro-benchmarks of the simulator's own hot paths.

These keep the reproduction usable: the DES must push enough simulated
packets per wall-clock second that the latency experiments stay cheap.
"""

import pytest

from repro.net import Frame, IPv4Address, MacAddress
from repro.net.interfaces import PortPair
from repro.sim import Simulator
from repro.sriov.switch import VebSwitch, UNTAGGED
from repro.sriov.vf import VirtualFunction
from repro.vswitch import FlowMatch, FlowRule, FlowTable, Output


def _build_1k_table(fastpath: bool) -> FlowTable:
    """A 1000-rule table with mixed wildcard masks and priorities --
    the scale at which the linear scan collapses and tuple-space search
    does not."""
    table = FlowTable(fastpath=fastpath)
    for i in range(1000):
        t = i % 4
        ip = IPv4Address.parse(f"10.{t}.{(i // 4) % 25}.10")
        port = (i % 10) + 1
        shape = i % 3
        if shape == 0:
            match = FlowMatch(in_port=port, dst_ip=ip)
        elif shape == 1:
            match = FlowMatch(dst_ip=ip, dst_port=1000 + (i % 5))
        else:
            match = FlowMatch(in_port=port, dst_ip=ip,
                              dst_port=1000 + (i % 5))
        table.add(FlowRule(match=match, actions=[Output(1)],
                           priority=100 + shape * 100, tenant_id=t))
    return table


def _lookup_workload(n: int = 256):
    """(frame, in_port) pairs spread across the 1k-rule table's keyspace
    (a steady-state working set the EMC can hold)."""
    pairs = []
    for j in range(n):
        frame = Frame(src_mac=MacAddress(1), dst_mac=MacAddress(2),
                      dst_ip=IPv4Address.parse(f"10.{j % 4}.{j % 25}.10"),
                      dst_port=1000 + (j % 5))
        pairs.append((frame, (j % 10) + 1))
    return pairs


@pytest.mark.benchmark(group="micro")
def test_flow_table_lookup_rate(benchmark):
    """Steady-state lookups against a 1k-rule table (fast path on)."""
    table = _build_1k_table(fastpath=True)
    workload = _lookup_workload()

    def sweep():
        hits = 0
        for frame, in_port in workload:
            if table.lookup(frame, in_port) is not None:
                hits += 1
        return hits

    assert benchmark(sweep) > 0


@pytest.mark.benchmark(group="micro")
def test_flow_table_lookup_linear_1k(benchmark):
    """The retained linear-scan oracle on the same table/workload --
    the pre-fast-path baseline the speedup criterion compares against."""
    table = _build_1k_table(fastpath=False)
    workload = _lookup_workload()

    def sweep():
        hits = 0
        for frame, in_port in workload:
            if table.lookup(frame, in_port) is not None:
                hits += 1
        return hits

    assert benchmark(sweep) > 0


@pytest.mark.benchmark(group="micro")
def test_flow_table_classifier_miss_rate(benchmark):
    """Tuple-space search alone (the EMC-miss path): probes the private
    classifier directly so the EMC cannot absorb the repeats."""
    table = _build_1k_table(fastpath=True)
    frame = Frame(src_mac=MacAddress(1), dst_mac=MacAddress(2),
                  dst_ip=IPv4Address.parse("10.3.24.10"), dst_port=1003)
    result = benchmark(table._classify, frame, 10)
    assert result is not None


@pytest.mark.benchmark(group="micro")
def test_flow_table_emc_hit_rate(benchmark):
    """Single-flow steady state: every lookup after the first is one
    EMC dict probe."""
    table = _build_1k_table(fastpath=True)
    frame = Frame(src_mac=MacAddress(1), dst_mac=MacAddress(2),
                  dst_ip=IPv4Address.parse("10.3.24.10"), dst_port=1003)
    table.lookup(frame, 10)  # install
    result = benchmark(table.lookup, frame, 10)
    assert result is not None
    assert table.emc_stats.hits > 0


def test_fastpath_speedup_vs_linear():
    """Acceptance gate: the fast path must be >=10x the linear scan on
    a 1k-rule table (plain timing, no benchmark fixture, so the ratio
    is enforced on every benchmark run)."""
    import time

    fast = _build_1k_table(fastpath=True)
    linear = _build_1k_table(fastpath=False)
    workload = _lookup_workload()

    def timed(table, rounds):
        for frame, in_port in workload:  # warm the caches
            table.lookup(frame, in_port)
        t0 = time.perf_counter()
        for _ in range(rounds):
            for frame, in_port in workload:
                table.lookup(frame, in_port)
        return (time.perf_counter() - t0) / (rounds * len(workload))

    linear_us = timed(linear, rounds=3) * 1e6
    fast_us = timed(fast, rounds=50) * 1e6
    speedup = linear_us / fast_us
    print(f"\nlinear={linear_us:.2f}us fast={fast_us:.3f}us "
          f"speedup={speedup:.0f}x")
    assert speedup >= 10.0


@pytest.mark.benchmark(group="micro")
def test_veb_forwarding_rate(benchmark):
    veb = VebSwitch()
    vfs = []
    for i in range(16):
        vf = VirtualFunction(index=i, pf_index=0)
        vf.mac = MacAddress(0x100 + i)
        vf.vlan = 100 + (i % 4)
        veb.attach(vf)
        vfs.append(vf)
    frame = Frame(src_mac=MacAddress(0x100), dst_mac=MacAddress(0x104))
    decision = benchmark(veb.forward, "pf0vf0", 100, frame)
    assert decision.destinations


@pytest.mark.benchmark(group="micro")
def test_des_event_rate(benchmark):
    def run_chain():
        sim = Simulator()
        count = [0]

        def hop():
            count[0] += 1
            if count[0] < 5000:
                sim.call_later(1e-6, hop)

        sim.call_later(0.0, hop)
        sim.run()
        return count[0]

    assert benchmark(run_chain) == 5000


@pytest.mark.benchmark(group="micro")
def test_frame_copy_rate(benchmark):
    frame = Frame(src_mac=MacAddress(1), dst_mac=MacAddress(2),
                  dst_ip=IPv4Address.parse("10.0.0.10"), vlan=100)
    copy = benchmark(frame.copy)
    assert copy.vlan == 100


@pytest.mark.benchmark(group="micro")
def test_megaflow_hit_rate(benchmark):
    from repro.vswitch.megaflow import MegaflowCache
    cache = MegaflowCache()
    frame = Frame(src_mac=MacAddress(1), dst_mac=MacAddress(2),
                  dst_ip=IPv4Address.parse("10.0.0.10"), src_port=1234)
    cache.lookup_cost(frame, 1)  # install
    cost = benchmark(cache.lookup_cost, frame, 1)
    assert cost == 0.0


@pytest.mark.benchmark(group="micro")
def test_ofctl_parse_rate(benchmark):
    from repro.vswitch.ofctl import parse_flow
    rule = benchmark(
        parse_flow,
        "table=0,priority=200,in_port=1,ip,nw_dst=10.0.0.10,"
        "actions=mod_dl_dst:02:4d:54:00:00:07,output:3")
    assert rule.priority == 200


@pytest.mark.benchmark(group="micro")
def test_deployment_build_rate(benchmark):
    """Building a full L2(2) deployment (VMs, VFs, rules, filters) --
    the cost of one experiment iteration."""
    from repro.core import SecurityLevel, TrafficScenario, build_deployment
    from repro.core.spec import DeploymentSpec

    def build():
        spec = DeploymentSpec(level=SecurityLevel.LEVEL_2,
                              num_vswitch_vms=2)
        return build_deployment(spec, TrafficScenario.P2V)

    deployment = benchmark(build)
    assert len(deployment.vswitch_vms) == 2


@pytest.mark.benchmark(group="micro")
def test_burst_emission_rate(benchmark):
    """LoadGenerator with the DPDK-style burst=32 emitter: DES events
    per simulated packet drop ~32x vs per-frame scheduling."""
    from repro.net.link import Link
    from repro.traffic.generator import FlowConfig, LoadGenerator
    from repro.traffic.sink import Sink
    from repro.units import GBPS

    def run():
        sim = Simulator()
        sink = Sink()
        link = Link(sim, dst=sink.port, bandwidth_bps=10 * GBPS)
        lg = LoadGenerator(sim, link)
        lg.add_flow(FlowConfig(
            flow_id=0, dst_mac=MacAddress(2),
            dst_ip=IPv4Address.parse("10.0.0.10"),
            src_mac=MacAddress(1),
            src_ip=IPv4Address.parse("192.168.0.1"),
            rate_pps=1_000_000))
        lg.start(duration=0.01)
        sim.run()
        return lg.sent

    # FP accumulation of the analytic timestamps can land one frame a
    # hair inside the stop time: 10k +/- 1.
    assert benchmark(run) >= 10_000


@pytest.mark.benchmark(group="e2e")
def test_e2e_des_packet_rate(benchmark):
    """End-to-end Fig. 5 throughput topology (MTS L2, 2 vswitch VMs,
    4 tenant flows) -- the wall-clock cost of one DES experiment run.
    Simulated packets per wall-second is the tentpole metric; the
    window here is short so the benchmark stays cheap."""
    from repro.core import SecurityLevel, TrafficScenario, build_deployment
    from repro.core.spec import DeploymentSpec
    from repro.traffic import TestbedHarness

    def run():
        spec = DeploymentSpec(level=SecurityLevel.LEVEL_2,
                              num_vswitch_vms=2)
        d = build_deployment(spec, TrafficScenario.P2V)
        h = TestbedHarness(d, batch=False)
        h.configure_tenant_flows(rate_per_flow_pps=200_000)
        result = h.run(duration=0.01)
        return result.sent

    assert benchmark(run) == 8001


@pytest.mark.benchmark(group="e2e")
def test_e2e_batched_packet_rate(benchmark):
    """The same Fig. 5 e2e run through the batched mediation chain
    (struct-of-arrays FrameBatch + fused routes) -- the fast path's
    wall-clock cost.  tool/bench.py divides test_e2e_des_packet_rate's
    min by this benchmark's for the batch speedup factor (gated
    >= 2.5x, ROADMAP target 3x).  The oracle is run once, untimed, and
    the batched path must deliver the identical frame count."""
    from repro.core import SecurityLevel, TrafficScenario, build_deployment
    from repro.core.spec import DeploymentSpec
    from repro.traffic import TestbedHarness

    def run(batch):
        spec = DeploymentSpec(level=SecurityLevel.LEVEL_2,
                              num_vswitch_vms=2)
        d = build_deployment(spec, TrafficScenario.P2V)
        h = TestbedHarness(d, batch=batch)
        h.configure_tenant_flows(rate_per_flow_pps=200_000)
        result = h.run(duration=0.01)
        return result.sent, result.delivered

    oracle_sent, oracle_delivered = run(batch=False)
    sent, delivered = benchmark(run, True)
    assert (sent, delivered) == (oracle_sent, oracle_delivered)
    assert sent == 8001


@pytest.mark.benchmark(group="e2e")
def test_e2e_attributed_packet_rate(benchmark):
    """test_e2e_batched_packet_rate's run under the latency-attribution
    tap, its means read -- the tap's cost on the batched chain.
    tool/bench.py divides this benchmark's min by the batched one's for
    the attribution overhead factor (gated <= 1.3x)."""
    from repro import obs
    from repro.core import SecurityLevel, TrafficScenario, build_deployment
    from repro.core.spec import DeploymentSpec
    from repro.traffic import TestbedHarness

    def run():
        spec = DeploymentSpec(level=SecurityLevel.LEVEL_2,
                              num_vswitch_vms=2)
        d = build_deployment(spec, TrafficScenario.P2V)
        h = TestbedHarness(d)
        h.configure_tenant_flows(rate_per_flow_pps=200_000)
        with obs.attributing(h.egress_link.name) as tap:
            result = h.run(duration=0.01)
        assert result.oracle_reason is None
        assert tap.means()["tenant"] > 0
        return result.sent, result.delivered, tap.captured

    sent, delivered, captured = benchmark(run)
    assert sent == 8001
    assert captured >= delivered > 0


@pytest.mark.benchmark(group="e2e")
def test_e2e_metered_packet_rate(benchmark):
    """The same Fig. 5 e2e run with per-tenant METERING armed -- the
    billing tap + windowing cost.  tool/bench.py divides this
    benchmark's min by test_e2e_des_packet_rate's for the
    metering-enabled overhead factor (gated <= 1.6x); the metering-OFF
    path rides the regular 20% regression gate on the des benchmark."""
    from repro.billing.session import MeteringSession
    from repro.core import SecurityLevel, TrafficScenario, build_deployment
    from repro.core.spec import DeploymentSpec
    from repro.traffic import TestbedHarness

    def run():
        spec = DeploymentSpec(level=SecurityLevel.LEVEL_2,
                              num_vswitch_vms=2)
        d = build_deployment(spec, TrafficScenario.P2V)
        h = TestbedHarness(d, batch=False)
        h.configure_tenant_flows(rate_per_flow_pps=200_000)
        session = MeteringSession(d, h, interval=0.002)
        session.arm(0.01)
        result = h.run(duration=0.01)
        summary = session.finish()
        assert summary["reconciled"], summary["failures"]
        assert summary["windows"] >= 5
        return result.sent

    assert benchmark(run) == 8001


@pytest.mark.benchmark(group="e2e")
def test_e2e_traced_packet_rate(benchmark):
    """The same Fig. 5 e2e run with the packet tracer ENABLED -- the
    recording path's cost.  tool/bench.py divides this benchmark's min
    by test_e2e_des_packet_rate's to report the enabled-tracer overhead
    factor; the disabled path is what the 20% regression gate protects."""
    from repro import obs
    from repro.core import SecurityLevel, TrafficScenario, build_deployment
    from repro.core.spec import DeploymentSpec
    from repro.traffic import TestbedHarness

    def run():
        spec = DeploymentSpec(level=SecurityLevel.LEVEL_2,
                              num_vswitch_vms=2)
        d = build_deployment(spec, TrafficScenario.P2V)
        tracer = obs.enable_tracing(d.sim)
        try:
            h = TestbedHarness(d, batch=False)
            h.configure_tenant_flows(rate_per_flow_pps=200_000)
            result = h.run(duration=0.01)
            # len(tracer) counts accepted records without forcing the
            # lazy Span materialization (a query-time cost by design).
            assert len(tracer) > result.sent  # actually recording
            return result.sent
        finally:
            obs.disable_tracing()

    assert benchmark(run) == 8001


def _cache_busting_run(batch):
    """The policy-injection experiment's L1 run, shortened: 40 kpps of
    randomized-source-port traffic and three 10 kpps victims, p2v."""
    from repro.core import SecurityLevel, TrafficScenario, build_deployment
    from repro.core.spec import DeploymentSpec
    from repro.experiments import policy_injection as pi
    from repro.traffic import TestbedHarness

    spec = DeploymentSpec(level=SecurityLevel.LEVEL_1)
    d = build_deployment(spec, TrafficScenario.P2V)
    h = TestbedHarness(d, batch=batch)
    h.add_tenant_flow(pi.ATTACKER, pi.ATTACK_RATE_PPS,
                      randomize_src_port=True)
    for victim in pi.VICTIMS:
        h.add_tenant_flow(victim, pi.VICTIM_RATE_PPS)
    result = h.run(duration=0.03)
    return result.sent, result.delivered, result.path


@pytest.mark.benchmark(group="e2e")
def test_e2e_cache_busting_oracle_rate(benchmark):
    """The cache-busting shape on the per-frame oracle: every frame
    misses the flow cache and pays an upcall.  tool/bench.py divides
    this benchmark's min by test_e2e_cache_busting_batched_rate's for
    the cache-busting speedup factor (gated >= 2x)."""
    sent, _, path = benchmark(_cache_busting_run, False)
    assert (sent, path) == (2100, "oracle")


@pytest.mark.benchmark(group="e2e")
def test_e2e_cache_busting_batched_rate(benchmark):
    """The same run on the batched chain (the default), with the
    identical sent and delivered counts as the oracle."""
    oracle = _cache_busting_run(False)
    result = benchmark(_cache_busting_run, True)
    assert result[:2] == oracle[:2]
    assert result[2] == "batched"


@pytest.mark.benchmark(group="e2e")
def test_e2e_controlplane_packet_rate(benchmark):
    """The same Fig. 5 e2e run with an IDLE resident control plane
    sharing the simulator -- heartbeat probes and autoscaler ticks ride
    the event loop, but no tenants arrive, so this prices the service's
    standing overhead.  tool/bench.py divides this benchmark's min by
    test_e2e_des_packet_rate's for the control-plane overhead factor
    (gated <= 1.1x).  Probe/tick periods are shrunk to fire ~10x/5x in
    the 10 ms window; at the default 50 ms heartbeat they would never
    fire and the benchmark would price nothing."""
    from repro.controlplane import AutoscalePolicySpec, ChurnPlan, ControlPlane
    from repro.core import SecurityLevel, TrafficScenario, build_deployment
    from repro.core.spec import DeploymentSpec
    from repro.traffic import TestbedHarness

    def run():
        spec = DeploymentSpec(level=SecurityLevel.LEVEL_2,
                              num_vswitch_vms=2)
        d = build_deployment(spec, TrafficScenario.P2V)
        h = TestbedHarness(d, batch=False)
        h.configure_tenant_flows(rate_per_flow_pps=200_000)
        plan = ChurnPlan(
            duration=0.01, arrival_rate=0.0, heartbeat=0.001,
            autoscale=AutoscalePolicySpec(interval=0.002, cooldown=0.004))
        service = ControlPlane(plan, seed=0, sim=d.sim)
        service.start(horizon=0.01)
        result = h.run(duration=0.01)
        values = service.finish()
        assert values["violations"] == 0
        return result.sent

    assert benchmark(run) == 8001


@pytest.mark.benchmark(group="micro")
def test_capacity_solve_rate(benchmark):
    from repro.core import SecurityLevel, TrafficScenario, build_deployment
    from repro.core.spec import DeploymentSpec
    from repro.perfmodel.paths import throughput
    spec = DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=2)
    d = build_deployment(spec, TrafficScenario.P2V)
    result = benchmark(throughput, d, TrafficScenario.P2V)
    assert result.aggregate_pps > 0


def _jitter_workload():
    """1,024 frame-id keys and the kernel datapath's two draw sites (the
    interrupt wait and the shared-core wait of one bridge pass)."""
    import random
    from repro.sim.hashjit import HashJitter
    rng = random.Random(0)
    ids = [rng.getrandbits(24) for _ in range(1024)]
    sites = (HashJitter.SITE_FIXED_WAIT, HashJitter.SITE_SCHED_WAIT)
    return HashJitter.from_name("vswitch-vm0.br0"), ids, sites


@pytest.mark.benchmark(group="micro")
def test_jitter_scalar_draw_rate(benchmark):
    """One ``unit()`` call per key and site: the per-member draws of a
    1,024-member bridge pass (the pass key packs ingress port 3)."""
    jitter, ids, sites = _jitter_workload()
    unit = jitter.unit

    def draw():
        return [unit((k << 6) | 3, s) for k in ids for s in sites]

    assert len(benchmark(draw)) == 2048


@pytest.mark.benchmark(group="micro")
def test_jitter_lane_draw_rate(benchmark):
    """The same 2,048 draws in one lane pass (``HashJitter.units``)."""
    jitter, ids, sites = _jitter_workload()
    unit = jitter.unit
    draws = benchmark(jitter.units, ids, sites, 6, 3)
    assert draws == [unit((k << 6) | 3, s) for k in ids for s in sites]

"""Unified telemetry: metrics registry, packet tracer, and the e2e
journey reconstruction over the Fig. 3 mediation chain."""

import math

import pytest

from repro import obs
from repro.core import (ResourceMode, SecurityLevel, TrafficScenario,
                        build_deployment)
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.trace import NullTracer, PacketTracer, journeys_from_jsonl
from repro.traffic import TestbedHarness
from tests.conftest import make_spec


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test leaves the module-level tracer/registry pristine."""
    yield
    obs.disable_tracing()
    obs.REGISTRY.reset()


class _FakeFrame:
    """The minimal frame surface the tracer hooks touch."""

    def __init__(self, frame_id=1, tenant_id=0, size=64):
        self.frame_id = frame_id
        self.tenant_id = tenant_id
        self._size = size

    def wire_size(self):
        return self._size


class TestMetricsRegistry:
    def test_counter_records_sim_time_and_rate(self):
        t = [0.0]
        registry = MetricsRegistry(clock=lambda: t[0])
        c = registry.counter("frames_total", "frames seen")
        c.inc()
        t[0] = 2.0
        c.inc(3)
        child = c.labels() if c.label_names else c._only()
        assert child.value == 4
        assert child.first_t == 0.0 and child.last_t == 2.0
        assert child.rate() == pytest.approx(4 / 2.0)

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert registry.snapshot()["depth"] == 6

    def test_labels_create_independent_children(self):
        registry = MetricsRegistry()
        c = registry.counter("drops_total", labels=("reason",))
        c.labels(reason="spoof").inc()
        c.labels(reason="spoof").inc()
        c.labels(reason="no_match").inc()
        snap = registry.snapshot()
        assert snap['drops_total{reason="spoof"}'] == 2
        assert snap['drops_total{reason="no_match"}'] == 1

    def test_label_schema_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("x", labels=("b",))
        with pytest.raises(ValueError):
            registry.gauge("x", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("x", labels=("a",)).labels(wrong="v")

    def test_histogram_buckets_and_summary(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 2.0, 5.0, 50.0):
            h.observe(v)
        child = h._only()
        cum = child.cumulative_buckets()
        assert cum == [(1.0, 1), (10.0, 3), (math.inf, 4)]
        stats = child.summary()
        assert stats.count == 4
        assert stats.minimum == 0.5 and stats.maximum == 50.0

    def test_histogram_empty_summary_is_empty_safe(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat")
        stats = h._only().summary()
        assert stats.is_empty
        assert math.isnan(stats.median)

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("frames_total", "frames").inc(7)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = registry.prometheus_text()
        assert "# TYPE frames_total counter" in text
        assert "frames_total 7.0" in text
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="1.0"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_collectors_run_at_snapshot(self):
        registry = MetricsRegistry()
        local = {"n": 3}
        registry.register_collector(
            lambda r: r.gauge("pulled").set(local["n"]))
        assert registry.snapshot()["pulled"] == 3
        local["n"] = 9
        assert registry.snapshot()["pulled"] == 9

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestNullTracer:
    def test_disabled_hooks_are_the_shared_noop(self):
        # Zero-cost disabled identity: every hook is literally the same
        # function object, returns None, and the class reports disabled.
        tracer = NullTracer()
        assert tracer.enabled is False
        hooks = [tracer.kernel_run, tracer.link_send, tracer.flow_lookup,
                 tracer.bridge_rx, tracer.bridge_tx, tracer.veb_forward,
                 tracer.nic_filter, tracer.hop, tracer.drop]
        assert len({id(h) for h in hooks}) == 1
        assert tracer.drop("c", _FakeFrame(), "reason") is None

    def test_enable_disable_swaps_module_global(self):
        assert not obs.tracing_enabled()
        tracer = obs.enable_tracing()
        assert obs.TRACER is tracer and obs.tracing_enabled()
        obs.disable_tracing()
        assert not obs.tracing_enabled()
        assert isinstance(obs.TRACER, NullTracer)


class TestPacketTracer:
    def test_equal_timestamp_spans_keep_record_order(self):
        # A cached pipeline pass emits several spans at one sim instant;
        # the journey must replay them in exact record order via seq.
        tracer = PacketTracer(clock=lambda: 1.5)
        frame = _FakeFrame(frame_id=7)
        tracer.bridge_rx("br0", frame, 1, True)
        tracer.flow_lookup("br0.table0", frame, 1, None, "plan")
        tracer.bridge_tx("br0", frame, 2)
        journey = tracer.journey(7)
        assert [s.kind for s in journey] == [
            "vswitch.rx", "flowtable.lookup", "vswitch.tx"]
        assert [s.seq for s in journey] == sorted(s.seq for s in journey)
        assert all(s.start == 1.5 for s in journey)

    def test_drop_reason_recorded(self):
        tracer = PacketTracer()
        tracer.drop("nic.p0", _FakeFrame(frame_id=3, tenant_id=2), "spoof")
        drops = tracer.drops()
        assert len(drops) == 1
        assert drops[0].outcome == "spoof"
        assert drops[0].component == "nic.p0"
        assert drops[0].tenant == 2

    def test_filter_verdict_drops_are_drops(self):
        tracer = PacketTracer()
        tracer.nic_filter("nic.p0", "pf0vf1", _FakeFrame(), "spoof_drop")
        tracer.nic_filter("nic.p0", "pf0vf2", _FakeFrame(), "pass")
        assert len(tracer.drops()) == 1

    def test_capacity_bounds_memory(self):
        tracer = PacketTracer(capacity=2)
        frame = _FakeFrame()
        for _ in range(5):
            tracer.drop("c", frame, "r")
        assert len(tracer.spans) == 2
        assert tracer.spans_dropped == 3

    def test_link_send_splits_enqueue_and_tx(self):
        tracer = PacketTracer()
        frame = _FakeFrame(frame_id=9)
        # Queued behind a busy link: submit at 1.0, starts at 2.0.
        tracer.link_send("link.a", frame, 1.0, 2.0, 2.5, 3.0)
        kinds = [s.kind for s in tracer.journey(9)]
        assert kinds == ["link.enqueue", "link.tx"]
        # Idle link: no enqueue span.
        tracer.clear()
        tracer.link_send("link.a", frame, 1.0, 1.0, 1.5, 2.0)
        assert [s.kind for s in tracer.journey(9)] == ["link.tx"]

    def test_jsonl_round_trip(self):
        tracer = PacketTracer(clock=lambda: 0.25)
        frame = _FakeFrame(frame_id=11, tenant_id=1)
        tracer.bridge_rx("br0", frame, 1, False)
        tracer.drop("br0", frame, "no_match")
        journeys = journeys_from_jsonl(tracer.to_jsonl())
        assert set(journeys) == {11}
        spans = journeys[11]
        assert [s.kind for s in spans] == ["vswitch.rx", "drop"]
        assert spans[0].tenant == 1
        assert spans[1].outcome == "no_match"


def _traced_l2_run(tmp_path, duration=0.01):
    spec = make_spec(level=SecurityLevel.LEVEL_2, vms=2, tenants=2)
    deployment = build_deployment(spec, TrafficScenario.P2V)
    tracer = obs.enable_tracing(deployment.sim)
    harness = TestbedHarness(deployment)
    harness.configure_tenant_flows(rate_per_flow_pps=1000)
    result = harness.run(duration=duration)
    path = tmp_path / "spans.jsonl"
    from repro.obs.export import write_spans_jsonl
    write_spans_jsonl(tracer, str(path))
    return deployment, tracer, result, path


#: The topologies whose hops differ: NIC hairpins (MTS), vhost
#: crossings and the tenant Linux bridge (Baseline), chained tenants
#: (v2v) and the DPDK datapath.
BREAKDOWN_TOPOLOGIES = [
    pytest.param(make_spec(level=SecurityLevel.LEVEL_1),
                 TrafficScenario.P2V, id="L1-p2v"),
    pytest.param(make_spec(level=SecurityLevel.LEVEL_2, vms=2),
                 TrafficScenario.V2V, id="L2(2)-v2v"),
    pytest.param(make_spec(level=SecurityLevel.BASELINE),
                 TrafficScenario.P2V, id="Baseline-p2v"),
    pytest.param(make_spec(level=SecurityLevel.BASELINE),
                 TrafficScenario.V2V, id="Baseline-v2v"),
    pytest.param(make_spec(level=SecurityLevel.BASELINE,
                           mode=ResourceMode.ISOLATED, user_space=True),
                 TrafficScenario.P2V, id="Baseline+L3-p2v"),
]


class TestEndToEndJourney:
    """Acceptance: a traced Level-2 run yields a JSONL dump from which a
    complete per-hop journey reconstructs, in Fig. 3 chain order, with
    monotonically non-decreasing sim timestamps."""

    def test_level2_journey_visits_fig3_chain_in_order(self, tmp_path):
        deployment, tracer, result, path = _traced_l2_run(tmp_path)
        assert result.delivered > 0
        journeys = journeys_from_jsonl(path.read_text())
        assert journeys  # at least one packet reconstructs

        spans = journeys[min(journeys)]
        hops = [(s.component, s.kind) for s in spans]
        # Fig. 3 ingress+egress chain: LG wire -> port-0 VEB -> vswitch
        # compartment (lookup + tx) -> NIC filter on the gateway VF ->
        # ... -> egress VEB -> sink wire.
        expected_order = [
            ("link.lg-dut", "link.tx"),
            ("veb0", "veb.forward"),
            ("vsw0.br0", "vswitch.rx"),
            ("vsw0.br0.table0", "flowtable.lookup"),
            ("vsw0.br0", "vswitch.tx"),
            ("nic.p0", "nic.filter"),
            ("link.dut-sink", "link.tx"),
        ]
        positions = []
        for hop in expected_order:
            assert hop in hops, f"journey missing {hop}: {hops}"
            positions.append(hops.index(hop))
        assert positions == sorted(positions), (
            f"chain hops out of order: {hops}")

        starts = [s.start for s in spans]
        assert starts == sorted(starts)
        assert all(s.end >= s.start for s in spans)

    @pytest.mark.parametrize("spec,scenario", BREAKDOWN_TOPOLOGIES)
    def test_breakdown_matches_frame_wire_accounting(self, spec, scenario):
        """Every delay a frame meets lies in exactly one span: for every
        delivered frame, the per-stage breakdown sums to the whole
        journey, from wire entry at the generator to sink arrival."""
        deployment = build_deployment(spec, scenario)
        harness = TestbedHarness(deployment)
        harness.configure_tenant_flows(rate_per_flow_pps=1000)
        with obs.tracing(deployment.sim) as tracer:
            result = harness.run(duration=0.01)
        delivered = 0
        for trace_id in tracer.trace_ids():
            journey = tracer.journey(trace_id)
            if journey[-1].component != "link.dut-sink":
                continue
            delivered += 1
            assert journey[0].component == "link.lg-dut"
            elapsed = journey[-1].end - journey[0].start
            breakdown = tracer.breakdown(trace_id)
            assert breakdown["link.tx"] > 0.0
            assert sum(breakdown.values()) == pytest.approx(elapsed,
                                                            rel=0, abs=1e-12)
        assert delivered == result.delivered > 0

    def test_tenants_separate_in_summary_tables(self, tmp_path):
        from repro.obs.export import tenant_hop_table, tenant_latency_table
        deployment, tracer, result, path = _traced_l2_run(tmp_path)
        hop_table = tenant_hop_table(tracer).render()
        assert "tenant0" in hop_table and "tenant1" in hop_table
        assert "veb.forward" in hop_table
        latency_table = tenant_latency_table(tracer).render()
        assert "tenant0" in latency_table

    def test_harvest_is_delta_based(self, tmp_path):
        deployment, tracer, result, path = _traced_l2_run(tmp_path)
        # TestbedHarness.run already harvested once; a second harvest
        # with no traffic in between must contribute nothing.
        delta = obs.harvest(deployment, obs.REGISTRY)
        assert all(v == 0 for v in delta.values())
        line = obs.cache_efficacy_line(obs.REGISTRY)
        assert line is not None and "emc" in line

    def test_registry_cache_counters_populated(self, tmp_path):
        deployment, tracer, result, path = _traced_l2_run(tmp_path)
        snap = obs.REGISTRY.snapshot()
        assert snap.get('cache_lookups_total{cache="plan"}', 0) > 0
        assert snap.get('cache_lookups_total{cache="veb_memo"}', 0) > 0


class TestDisabledOverheadPath:
    def test_disabled_run_records_nothing(self):
        spec = make_spec(level=SecurityLevel.LEVEL_1)
        deployment = build_deployment(spec, TrafficScenario.P2V)
        assert not obs.tracing_enabled()
        harness = TestbedHarness(deployment)
        harness.configure_tenant_flows(rate_per_flow_pps=1000)
        result = harness.run(duration=0.005)
        assert result.delivered > 0
        assert isinstance(obs.TRACER, NullTracer)
        # The harness still harvests cache counters even when tracing
        # is off -- metrics are pull-based, tracing is the opt-in part.
        snap = obs.REGISTRY.snapshot()
        assert snap.get('cache_lookups_total{cache="plan"}', 0) > 0

"""Load generator and testbed harness."""

import pytest

from repro.core import SecurityLevel, TrafficScenario, build_deployment
from repro.net import Frame, IPv4Address, Link, MacAddress, Port
from repro.sim import Simulator
from repro.traffic import FlowConfig, LoadGenerator, TestbedHarness
from tests.conftest import make_spec


def flow(flow_id=0, rate=1000.0, **kwargs):
    defaults = dict(
        flow_id=flow_id,
        dst_mac=MacAddress(2),
        dst_ip=IPv4Address.parse("10.0.0.10"),
        src_mac=MacAddress(1),
        src_ip=IPv4Address.parse("192.168.1.10"),
        rate_pps=rate,
    )
    defaults.update(kwargs)
    return FlowConfig(**defaults)


class TestLoadGenerator:
    def _lg(self):
        sim = Simulator()
        received = []
        port = Port("dut", lambda f: received.append(f))
        link = Link(sim, port)
        return sim, LoadGenerator(sim, link), received

    def test_emits_at_configured_rate(self):
        sim, lg, received = self._lg()
        lg.add_flow(flow(rate=1000))
        lg.start(duration=0.1)
        sim.run()
        assert len(received) == pytest.approx(100, abs=2)

    def test_stops_at_duration(self):
        sim, lg, received = self._lg()
        lg.add_flow(flow(rate=1000))
        lg.start(duration=0.01)
        sim.run()
        first_burst = len(received)
        sim2_events = sim.pending()
        assert sim2_events == 0  # generator fully stopped

    def test_multiple_flows_phase_shifted(self):
        sim, lg, received = self._lg()
        for i in range(4):
            lg.add_flow(flow(flow_id=i, rate=1000))
        lg.start(duration=0.01)
        sim.run()
        # First four frames do not arrive at the same instant.
        times = sorted({f.created_at for f in received[:4]})
        assert len(times) == 4

    def test_frames_carry_flow_identity(self):
        sim, lg, received = self._lg()
        lg.add_flow(flow(flow_id=3, tenant_id=3))
        lg.start(duration=0.002)
        sim.run()
        assert all(f.flow_id == 3 and f.tenant_id == 3 for f in received)

    def test_aggregate_rate(self):
        _, lg, _ = self._lg()
        for i in range(4):
            lg.add_flow(flow(flow_id=i, rate=2500))
        assert lg.aggregate_rate_pps == 10_000

    def test_no_flows_rejected(self):
        _, lg, _ = self._lg()
        with pytest.raises(ValueError):
            lg.start(duration=1.0)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            flow(rate=0)


class TestBurstRamp:
    """Batched emission ramps its bursts from one frame up to
    ``burst``; per-frame emission keeps fixed bursts."""

    def _bursts(self, batch, runs=1):
        """Frames per emission event, one list per ``start()``."""
        sim = Simulator()
        received = []
        link = Link(sim, Port("dut", received.append))
        lg = LoadGenerator(sim, link, burst=8)
        lg.batch = batch
        lg.add_flow(flow(rate=1000))
        send, send_interleaved = link.send, link.send_interleaved
        bursts = []

        def per_frame(frame, at=None):
            # Frames of one emission event share its instant.
            if not bursts[-1] or bursts[-1][-1][0] != sim.now:
                bursts[-1].append([sim.now, 0])
            bursts[-1][-1][1] += 1
            send(frame, at=at)

        def batched(batches):
            bursts[-1].append([sim.now, sum(len(b) for b in batches)])
            send_interleaved(batches)

        link.send, link.send_interleaved = per_frame, batched
        for _ in range(runs):
            bursts.append([])
            lg.start(duration=0.05)
            sim.run()
        assert sum(n for run in bursts for _, n in run) == lg.sent
        return [[n for _, n in run] for run in bursts]

    def test_batched_bursts_double_up_to_the_cap(self):
        [sizes] = self._bursts(batch=True)
        assert sizes[:-1] == [1, 2, 4] + [8] * (len(sizes) - 4)
        assert 0 < sizes[-1] <= 8

    def test_start_restarts_the_ramp(self):
        first, second = self._bursts(batch=True, runs=2)
        assert first[:4] == second[:4] == [1, 2, 4, 8]

    def test_per_frame_bursts_stay_fixed(self):
        [sizes] = self._bursts(batch=False)
        assert sizes[:-1] == [8] * (len(sizes) - 1)
        assert 0 < sizes[-1] <= 8


class TestHarness:
    def test_result_fields_consistent(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        h.configure_tenant_flows(rate_per_flow_pps=1000)
        result = h.run(duration=0.02)
        assert result.sent == result.delivered
        assert result.loss_fraction == 0.0
        assert result.offered_pps == 4000
        assert len(result.latencies) > 0

    def test_flow_subset(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        h.configure_tenant_flows(rate_per_flow_pps=1000, tenants=[1, 3])
        h.run(duration=0.01)
        assert set(h.sink.per_flow) == {1, 3}

    def test_offered_rate_hint_propagated(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        h.configure_tenant_flows(rate_per_flow_pps=2500)
        h.run(duration=0.005)
        assert d.bridges[0].model.offered_rate_hint_pps == 10_000

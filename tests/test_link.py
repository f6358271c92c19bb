"""Links, serialization, taps and the latency monitor."""

import pytest

from repro.net import Frame, Link, MacAddress, OpticalTap, Port
from repro.net.packet import FrameBatch
from repro.sim import Simulator
from repro.traffic.sink import LatencyMonitor
from repro.units import GBPS


def frame(size=64, **kwargs):
    return Frame(src_mac=MacAddress(1), dst_mac=MacAddress(2),
                 size_bytes=size, **kwargs)


class TestLink:
    def test_delivery_after_serialization_and_propagation(self):
        sim = Simulator()
        received = []
        port = Port("dst", lambda f: received.append(sim.now))
        link = Link(sim, port, bandwidth_bps=10 * GBPS,
                    propagation_delay=1e-6)
        arrival = link.send(frame())
        sim.run()
        expected = (64 + 20) * 8 / 10e9 + 1e-6
        assert received == [pytest.approx(expected)]
        assert arrival == pytest.approx(expected)

    def test_back_to_back_frames_queue_on_the_wire(self):
        sim = Simulator()
        times = []
        port = Port("dst", lambda f: times.append(sim.now))
        link = Link(sim, port, bandwidth_bps=10 * GBPS)
        link.send(frame())
        link.send(frame())
        sim.run()
        gap = times[1] - times[0]
        assert gap == pytest.approx((64 + 20) * 8 / 10e9)

    def test_counters(self):
        sim = Simulator()
        link = Link(sim, Port("dst"))
        link.send(frame())
        assert link.tx_frames == 1
        assert link.tx_bytes == 64

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            Link(Simulator(), Port("dst"), bandwidth_bps=0)


class TestTapAndMonitor:
    def _wired(self):
        sim = Simulator()
        tap_in = OpticalTap("in")
        tap_out = OpticalTap("out")
        sink = Port("sink")
        link_out = Link(sim, sink, tap=tap_out)
        relay = Port("dut", lambda f: link_out.send(f))
        link_in = Link(sim, relay, tap=tap_in)
        monitor = LatencyMonitor(tap_in, tap_out)
        return sim, link_in, monitor

    def test_tap_sees_frames(self):
        sim, link_in, _ = self._wired()
        link_in.send(frame())
        sim.run()

    def test_monitor_pairs_frames_and_measures(self):
        sim, link_in, monitor = self._wired()
        link_in.send(frame())
        sim.run()
        assert len(monitor.samples) == 1
        assert monitor.samples[0].latency > 0

    def test_monitor_windows(self):
        sim, link_in, monitor = self._wired()
        for _ in range(3):
            link_in.send(frame())
        sim.run()
        t1 = sim.now + 1e-9
        assert len(monitor.latencies_in_window(0.0, t1)) == 3
        assert monitor.delivered_in_window(0.0, t1) == 3
        assert monitor.throughput_pps(0.0, 1.0) == 3.0
        # A window before any ingress is empty.
        assert monitor.latencies_in_window(-1.0, 0.0) == []

    def test_loss_count_tracks_unmatched_ingress(self):
        sim = Simulator()
        tap_in, tap_out = OpticalTap("in"), OpticalTap("out")
        blackhole = Port("dut", lambda f: None)
        link_in = Link(sim, blackhole, tap=tap_in)
        monitor = LatencyMonitor(tap_in, tap_out)
        link_in.send(frame())
        sim.run()
        assert monitor.loss_count() == 1
        assert monitor.samples == []

    def test_empty_window_rejected(self):
        _, _, monitor = self._wired()
        with pytest.raises(ValueError):
            monitor.throughput_pps(1.0, 1.0)


class TestHeldEgressRuns:
    """A held link hands the tap one run per batch per settle."""

    #: Two flows whose ready times interleave on the wire (ns).
    READY = {1: [100, 300, 500, 700], 2: [200, 400, 600, 800]}

    def _frames(self):
        frames = []
        fid = 0
        for flow, ready in self.READY.items():
            for t in ready:
                frames.append((t * 1e-9, frame(flow_id=flow, frame_id=fid)))
                fid += 1
        return frames

    def _run(self, batched):
        sim = Simulator()
        tap_in, tap_out = OpticalTap("in"), OpticalTap("out")
        monitor = LatencyMonitor(tap_in, tap_out)
        notes = []
        tap_out.observe(lambda f, now: notes.append(1),
                        batch=lambda batch, starts: notes.append(len(batch)))
        link_in = Link(sim, Port("dut", lambda f: None), tap=tap_in)
        link_out = Link(sim, Port("sink"), tap=tap_out)
        frames = self._frames()
        for t, f in frames:
            link_in.send(f, at=t / 2)
        if batched:
            link_out.hold(lambda: 0.0)  # nothing settles on hand-off
            for flow in (2, 1):
                members = [(t, f) for t, f in frames if f.flow_id == flow]
                link_out.send_batch(FrameBatch(
                    members[0][1], [f.frame_id for _, f in members],
                    [t for t, _ in members]))
            assert notes == []
            link_out.hold(None)  # one settle of both batches
        else:
            for t, f in sorted(frames, key=lambda x: x[0]):
                link_out.send(f, at=t)
        sim.run()
        samples = [(s.flow_id, s.t_in, s.t_out) for s in monitor.samples]
        return notes, samples, list(monitor.egress_times)

    def test_one_notification_per_batch_per_settle(self):
        notes, _, _ = self._run(batched=True)
        assert notes == [4, 4]

    def test_captures_match_frames_sent_one_at_a_time(self):
        _, samples, egress = self._run(batched=True)
        notes, ref_samples, ref_egress = self._run(batched=False)
        assert notes == [1] * 8
        assert samples == ref_samples
        assert egress == ref_egress
        assert [t for t, _ in egress] == sorted(t for t, _ in egress)
        assert [fl for _, fl in egress] == [1, 2] * 4

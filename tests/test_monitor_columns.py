"""The columnar latency monitor against the dict-and-tuple reference.

``ReferenceMonitor`` is the monitor as it was before it kept typed
columns: one pending dict entry per frame seen entering, and capture
tuples in two lazily sorted logs.  Both monitors watch the same pair of
taps, so every generated tap call reaches both, and every read must
agree: values and order.
"""

import gc
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.core import SecurityLevel, TrafficScenario, build_deployment
from repro.core.spec import DeploymentSpec
from repro.experiments import noisy_neighbor
from repro.net import Frame, MacAddress, OpticalTap
from repro.net.packet import FrameBatch
from repro.traffic import TestbedHarness
from repro.traffic.sink import LatencyMonitor, LatencySample


class _CaptureLog:
    """Capture tuples, capture time first, read back in capture order
    (``_log[:_unsorted]`` is in order and precedes the tail, which is
    sorted in at a read or once it holds more than 512 captures)."""

    def __init__(self) -> None:
        self._log: list = []
        self._unsorted: Optional[int] = None

    def append(self, capture: tuple) -> None:
        self._log.append(capture)

    def extend(self, run: list) -> None:
        log = self._log
        first = run[0]
        unsorted = self._unsorted
        if unsorted is None:
            if not log or first > log[-1]:
                log.extend(run)
                return
            unsorted = len(log)
        if unsorted and first < log[unsorted - 1]:
            unsorted = bisect_left(log, first, 0, unsorted)
        log.extend(run)
        if len(log) - unsorted > 512:
            self._sort(unsorted)
        else:
            self._unsorted = unsorted

    def ordered(self) -> list:
        if self._unsorted is not None:
            self._sort(self._unsorted)
        return self._log

    def _sort(self, start: int) -> None:
        log = self._log
        tail = log[start:]
        tail.sort()
        log[start:] = tail
        self._unsorted = None


class ReferenceMonitor:
    """The dict-and-tuple monitor: the behaviour the columns keep."""

    def __init__(self, ingress_tap: OpticalTap, egress_tap: OpticalTap) -> None:
        self._pending: Dict[int, Tuple[int, float]] = {}
        self._samples = _CaptureLog()
        self._egress = _CaptureLog()
        self.unmatched_egress = 0
        ingress_tap.observe(self._on_ingress, batch=self._on_ingress_batch)
        egress_tap.observe(self._on_egress, batch=self._on_egress_batch)

    @property
    def samples(self) -> List[LatencySample]:
        return [LatencySample(flow_id, t_in, t_out)
                for t_out, flow_id, t_in in self._samples.ordered()]

    @property
    def egress_times(self) -> List[Tuple[float, int]]:
        return self._egress.ordered()

    def _on_ingress(self, frame: Frame, now: float) -> None:
        self._pending[frame.frame_id] = (frame.flow_id, now)

    def _on_egress(self, frame: Frame, now: float) -> None:
        self._egress.append((now, frame.flow_id))
        entry = self._pending.pop(frame.frame_id, None)
        if entry is None:
            self.unmatched_egress += 1
            return
        flow_id, t_in = entry
        self._samples.append((now, flow_id, t_in))

    def _on_ingress_batch(self, batch: FrameBatch, starts: List[float]) -> None:
        flow_id = batch.frame.flow_id
        self._pending.update(
            zip(batch.frame_ids, [(flow_id, now) for now in starts]))

    def _on_egress_batch(self, batch: FrameBatch, starts: List[float]) -> None:
        if not starts:
            return
        flow_id = batch.frame.flow_id
        self._egress.extend([(now, flow_id) for now in starts])
        pop = self._pending.pop
        entries = [pop(fid, None) for fid in batch.frame_ids]
        found = [(now, entry[0], entry[1])
                 for entry, now in zip(entries, starts) if entry is not None]
        self.unmatched_egress += len(entries) - len(found)
        if found:
            self._samples.extend(found)

    def latencies_in_window(self, t0: float, t1: float,
                            flow_id: Optional[int] = None) -> List[float]:
        return [
            t_out - t_in for t_out, fid, t_in in self._samples.ordered()
            if t0 <= t_in < t1 and (flow_id is None or fid == flow_id)
        ]

    def delivered_in_window(self, t0: float, t1: float,
                            flow_id: Optional[int] = None) -> int:
        return sum(1 for t, fid in self._egress.ordered()
                   if t0 <= t < t1 and (flow_id is None or fid == flow_id))

    def throughput_pps(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            raise ValueError("empty window")
        return self.delivered_in_window(t0, t1) / (t1 - t0)

    def loss_count(self) -> int:
        return len(self._pending)


def _frame(flow_id: int, frame_id: int) -> Frame:
    return Frame(src_mac=MacAddress(1), dst_mac=MacAddress(2),
                 flow_id=flow_id, frame_id=frame_id)


def _batch(flow_id: int, ids: List[int], times: List[float]) -> FrameBatch:
    return FrameBatch(_frame(flow_id, ids[0]), list(ids), list(times))


#: Capture times are (tick * RUNS + run number) * TICK: unique across
#: runs, rising within one.
RUNS = 64
TICK = 1e-7
#: Generator flows and the flow id each carries: flows 0 and 1 share
#: flow id 5, so that id's ingress runs interleave within one burst.
GEN_FLOWS = (5, 5, 7)
FLOW_IDS = (5, 7, 9)


class _TapCalls:
    """Tap calls drawn one at a time, fed to both monitors."""

    def __init__(self, data) -> None:
        self.draw = data.draw
        self.tap_in, self.tap_out = OpticalTap("in"), OpticalTap("out")
        self.ref = ReferenceMonitor(self.tap_in, self.tap_out)
        self.mon = LatencyMonitor(self.tap_in, self.tap_out)
        # Ids count up from a drawn start; ``low_id`` counts down below
        # it, for ids lower than every id seen so far.
        self.next_id = self.low_id = data.draw(st.sampled_from((0, 3, 5000)))
        self.entered: Dict[int, int] = {}  # frame id -> flow id
        self.runs = 0
        self.last_tick = -1
        self.times: List[float] = []

    def fresh_ids(self, n: int) -> List[int]:
        ids = list(range(self.next_id, self.next_id + n))
        self.next_id += n
        return ids

    def low(self) -> int:
        self.low_id -= 1
        return self.low_id

    def ingress_burst(self) -> None:
        """One generator burst: fresh ids split over the generator
        flows, one run per flow in flow order, like the generator."""
        n = self.draw(st.integers(1, 12))
        owners = self.draw(st.lists(st.integers(0, len(GEN_FLOWS) - 1),
                                    min_size=n, max_size=n))
        ids = self.fresh_ids(n)
        t = self.draw(st.integers(0, 20_000)) * TICK
        for g in sorted(set(owners)):
            run = [fid for fid, o in zip(ids, owners) if o == g]
            if len(run) > 1 and self.draw(st.integers(0, 7)) == 0:
                run.reverse()  # ids out of order within a run
            starts = [t + i * TICK for i in range(len(run))]
            self.tap_in._notify_batch(_batch(GEN_FLOWS[g], run, starts),
                                      starts)
            self.entered.update((fid, GEN_FLOWS[g]) for fid in run)
            self.times += starts

    def ingress_frame(self) -> None:
        """One frame entering: usually a fresh id, now and then one seen
        already (entering again replaces its pending sighting)."""
        flow_id = self.draw(st.sampled_from(GEN_FLOWS))
        own = sorted(fid for fid, f in self.entered.items() if f == flow_id)
        kind = self.draw(st.integers(0, 7))
        if own and kind == 0:
            fid = self.draw(st.sampled_from(own))
        elif kind == 1:
            fid = self.low()
        else:
            fid = self.fresh_ids(1)[0]
        t = self.draw(st.integers(0, 20_000)) * TICK
        self.tap_in._notify(_frame(flow_id, fid), t)
        self.entered[fid] = flow_id
        self.times.append(t)

    def members(self, flow_id: int, n: int) -> List[int]:
        """Egress members: ids that entered on ``flow_id`` (paired or
        not; a frame leaves under the flow id it entered with), now and
        then an id never seen entering (above or below every id seen),
        in roughly ascending order."""
        own = sorted(fid for fid, f in self.entered.items() if f == flow_id)
        out = []
        for _ in range(n):
            kind = self.draw(st.integers(0, 9))
            if kind == 0:
                out.append(self.fresh_ids(1)[0])  # never entered
            elif kind == 1:
                out.append(self.low())  # never entered, below the rest
            elif own:
                out.append(self.draw(st.sampled_from(own)))
            else:
                out.append(self.fresh_ids(1)[0])
        if self.draw(st.booleans()):
            out.sort()
            if len(out) > 2 and self.draw(st.booleans()):
                i = self.draw(st.integers(0, len(out) - 2))
                out[i], out[i + 1] = out[i + 1], out[i]
        return out

    def capture_ticks(self, n: int, late: bool) -> List[int]:
        gaps = self.draw(st.lists(st.integers(1, 50), min_size=n,
                                  max_size=n))
        base = (self.last_tick if late
                else self.draw(st.integers(0, 20_000)))
        ticks = []
        for gap in gaps:
            base += gap
            ticks.append(base)
        return ticks

    def egress_run(self) -> None:
        flow_id = self.draw(st.sampled_from(FLOW_IDS))
        n = self.draw(st.integers(1, 10))
        ids = self.members(flow_id, n)
        run = self.runs = self.runs + 1
        assert run < RUNS
        ticks = self.capture_ticks(n, late=self.draw(st.booleans()))
        starts = [(tick * RUNS + run) * TICK for tick in ticks]
        self.last_tick = max(self.last_tick, ticks[-1])
        self.tap_out._notify_batch(_batch(flow_id, ids, starts), starts)
        self.times += starts

    def egress_frame(self) -> None:
        """A per-frame capture: later than every capture so far, as a
        wire's per-frame sends are."""
        flow_id = self.draw(st.sampled_from(FLOW_IDS))
        fid = self.members(flow_id, 1)[0]
        run = self.runs = self.runs + 1
        assert run < RUNS
        tick = self.capture_ticks(1, late=True)[0]
        self.last_tick = tick
        now = (tick * RUNS + run) * TICK
        self.tap_out._notify(_frame(flow_id, fid), now)
        self.times.append(now)

    def bound(self) -> float:
        if self.times and self.draw(st.booleans()):
            return self.draw(st.sampled_from(self.times))
        return self.draw(st.integers(-10, 2_000_000)) * TICK

    def compare(self) -> None:
        ref, mon = self.ref, self.mon
        assert ([(s.flow_id, s.t_in, s.t_out) for s in mon.samples]
                == [(s.flow_id, s.t_in, s.t_out) for s in ref.samples])
        assert mon.egress_times == ref.egress_times
        assert mon.unmatched_egress == ref.unmatched_egress
        assert mon.loss_count() == ref.loss_count()
        for _ in range(self.draw(st.integers(1, 3))):
            t0, t1 = self.bound(), self.bound()
            for flow_id in (None,) + FLOW_IDS + (11,):
                assert (mon.latencies_in_window(t0, t1, flow_id)
                        == ref.latencies_in_window(t0, t1, flow_id))
                assert (mon.delivered_in_window(t0, t1, flow_id)
                        == ref.delivered_in_window(t0, t1, flow_id))
            if t1 > t0:
                assert mon.throughput_pps(t0, t1) == ref.throughput_pps(t0, t1)


class TestColumnsMatchReference:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_read_agrees(self, data):
        d = _TapCalls(data)
        steps = data.draw(st.lists(st.sampled_from(
            ("burst", "burst", "frame_in", "egress", "egress", "egress",
             "frame_out", "read")), min_size=1, max_size=40))
        for step in steps:
            if step == "burst":
                d.ingress_burst()
            elif step == "frame_in":
                d.ingress_frame()
            elif step == "egress":
                d.egress_run()
            elif step == "frame_out":
                d.egress_frame()
            else:
                d.compare()
        d.compare()


class TestColumns:
    def _monitors(self):
        tap_in, tap_out = OpticalTap("in"), OpticalTap("out")
        return (tap_in, tap_out, ReferenceMonitor(tap_in, tap_out),
                LatencyMonitor(tap_in, tap_out))

    def test_shared_flow_id_runs_interleave(self):
        """Two generator flows with one flow id: each burst's runs
        interleave in id, and an egress run spans both."""
        tap_in, tap_out, ref, mon = self._monitors()
        for burst in range(3):
            base = 10 * burst
            for ids in ([base, base + 2, base + 4],
                        [base + 1, base + 3, base + 5]):
                starts = [fid * 1e-6 for fid in ids]
                tap_in._notify_batch(_batch(0, ids, starts), starts)
        ids = [0, 1, 2, 3, 5, 10, 11, 22]
        starts = [1e-3 + i * 1e-6 for i in range(len(ids))]
        tap_out._notify_batch(_batch(0, ids, starts), starts)
        assert mon.samples == ref.samples
        assert len(mon.samples) == 8
        assert mon.loss_count() == ref.loss_count() == 10

    def test_second_sighting_and_unknown_ids_are_unmatched(self):
        tap_in, tap_out, ref, mon = self._monitors()
        tap_in._notify_batch(_batch(1, [1, 2, 3], [0.1, 0.2, 0.3]),
                             [0.1, 0.2, 0.3])
        tap_out._notify_batch(_batch(1, [2, 3], [1.0, 1.1]), [1.0, 1.1])
        tap_out._notify_batch(_batch(1, [3, 99], [1.2, 1.3]), [1.2, 1.3])
        assert mon.unmatched_egress == ref.unmatched_egress == 2
        assert mon.loss_count() == ref.loss_count() == 1
        assert mon.latencies_in_window(0.0, 1.0) == \
            ref.latencies_in_window(0.0, 1.0)

    def test_an_id_below_every_id_seen_pairs_nothing(self):
        """Such an id has no slot in the entry column; it must not read
        one from the column's far end either."""
        tap_in, tap_out, ref, mon = self._monitors()
        ids = list(range(4096))
        starts = [i * 1e-6 for i in ids]
        tap_in._notify_batch(_batch(1, ids, starts), starts)
        tap_out._notify_batch(_batch(1, [-1, 4095], [0.5, 0.6]), [0.5, 0.6])
        assert mon.unmatched_egress == ref.unmatched_egress == 1
        assert mon.samples == ref.samples
        assert mon.loss_count() == ref.loss_count() == 4095

    def test_reads_of_a_flow_without_samples(self):
        tap_in, tap_out, ref, mon = self._monitors()
        tap_in._notify_batch(_batch(1, [1, 2], [0.1, 0.2]), [0.1, 0.2])
        tap_out._notify_batch(_batch(2, [7], [0.5]), [0.5])
        for flow_id in (None, 1, 2, 3):
            assert (mon.latencies_in_window(0.0, 1.0, flow_id)
                    == ref.latencies_in_window(0.0, 1.0, flow_id) == [])
            assert (mon.delivered_in_window(0.0, 1.0, flow_id)
                    == ref.delivered_in_window(0.0, 1.0, flow_id))
        assert mon.samples == ref.samples == []
        assert mon.loss_count() == ref.loss_count() == 2


def _noisy_neighbor_l1():
    """The noisy-neighbor experiment's L1 run, ready to start."""
    d = build_deployment(DeploymentSpec(level=SecurityLevel.LEVEL_1),
                         TrafficScenario.P2V, seed=0)
    h = TestbedHarness(d)
    h.add_tenant_flow(noisy_neighbor.ATTACKER, noisy_neighbor.ATTACK_RATE_PPS)
    for victim in noisy_neighbor.VICTIMS:
        h.add_tenant_flow(victim, noisy_neighbor.VICTIM_RATE_PPS)
    return h


class TestRetainedAllocations:
    def test_overload_run_leaves_few_tracked_objects(self):
        """At overload most offered frames are never delivered; the
        monitor keeps their sightings in typed columns, so the run
        leaves well under one collector-tracked object per sent frame
        (one tuple per offered frame would leave more than one)."""
        h = _noisy_neighbor_l1()
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            result = h.run(duration=0.06)
            left = gc.get_count()[0] - before
        finally:
            gc.enable()
        assert result.sent > 100_000
        assert left / result.sent <= 0.1, (left, result.sent)

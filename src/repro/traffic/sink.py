"""Sink and DAG-style latency monitor.

The paper measures one-way forwarding performance by tapping both the
LG->DUT and DUT->sink links with a passive optical tap into an Endace
DAG card, giving hardware timestamps on both sides.  The
:class:`LatencyMonitor` replicates that: it observes both taps, pairs
sightings of the same frame, and records one-way latency samples with
their timestamps so experiments can cut evaluation windows (e.g. the
10-20 s slice of a 30 s run).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.interfaces import Port
from repro.net.link import OpticalTap
from repro.net.packet import Frame, FrameBatch


class Sink:
    """Terminal packet counter (per flow and total, windowed)."""

    def __init__(self, name: str = "sink") -> None:
        self.name = name
        self.port = Port(f"{name}.rx", self._on_frame)
        self.port.connect_batch(self._on_batch)
        self.total = 0
        self.per_flow: Dict[int, int] = defaultdict(int)
        #: (timestamp-less) arrival log is not kept; windowed counting is
        #: done by the monitor, which has timestamps.

    def _on_frame(self, frame: Frame) -> None:
        self.total += 1
        self.per_flow[frame.flow_id] += 1

    def _on_batch(self, batch: FrameBatch) -> None:
        self.total += len(batch)
        self.per_flow[batch.frame.flow_id] += len(batch)


@dataclass
class LatencySample:
    flow_id: int
    t_in: float
    t_out: float

    @property
    def latency(self) -> float:
        return self.t_out - self.t_in


#: Captures a log may hold out of order before it sorts them in.
_SORT_SLACK = 512


class _CaptureLog:
    """Capture tuples, capture time first, read back in capture order.

    Captures come in runs, each in capture order.  A held egress link
    reports one run per batch per settle, and the runs of one settle
    interleave on the wire, so a run may start before captures already
    logged.  ``_log[:_unsorted]`` is in capture order and precedes
    everything after it (``_unsorted`` None: the whole log is in
    order); the tail is sorted in at a read, or once it holds more than
    :data:`_SORT_SLACK` captures.  Capture times strictly increase on
    one wire, so the sorted log is exactly the per-frame sequence.
    """

    __slots__ = ("_log", "_unsorted")

    def __init__(self) -> None:
        self._log: list = []
        self._unsorted: Optional[int] = None

    def append(self, capture: tuple) -> None:
        """A capture later than every one logged (frame by frame)."""
        self._log.append(capture)

    def extend(self, run: list) -> None:
        """A non-empty run of captures in capture order."""
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
        if len(log) - unsorted > _SORT_SLACK:
            self._sort(unsorted)
        else:
            self._unsorted = unsorted

    def ordered(self) -> list:
        """The log, in capture order."""
        if self._unsorted is not None:
            self._sort(self._unsorted)
        return self._log

    def _sort(self, start: int) -> None:
        # Capture times are unique: tuples compare on them alone.
        log = self._log
        tail = log[start:]
        tail.sort()
        log[start:] = tail
        self._unsorted = None


class LatencyMonitor:
    """Pairs frame sightings on the ingress and egress taps.

    ``samples`` and ``egress_times`` read in capture (egress timestamp)
    order, however the egress tap's batches interleave.
    """

    def __init__(self, ingress_tap: OpticalTap, egress_tap: OpticalTap) -> None:
        self._pending: Dict[int, Tuple[int, float]] = {}
        #: (t_out, flow_id, t_in) per paired frame.
        self._samples = _CaptureLog()
        #: (t, flow_id) per egress frame.
        self._egress = _CaptureLog()
        self.unmatched_egress = 0
        ingress_tap.observe(self._on_ingress, batch=self._on_ingress_batch)
        egress_tap.observe(self._on_egress, batch=self._on_egress_batch)

    @property
    def samples(self) -> List[LatencySample]:
        """One latency sample per paired frame, in capture order (a new
        list at every read)."""
        return [LatencySample(flow_id, t_in, t_out)
                for t_out, flow_id, t_in in self._samples.ordered()]

    @property
    def egress_times(self) -> List[Tuple[float, int]]:
        """(capture time, flow id) of every egress frame, in order."""
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

    # -- windowed reductions ------------------------------------------------

    def latencies_in_window(self, t0: float, t1: float,
                            flow_id: Optional[int] = None) -> List[float]:
        """One-way latencies of frames that *entered* in [t0, t1)."""
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
        """Frames seen entering but never leaving (so far)."""
        return len(self._pending)

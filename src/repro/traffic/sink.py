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

from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter, sub
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


#: In the entry column: no frame with this id is waiting to leave.
_ABSENT = float("-inf")
#: In a flow's egress columns: the capture paired no ingress sighting.
_UNPAIRED = float("nan")


def _absent(n: int) -> array:
    """``n`` entry-column slots with no frame waiting."""
    return array("d", [_ABSENT]) * n


def _in_capture_order(parts: List[Tuple[List[float], list]]) -> list:
    """Merge per-flow parts, each (capture times, values) in any order,
    into one list of values in capture order.  Capture times strictly
    increase on one wire, so they alone order the values."""
    t: List[float] = []
    values: list = []
    for times, vals in parts:
        t += times
        values += vals
    order = sorted(range(len(t)), key=t.__getitem__)
    return list(map(values.__getitem__, order))


class LatencyMonitor:
    """Pairs frame sightings on the ingress and egress taps.

    The monitor keeps typed columns and allocates no Python object per
    frame.  Frame ids are dense within a run (every harness restarts
    them at zero), so one column indexed by frame id holds the
    wire-entry time of every frame seen entering and not yet seen
    leaving: an ingress run writes its members' slots, and an egress
    run reads and clears its members' slots -- no search, and a frame
    that is never delivered costs one slot.  A frame leaves under the
    flow id it entered with (no hop rewrites ``flow_id``), and each
    flow keeps its captures as two columns in the order the tap
    reported them: capture times, and the paired wire-entry times (NaN
    for a capture that paired nothing).  ``samples``, ``egress_times``
    and the window reads put what they select in capture (egress
    timestamp) order, however the egress tap's batches interleave.
    """

    def __init__(self, ingress_tap: OpticalTap, egress_tap: OpticalTap) -> None:
        #: Wire-entry time by frame id - ``_base``; ``_ABSENT`` where no
        #: frame waits to leave.
        self._entered = array("d")
        self._base: Optional[int] = None
        #: Flow id -> (capture times, paired wire-entry times).
        self._flows: Dict[int, Tuple[array, array]] = {}
        self.unmatched_egress = 0
        ingress_tap.observe(self._on_ingress, batch=self._on_ingress_batch)
        egress_tap.observe(self._on_egress, batch=self._on_egress_batch)

    @property
    def samples(self) -> List[LatencySample]:
        """One latency sample per paired frame, in capture order (a new
        list at every read)."""
        parts = []
        for flow_id, (captured, entry) in self._flows.items():
            t_in = entry.tolist()
            keep = [t == t for t in t_in]  # NaN: paired nothing
            t_out = list(compress(captured, keep))
            parts.append((t_out, list(map(LatencySample, repeat(flow_id),
                                          compress(t_in, keep), t_out))))
        return _in_capture_order(parts)

    @property
    def egress_times(self) -> List[Tuple[float, int]]:
        """(capture time, flow id) of every egress frame, in order."""
        parts = []
        for flow_id, (captured, _) in self._flows.items():
            t = captured.tolist()
            parts.append((t, list(zip(t, repeat(flow_id)))))
        return _in_capture_order(parts)

    def _on_ingress(self, frame: Frame, now: float) -> None:
        """One frame entered the wire at ``now`` (the scalar twin of
        :meth:`_enter`)."""
        fid = frame.frame_id
        base = self._base
        if base is None or fid < base:
            self._rebase(fid)
            base = fid
        entered = self._entered
        try:
            entered[fid - base] = now
        except IndexError:
            entered.extend(_absent(max(fid - base + 1 - len(entered), 4096,
                                       len(entered) >> 3)))
            entered[fid - base] = now

    def _on_egress(self, frame: Frame, now: float) -> None:
        """One frame was captured leaving at ``now`` (the scalar twin of
        :meth:`_leave`)."""
        flow = self._flows.get(frame.flow_id)
        if flow is None:
            flow = self._flows[frame.flow_id] = (array("d"), array("d"))
        flow[0].append(now)
        base = self._base
        if base is not None:
            i = frame.frame_id - base
            entered = self._entered
            if 0 <= i < len(entered):
                t_in = entered[i]
                if t_in > _ABSENT:
                    entered[i] = _ABSENT
                    flow[1].append(t_in)
                    return
        flow[1].append(_UNPAIRED)
        self.unmatched_egress += 1

    def _on_ingress_batch(self, batch: FrameBatch, starts: List[float]) -> None:
        if starts:
            self._enter(batch.frame_ids, starts)

    def _on_egress_batch(self, batch: FrameBatch, starts: List[float]) -> None:
        if starts:
            self._leave(batch.frame.flow_id, batch.frame_ids, starts)

    def _offsets(self, ids: List[int]) -> List[int]:
        base = self._base
        return ids if base == 0 else [fid - base for fid in ids]

    def _rebase(self, low: int) -> None:
        """Start the entry column at frame id ``low``: the first id
        seen, or a lower id than any so far."""
        if self._base is not None:
            self._entered[0:0] = _absent(self._base - low)
        self._base = low

    def _enter(self, ids: List[int], starts: List[float]) -> None:
        """Frames ``ids`` entered the wire at ``starts``."""
        low = min(ids)
        if self._base is None or low < self._base:
            self._rebase(low)
        offsets = self._offsets(ids)
        entered = self._entered
        try:
            for i, t in zip(offsets, starts):
                entered[i] = t
        except IndexError:
            entered.extend(_absent(max(max(offsets) + 1 - len(entered),
                                       4096, len(entered) >> 3)))
            for i, t in zip(offsets, starts):
                entered[i] = t

    def _leave(self, flow_id: int, ids: List[int], starts: List[float]
               ) -> None:
        """Frames ``ids`` of flow ``flow_id`` were captured leaving at
        ``starts`` (a run in capture order)."""
        flow = self._flows.get(flow_id)
        if flow is None:
            flow = self._flows[flow_id] = (array("d"), array("d"))
        captured, entry = flow
        captured.fromlist(starts)
        entered = self._entered
        found = None
        if self._base is not None:
            offsets = self._offsets(ids)
            if min(offsets) >= 0:
                try:
                    found = itemgetter(*offsets)(entered)
                except IndexError:
                    pass
        if found is not None:
            if len(ids) == 1:
                found = (found,)
            # Every member waits to leave, and none twice in this run:
            # pair them all at once.
            if min(found) > _ABSENT and len(set(offsets)) == len(ids):
                for i in offsets:
                    entered[i] = _ABSENT
                entry.extend(found)
                return
        # Pair member by member, in capture order.
        base, size = self._base, len(entered)
        paired = []
        for fid in ids:
            i = -1 if base is None else fid - base
            if 0 <= i < size and entered[i] > _ABSENT:
                paired.append(entered[i])
                entered[i] = _ABSENT
            else:
                paired.append(_UNPAIRED)
                self.unmatched_egress += 1
        entry.fromlist(paired)

    # -- windowed reductions ------------------------------------------------

    def _selected(self, flow_id: Optional[int]) -> List[Tuple[array, array]]:
        if flow_id is None:
            return list(self._flows.values())
        return [self._flows[flow_id]] if flow_id in self._flows else []

    def latencies_in_window(self, t0: float, t1: float,
                            flow_id: Optional[int] = None) -> List[float]:
        """One-way latencies of frames that *entered* in [t0, t1)."""
        parts = []
        for captured, entry in self._selected(flow_id):
            t_in = entry.tolist()
            keep = [t0 <= t < t1 for t in t_in]  # NaN never is
            t_out = list(compress(captured, keep))
            parts.append((t_out, list(map(sub, t_out, compress(t_in, keep)))))
        return _in_capture_order(parts)

    def delivered_in_window(self, t0: float, t1: float,
                            flow_id: Optional[int] = None) -> int:
        return sum(len([t for t in captured if t0 <= t < t1])
                   for captured, _ in self._selected(flow_id))

    def throughput_pps(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            raise ValueError("empty window")
        return self.delivered_in_window(t0, t1) / (t1 - t0)

    def loss_count(self) -> int:
        """Frames seen entering but never leaving (so far)."""
        entered = self._entered
        return len(entered) - entered.count(_ABSENT)

"""Physical links and the passive optical taps of the measurement setup.

The paper's testbed connects the load generator and the device under test
with 10G short-range optics and observes both directions through passive
optical taps feeding an Endace DAG capture card (hardware timestamps).
:class:`Link` models serialization + propagation delay; :class:`OpticalTap`
gives measurement code the same vantage point the DAG card had.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.net.interfaces import Port
from repro.net.packet import Frame, FrameBatch
from repro.sim.kernel import Simulator
from repro.units import GBPS

_INF = float("inf")


class OpticalTap:
    """A passive tap: observes every frame crossing a link direction.

    Observers get ``(frame, timestamp)`` -- the hardware-timestamp analog.
    """

    def __init__(self, name: str):
        self.name = name
        self._observers: List[Callable[[Frame, float], None]] = []
        #: Batch twin of each observer, parallel to ``_observers``
        #: (``None`` for an unpaired observer).
        self._twins: List[
            Optional[Callable[[FrameBatch, List[float]], None]]] = []
        self.frames_seen = 0

    def observe(self, callback: Callable[[Frame, float], None],
                batch: Optional[Callable[[FrameBatch, List[float]], None]]
                = None) -> None:
        """Register ``callback(frame, timestamp)``.

        ``batch(batch, starts)`` is its struct-of-arrays twin: it gets
        whole batches with one wire-entry timestamp per member.  An
        observer registered without a twin is *unpaired*: batches still
        reach it, one materialized member at a time, but not in wire
        order: a batched link notifies its tap once per batch run per
        settle, so across batches that interleaved on the wire the
        timestamps go backwards.  A per-frame callback expects wire
        order, so a harness with an unpaired observer runs the per-frame
        oracle; a twin restores the order if it needs it (as
        :class:`~repro.traffic.sink.LatencyMonitor` does).
        """
        self._observers.append(callback)
        self._twins.append(batch)

    @property
    def unpaired(self) -> int:
        """Observers registered without a batch twin."""
        return sum(1 for twin in self._twins if twin is None)

    def _notify(self, frame: Frame, now: float) -> None:
        self.frames_seen += 1
        for callback in self._observers:
            callback(frame, now)

    def _notify_batch(self, batch: FrameBatch, starts: List[float]) -> None:
        self.frames_seen += len(batch)
        for callback, twin in zip(self._observers, self._twins):
            if twin is not None:
                twin(batch, starts)
            else:
                for i, t in enumerate(starts):
                    callback(batch.frame_at(i), t)


class Link:
    """A unidirectional link with bandwidth and propagation delay.

    Frames submitted while the link is busy queue behind the in-flight
    frame (unbounded queue: the sender's NIC ring is modelled upstream).
    An optional :class:`OpticalTap` sees frames at transmit start, which
    matches a passive tap placed at the sender side.

    Batches (:meth:`send_batch`) carry analytic per-member ready times
    and may be handed over out of ready-time order; see :meth:`hold`.
    """

    def __init__(
        self,
        sim: Simulator,
        dst: Port,
        bandwidth_bps: float = 10 * GBPS,
        propagation_delay: float = 0.0,
        tap: Optional[OpticalTap] = None,
        name: str = "link",
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        self.sim = sim
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.tap = tap
        self.name = name
        self._busy_until = 0.0
        self.tx_frames = 0
        self.tx_bytes = 0
        #: Watermark of the egress hold (see :meth:`hold`); None when
        #: batches serialize as they are handed over.
        self._watermark: Optional[Callable[[], float]] = None
        #: Held batches: a min-heap of (next member's ready time,
        #: hand-off number, batch, index of that member).
        self._held: List[Tuple[float, int, FrameBatch, int]] = []
        self._handoffs = 0

    def serialization_time(self, frame: Frame) -> float:
        """Time to clock the frame onto the wire (incl. 20 B phy overhead)."""
        return (frame.wire_size() + 20) * 8.0 / self.bandwidth_bps

    def send(self, frame: Frame, at: Optional[float] = None
             ) -> Optional[float]:
        """Schedule the frame for delivery; returns its arrival time.

        ``at`` lets burst emitters hand the link a frame whose wire
        entry time lies (analytically) in the near future: the frame is
        serialized from ``at`` instead of ``sim.now``, so a burst of N
        frames submitted in one event carries the same per-packet
        timestamps as N individually scheduled sends.

        Under a :meth:`hold` the frame joins the held batches as a
        batch of one (ready at ``at`` or now) and the arrival time is
        not known yet: returns None.
        """
        t = self.sim.now if at is None else at
        if self._watermark is not None:
            self.send_batch(FrameBatch(frame, [frame.frame_id], [t],
                                       [frame.created_at]))
            return None
        start = t if t > self._busy_until else self._busy_until
        if self.tap is not None:
            self.tap._notify(frame, start)
        tx_done = start + self.serialization_time(frame)
        self._busy_until = tx_done
        arrival = tx_done + self.propagation_delay
        self.tx_frames += 1
        self.tx_bytes += frame.wire_size()
        self.sim.schedule(arrival, self.dst.receive, frame)
        _obs.TRACER.link_send(self.name, frame, t, start, tx_done, arrival)
        return arrival

    def hold(self, watermark: Optional[Callable[[], float]]) -> None:
        """Serialize batch hand-offs in ready-time order.

        Batched upstreams hand over sub-batches whose members became
        ready at analytic times, and a sub-batch held back by its flush
        policy can arrive after later-ready members already went out.
        The wire is FIFO in ready time, as the per-frame oracle's sends
        are, so under a hold every hand-off waits on a heap and the link
        serializes members -- across batches, in ready-time order, ties
        by hand-off order -- only up to ``watermark()``: a time before
        which no member can still be handed over.  Settled members go
        out as *runs* (consecutive members of one batch): one tap
        notification and one delivery each, made on the spot.

        ``hold(None)`` settles everything still held and returns the
        link to serializing hand-offs as they arrive.
        """
        if watermark is None and self._watermark is not None:
            self._settle(_INF)
        self._watermark = watermark

    def settle(self, upto: float) -> None:
        """Serialize the held members ready by ``upto`` now; later ones
        stay held (a run's end: the per-frame path has not sent them)."""
        self._settle(upto)

    def send_batch(self, batch: FrameBatch) -> None:
        """Hand over a batch (``ts`` ascending: member ready times).

        Members serialize through the wire's busy chain exactly as
        per-frame sends at their ready times would.  Without a
        :meth:`hold` that happens at once, so interleaving hand-offs
        serialize in hand-off order.
        """
        n = len(batch)
        self.tx_frames += n
        self.tx_bytes += batch.frame.wire_size() * n
        heapq.heappush(self._held, (batch.ts[0], self._handoffs, batch, 0))
        self._handoffs += 1
        watermark = self._watermark
        self._settle(_INF if watermark is None else watermark())

    def _settle(self, upto: float) -> None:
        """Serialize held members ready at or before ``upto``.

        Each held batch with settled members goes out as one run: one
        tap notification and one delivery per batch per call, however
        often the wire switched between batches.  Members that arrive
        after the kernel's stop time are delivered by an event at their
        arrival instead, as a per-frame send delivers.
        """
        stop = self.sim.stop_time
        for batch, first, starts, arrivals, _ in \
                self._chain(self._held, upto).values():
            if first == 0 and len(arrivals) == len(batch):
                run = batch
                run.ts = arrivals
            else:
                run = batch.run(first, first + len(arrivals), arrivals)
            if self.tap is not None:
                self.tap._notify_batch(run, starts)
            if arrivals[-1] > stop:
                k = bisect_right(arrivals, stop)
                late = run.run(k, len(run), arrivals[k:])
                self.sim.schedule(late.ts[0], self._deliver_batch, late)
                if not k:
                    continue
                run = run.run(0, k, arrivals[:k])
            self._deliver_batch(run)

    def _chain(self, heap: List[Tuple[float, int, FrameBatch, int]],
               upto: float) -> Dict[int, list]:
        """Serialize the members of ``heap``'s batches ready at or
        before ``upto`` through the wire's busy chain.

        ``heap`` holds (next member's ready time, tie-break, batch,
        index of that member), one entry per batch; members go out in
        (ready time, tie-break) order.  A batch keeps the wire while
        its next member comes before every other batch's, so the heap
        moves once per run, not once per member.  Entries of batches
        with members left are updated in place.  Returns ``{tie-break:
        [batch, index of its first member sent, wire-entry times,
        arrival times, serialization time]}`` for the batches that sent
        members, in the order each first did.
        """
        prop = self.propagation_delay
        busy = self._busy_until
        sent: Dict[int, list] = {}
        while heap and heap[0][0] <= upto:
            t, tie, batch, i = heap[0]
            size = len(heap)
            stop_t, stop_tie = upto, _INF
            if size > 1:
                head = heap[1]
                if size > 2 and heap[2] < head:
                    head = heap[2]
                if head[0] <= upto:
                    stop_t, stop_tie = head[0], head[1]
            out = sent.get(tie)
            if out is None:
                out = sent[tie] = [
                    batch, i, [], [],
                    (batch.frame.wire_size() + 20) * 8.0 / self.bandwidth_bps]
            _, _, starts, arrivals, ser = out
            ts = batch.ts
            n = len(ts)
            # The head member goes; members ready at stop_t follow it
            # only if this batch wins the tie.
            j = i + 1
            if j < n and (ts[j] < stop_t or (ts[j] == stop_t
                                             and tie < stop_tie)):
                j = (bisect_left if tie > stop_tie else bisect_right)(
                    ts, stop_t, j + 1)
                run = ts[i:j]
            else:
                run = (t,)
            for t in run:
                if t > busy:
                    busy = t
                starts.append(busy)
                busy += ser
                arrivals.append(busy + prop)
            if j < n:
                heapq.heapreplace(heap, (ts[j], tie, batch, j))
            else:
                heapq.heappop(heap)
        self._busy_until = busy
        return sent

    def send_interleaved(self, batches: List[FrameBatch]) -> None:
        """Serialize several batches whose timestamps interleave.

        The load generator emits one burst as a handful of per-flow
        batches whose emission timestamps interleave on the wire.
        Chaining all members in merged timestamp order reproduces the
        per-frame busy chain *exactly* (unlike back-to-back
        :meth:`send_batch` calls, which serialize whole batches);
        each batch is still delivered downstream in one event at its
        own first arrival.  Ties break by batch position, matching the
        generator's flow-index tie-break.
        """
        heap = []
        for b, batch in enumerate(batches):
            n = len(batch)
            self.tx_frames += n
            self.tx_bytes += batch.frame.wire_size() * n
            if n:
                heap.append((batch.ts[0], b, batch, 0))
        heapq.heapify(heap)
        sent = self._chain(heap, _INF)
        for b, batch in enumerate(batches):
            out = sent.get(b)
            if out is None:
                continue
            batch.ts = out[3]
            if self.tap is not None:
                self.tap._notify_batch(batch, out[2])
            self.sim.schedule(batch.ts[0], self._deliver_batch, batch)

    def _deliver_batch(self, batch: FrameBatch) -> None:
        self.dst.receive_batch(batch, self.sim)

"""Physical links and the passive optical taps of the measurement setup.

The paper's testbed connects the load generator and the device under test
with 10G short-range optics and observes both directions through passive
optical taps feeding an Endace DAG capture card (hardware timestamps).
:class:`Link` models serialization + propagation delay; :class:`OpticalTap`
gives measurement code the same vantage point the DAG card had.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

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
        reach it, one materialized member at a time, but those members
        carry no per-frame state (``Frame.timings``, hop traces) -- so a
        harness with an unpaired observer runs the per-frame oracle.
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
        frame.charge("wire", arrival - t)
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
        """Serialize held members ready at or before ``upto``."""
        held = self._held
        prop = self.propagation_delay
        busy = self._busy_until
        while held and held[0][0] <= upto:
            _, seq, batch, i = heapq.heappop(held)
            # The run ends where the next held batch's member would
            # come first (equal ready times: earlier hand-off first),
            # or past the watermark.
            if held and held[0][0] <= upto:
                stop_t, stop_seq = held[0][0], held[0][1]
            else:
                stop_t, stop_seq = upto, seq
            ts = batch.ts
            n = len(ts)
            ser = (batch.frame.wire_size() + 20) * 8.0 / self.bandwidth_bps
            starts = []
            arrivals = []
            j = i
            while j < n:
                t = ts[j]
                if t > stop_t or (t == stop_t and seq > stop_seq):
                    break
                start = t if t > busy else busy
                starts.append(start)
                busy = start + ser
                arrivals.append(busy + prop)
                j += 1
            if j < n:
                heapq.heappush(held, (ts[j], seq, batch, j))
            if i == 0 and j == n:
                run = batch
                run.ts = arrivals
            else:
                run = FrameBatch(batch.frame, batch.frame_ids[i:j], arrivals,
                                 batch.created_at[i:j])
            self._busy_until = busy
            if self.tap is not None:
                self.tap._notify_batch(run, starts)
            self._deliver_batch(run)

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
        prop = self.propagation_delay
        busy = self._busy_until
        sers = []
        origs = []
        starts_per: List[List[float]] = []
        heap = []
        for b, batch in enumerate(batches):
            wire = batch.frame.wire_size()
            sers.append((wire + 20) * 8.0 / self.bandwidth_bps)
            origs.append(list(batch.ts))
            starts_per.append([0.0] * len(batch))
            self.tx_frames += len(batch)
            self.tx_bytes += wire * len(batch)
            if len(batch):
                heap.append((origs[b][0], b, 0))
        heapq.heapify(heap)
        while heap:
            t, b, i = heapq.heappop(heap)
            start = t if t > busy else busy
            starts_per[b][i] = start
            busy = start + sers[b]
            batches[b].ts[i] = busy + prop
            if i + 1 < len(origs[b]):
                heapq.heappush(heap, (origs[b][i + 1], b, i + 1))
        self._busy_until = busy
        for b, batch in enumerate(batches):
            if not len(batch):
                continue
            if self.tap is not None:
                self.tap._notify_batch(batch, starts_per[b])
            self.sim.schedule(batch.ts[0], self._deliver_batch, batch)

    def _deliver_batch(self, batch: FrameBatch) -> None:
        self.dst.receive_batch(batch, self.sim)

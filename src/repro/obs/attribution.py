"""Per-component latency attribution, fed by both data-plane paths.

The §6 PMU-style breakdown asks where a frame spends its latency.
:class:`LatencyTap` keeps one typed column per component
(:data:`COMPONENTS`), indexed by frame id like
:class:`~repro.traffic.sink.LatencyMonitor`'s entry column: every timed
hop adds the delay it gives a frame to that frame's row -- exactly the
float the hop's packet-tracer span records -- and the egress link's
transmit captures the rows of the frames that leave it.  The means fold
the captured rows in wire order.

Two kinds of hook feed it:

- per-frame hooks (:meth:`LatencyTap.link`, :meth:`~LatencyTap.bridge`,
  :meth:`~LatencyTap.hop`), at the sites that call the tracer's
  ``link_send``, ``bridge_tx`` and ``hop``;
- batch twins, one call per batch with per-member values: the wire's
  settled runs, the NIC/PCIe and vhost batch hops, the tenant
  forwarders and a bridge's sub-batch flush (a pass group's or a fused
  sink's).

A frame's component sums are float sums taken in hop order, so every
hook adds one hop's own delay (never a pre-summed leg or a batch's
total advance), and a frame meets its hops in the same order on either
path.  A fused route's members cross its legs twice: analytically, when
each is registered downstream, and once per burst in the accounting
traversal that carries the header.  The traversal charges them: it
crosses the legs hop by hop with the same keyed draws, and it runs at
the upstream flush, before the downstream sink can flush a member.

The disabled default is :class:`NullTap`, whose hooks do nothing.  :func:`repro.obs.attributing` swaps a recording tap in for a
``with`` block.  The tap holds no oracle mark: an attributed run takes
the batched chain.  Rows are indexed by frame id itself, which every
harness restarts at zero.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import reduce
from operator import add
from typing import Dict, List, Sequence

#: The breakdown's components, in table order.
COMPONENTS = ("wire", "nic", "vswitch.service", "vswitch.wait",
              "vswitch.queue", "vhost", "tenant")


class NullTap:
    """The disabled tap: every hook does nothing.  The hooks keep
    :class:`LatencyTap`'s signatures: a fixed-argument method call costs
    per-frame sites a third of a ``*args`` no-op's."""

    enabled = False

    def link(self, name, frame_id, t_submit, t_start, t_arrival):
        pass

    def link_run(self, name, batch, first, starts, arrivals):
        pass

    def bridge(self, frame_id, t_dispatch, t_done, wait, service):
        pass

    def bridge_batch(self, frame_ids, dispatched, waits, services, done):
        pass

    def hop(self, component, frame_id, delay):
        pass

    def hop_batch(self, component, batch, delay):
        pass

    def hop_members(self, component, batch, delays):
        pass


class LatencyTap:
    """Per-frame component sums for the frames leaving ``egress_link``
    whose transmit there starts at or after ``since``."""

    enabled = True

    def __init__(self, egress_link: str, since: float = 0.0) -> None:
        self.egress_link = egress_link
        self.since = since
        self._columns: Dict[str, array] = {
            component: array("d") for component in COMPONENTS}
        columns = self._columns
        self._wire = columns["wire"]
        self._service = columns["vswitch.service"]
        self._wait = columns["vswitch.wait"]
        self._queue = columns["vswitch.queue"]
        #: Rows every column holds (frame ids 0 .. size - 1).
        self._size = 0
        #: Egress captures as the link reported them: wire-entry times
        #: and frame ids.
        self._starts = array("d")
        self._ids = array("q")
        #: Row updates so far: one per frame per timed hop.
        self.records = 0

    def _fit(self, top: int) -> None:
        """Grow every column to hold frame id ``top``."""
        grow = max(top + 1 - self._size, 4096, self._size >> 3)
        zeros = array("d", bytes(8 * grow))
        for column in self._columns.values():
            column.extend(zeros)
        self._size += grow

    def _capture(self, frame_ids: Sequence[int],
                 starts: Sequence[float]) -> None:
        """A run of egress transmits (``starts`` ascending)."""
        since = self.since
        if starts[0] < since:
            k = bisect_left(starts, since)
            frame_ids, starts = frame_ids[k:], starts[k:]
        self._ids.extend(frame_ids)
        self._starts.extend(starts)

    # -- per-frame hooks ----------------------------------------------------

    def link(self, name: str, frame_id: int, t_submit: float,
             t_start: float, t_arrival: float) -> None:
        """A frame handed to link ``name`` at ``t_submit`` started its
        transmit at ``t_start`` and arrives at ``t_arrival``: wire time
        runs from the hand-off to the arrival."""
        if frame_id >= self._size:
            self._fit(frame_id)
        self._wire[frame_id] += t_arrival - t_submit
        self.records += 1
        if name == self.egress_link and t_start >= self.since:
            self._ids.append(frame_id)
            self._starts.append(t_start)

    def bridge(self, frame_id: int, t_dispatch: float, t_done: float,
               wait: float, service: float) -> None:
        """A timed bridge pass dispatched at ``t_dispatch`` handed the
        frame on at ``t_done``: its jitter ``wait``, its ``service``,
        and rx-ring queueing for the rest, ``max(0.0, t_done -
        t_dispatch - wait - service)`` (a row adds a zero queue by
        skipping it: rows never hold -0.0)."""
        if frame_id >= self._size:
            self._fit(frame_id)
        self._service[frame_id] += service
        self._wait[frame_id] += wait
        queued = t_done - t_dispatch - wait - service
        if queued > 0.0:
            self._queue[frame_id] += queued
        self.records += 1

    def hop(self, component: str, frame_id: int, delay: float) -> None:
        """A timed hop of ``component`` delays the frame by ``delay``."""
        if frame_id >= self._size:
            self._fit(frame_id)
        self._columns[component][frame_id] += delay
        self.records += 1

    # -- batch twins ----------------------------------------------------------

    def link_run(self, name: str, batch, first: int,
                 starts: List[float], arrivals: List[float]) -> None:
        """Members ``first:first + len(arrivals)`` of ``batch``, ready
        at their ``batch.ts``, went out on link ``name`` at ``starts``
        and arrive at ``arrivals`` (:meth:`link`, member by member)."""
        end = first + len(arrivals)
        frame_ids = batch.frame_ids[first:end]
        top = max(frame_ids)
        if top >= self._size:
            self._fit(top)
        wire = self._wire
        for fid, ready, arrival in zip(frame_ids, batch.ts[first:end],
                                       arrivals):
            wire[fid] += arrival - ready
        self.records += len(frame_ids)
        if name == self.egress_link:
            self._capture(frame_ids, starts)

    def bridge_batch(self, frame_ids: List[int], dispatched: Sequence[float],
                     waits: Sequence[float], services: Sequence[float],
                     done: List[float]) -> None:
        """One sub-batch of a bridge's passes (:meth:`bridge`, member by
        member)."""
        top = max(frame_ids)
        if top >= self._size:
            self._fit(top)
        service, wait, queue = self._service, self._wait, self._queue
        for fid, t0, w, s, t1 in zip(frame_ids, dispatched, waits,
                                     services, done):
            service[fid] += s
            wait[fid] += w
            queued = t1 - t0 - w - s
            if queued > 0.0:
                queue[fid] += queued
        self.records += len(frame_ids)

    def hop_batch(self, component: str, batch, delay: float) -> None:
        """Every member of ``batch`` crosses one hop of ``component``
        taking ``delay``."""
        frame_ids = batch.frame_ids
        top = max(frame_ids)
        if top >= self._size:
            self._fit(top)
        column = self._columns[component]
        for fid in frame_ids:
            column[fid] += delay
        self.records += len(frame_ids)

    def hop_members(self, component: str, batch,
                    delays: List[float]) -> None:
        """:meth:`hop_batch` with one delay per member, in member
        order."""
        frame_ids = batch.frame_ids
        top = max(frame_ids)
        if top >= self._size:
            self._fit(top)
        column = self._columns[component]
        for fid, delay in zip(frame_ids, delays):
            column[fid] += delay
        self.records += len(frame_ids)

    # -- reads ----------------------------------------------------------------

    @property
    def captured(self) -> int:
        """Frames captured leaving the egress link so far."""
        return len(self._ids)

    def means(self) -> Dict[str, float]:
        """Mean seconds per component over the captured frames.  Each
        total adds the captured rows in wire order (transmit starts
        strictly increase on one link), starting from 0.0."""
        starts = self._starts
        order = sorted(range(len(starts)), key=starts.__getitem__)
        ids = self._ids
        rows = [ids[k] for k in order]
        if not rows:
            raise ValueError(
                f"no frames captured leaving {self.egress_link}")
        return {component: reduce(add, map(column.__getitem__, rows), 0.0)
                / len(rows) for component, column in self._columns.items()}

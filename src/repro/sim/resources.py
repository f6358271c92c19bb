"""Queues and service stations for packet-level simulation."""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.sim.kernel import Simulator

#: Flush margin for groups whose post-service chain never reaches a
#: timestamped admission point (fabric-bound traffic): flush lateness
#: is unconstrained, so hold until the group completes.
_INF = float("inf")

#: Registered members a lagging batch station may hold unreplayed: past
#: this, the next registration replays up to the present.  Bounds the
#: memory a long lookahead keeps alive (pending entries and the groups
#: they pin) without changing any outcome.
_MAX_LAG = 2048


class FifoQueue:
    """A bounded FIFO with drop-tail semantics and drop accounting.

    Used for NIC rx rings, vhost queues, and the like.  ``capacity=None``
    means unbounded.
    """

    def __init__(self, capacity: Optional[int] = None, name: str = "fifo") -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self.enqueued = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, item: Any) -> bool:
        """Enqueue ``item``; returns False (and counts a drop) if full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            self.dropped += 1
            return False
        self._items.append(item)
        self.enqueued += 1
        return True

    def pop(self) -> Any:
        """Dequeue the oldest item; raises IndexError when empty."""
        return self._items.popleft()

    def peek(self) -> Any:
        """Oldest item without removing it; raises IndexError when empty."""
        return self._items[0]

    def clear(self) -> None:
        self._items.clear()


class FairServiceStation:
    """One server round-robining over per-key FIFO queues.

    Models NAPI/PMD-style fair polling across rx rings: work arriving
    under different keys (e.g. different ingress ports) gets equal
    service shares under overload, instead of the head-of-line
    starvation a single shared FIFO produces.  Each per-key queue is
    bounded (the rx ring) with drop-tail accounting.
    """

    def __init__(
        self,
        sim: Simulator,
        service_time: Callable[[Any], float],
        on_done: Callable[[Any], None],
        queue_capacity: Optional[int] = None,
        name: str = "fair-station",
    ) -> None:
        self.sim = sim
        self.service_time = service_time
        self.on_done = on_done
        self.queue_capacity = queue_capacity
        self.name = name
        self.busy = False
        self.served = 0
        self.busy_time = 0.0
        self._queues: "dict[Any, FifoQueue]" = {}
        self._order: "list[Any]" = []
        self._last_key: Optional[Any] = None

    def submit(self, key: Any, item: Any) -> bool:
        """Offer an item on ring ``key``; False if that ring dropped it."""
        queue = self._queues.get(key)
        if queue is None:
            queue = FifoQueue(capacity=self.queue_capacity,
                              name=f"{self.name}.q{key}")
            self._queues[key] = queue
            self._order.append(key)
        if not queue.push(item):
            return False
        if not self.busy:
            self._start_next()
        return True

    def dropped(self) -> int:
        return sum(q.dropped for q in self._queues.values())

    def _pick(self) -> Optional[Any]:
        """Round-robin: scan for a non-empty ring starting just past the
        last-served one (keyed, so late-created rings join fairly)."""
        n = len(self._order)
        start = 0
        if self._last_key in self._queues:
            start = self._order.index(self._last_key) + 1
        for offset in range(n):
            key = self._order[(start + offset) % n]
            if len(self._queues[key]) > 0:
                self._last_key = key
                return key
        return None

    def _start_next(self) -> None:
        key = self._pick()
        if key is None:
            self.busy = False
            return
        item = self._queues[key].pop()
        self.busy = True
        duration = self.service_time(item)
        if duration < 0:
            raise ValueError(f"negative service time {duration} at {self.name}")
        self.busy_time += duration
        self.sim.call_later(duration, self._finish, item)

    def _finish(self, item: Any) -> None:
        self.served += 1
        self.on_done(item)
        self._start_next()

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class BatchFairStation:
    """A :class:`FairServiceStation` that admits *timestamped batches*
    and replays its busy periods lazily.

    The batched fast path computes a whole burst's arrival timestamps in
    one event, so arrivals reach the station *early*: the event that
    registers them fires at or before the earliest member timestamp.
    The station keeps those future arrivals in a pending min-heap and
    **admits** them (rx-ring occupancy check, drop-tail) only when its
    replay of simulated time reaches them.

    The station moves in *steps*, one at each service finish and, while
    idle, one at the earliest pending timestamp:

    1. commit the finishing member to its group;
    2. admit the arrivals that are due, in timestamp order;
    3. start the next member, round-robin across rings;
    4. flush finished work downstream while each group's margin holds.

    Admitting every arrival with timestamp in (S, F] at the finish F of
    a service started at S gives per-event admission's outcomes: ring
    occupancy is only read by admissions, no service starts while the
    server is busy, and ring space frees only at service *starts* -- so
    the admission sequence commutes across the busy interval.

    Served members are handed back to their *group* (one group per
    submitted batch), which re-accumulates them into a sub-batch for the
    downstream chain.  Because the downstream continuation runs inline
    at flush time, a flush at time C must satisfy ``C <= F_i + margin``
    for every flushed member finish F_i, where the group's ``margin`` is
    a lower bound on the delay before the member could reach the *next*
    timestamped admission point (0 is always safe: commits then flush at
    their own finish; ``inf`` says the member never reaches one --
    fabric-bound traffic whose remaining chain is purely analytic).  A
    group flushes the moment it *completes* (every member committed or
    dropped -- nothing more can join the sub-batch, so waiting buys
    nothing), a margin-bound group additionally flushes before its
    oldest unflushed finish ages past the margin, and everything finite
    flushes when the station goes idle.  Unbounded incomplete groups
    ride across idle gaps and rely on completion or the end-of-run
    :meth:`drain`.

    **Busy periods.**  Steps are not events.  One :meth:`_wake` replays,
    in order, every step due by the current time, then arms one wake at
    the latest instant anything outside the station can depend on: the
    next step plus the smallest ``lookahead`` among the members present
    (registered, not yet committed or dropped), capped by the dirty
    groups' flush deadlines and by the kernel's
    :attr:`~repro.sim.kernel.Simulator.horizon`.  A group's lookahead is
    a lower bound on the delay from a member's finish to its first
    effect outside the station: a commit registering it at another
    station, or a flush reaching a timestamped point.  Members that only
    re-enter this station or leave for the fabric have lookahead
    ``inf``.  Waking earlier is always exact, only slower, so a station
    that holds ``_MAX_LAG`` unreplayed registrations also replays at the
    next one.  Code that reads the station mid-run calls
    :meth:`catch_up` first.

    Net effect at saturation: one wake per lookahead window, versus one
    per served frame for a station that steps by events.
    """

    def __init__(
        self,
        sim: Simulator,
        queue_capacity: Optional[int] = None,
        name: str = "batch-station",
    ) -> None:
        if queue_capacity is not None and queue_capacity <= 0:
            raise ValueError(
                f"capacity must be positive or None, got {queue_capacity}")
        self.sim = sim
        self.queue_capacity = queue_capacity
        self.name = name
        self.busy = False
        self.served = 0
        self.busy_time = 0.0
        #: rx rings by key, and the same rings in creation order for the
        #: round-robin scan (``_last``: index of the last one served).
        self._rings: "dict[Any, Deque[Tuple[Any, int]]]" = {}
        self._ring_order: "list[Deque[Tuple[Any, int]]]" = []
        self._last = -1
        self._drops = 0
        #: Registered-but-not-yet-admitted members: (ts, seq, group, i).
        self._pending: List[Tuple[float, int, Any, int]] = []
        self._seq = 0
        self._inflight: Optional[Tuple[Any, int]] = None
        self._finish_at = 0.0
        self._wake_event = None
        self._wake_time = 0.0
        #: True while _wake runs: submits then leave arming to the end
        #: of the wake (flushes re-enter submit_group inline).
        self._in_wake = False
        #: The step a running wake is replaying.
        self._clock = 0.0
        #: Groups holding served-but-unflushed members, and how many of
        #: them have a finite margin.
        self._dirty: List[Any] = []
        self._finite = 0
        #: Members present, counted per lookahead value, and the least
        #: value with a count.
        self._present: "dict[float, int]" = {}
        self._lookahead = _INF
        #: Earliest flush deadline of the dirty groups at the last wake.
        self._deadline = _INF

    def submit_group(self, group: Any) -> None:
        """Register every member of ``group`` as a future arrival.

        ``group`` carries parallel ``sub_ts`` (arrival timestamps, the
        current event time must not exceed their minimum) and ``svc``
        (service times) lists plus a ``key`` (rx ring id), a flush
        ``margin`` and a ``lookahead`` (at most the margin when a flush
        reaches a timestamped point: the flush is then an outside
        effect), and receives ``commit(i, t)`` / ``drop(i)`` /
        ``is_done()`` / ``flush(now)`` / ``oldest_commit()`` calls.
        """
        pending = self._pending
        seq = self._seq
        for i, t in enumerate(group.sub_ts):
            heapq.heappush(pending, (t, seq, group, i))
            seq += 1
        n = seq - self._seq
        self._seq = seq
        if n:
            self._add(group.lookahead, n)

    def submit_member(self, group: Any, i: int, ts: float) -> None:
        """Register one future member of an *open* group.

        The fused fast path discovers at commit time that a member's
        next admission point (and its arrival timestamp there) is
        analytically known, and registers it immediately -- the
        registration event necessarily precedes the arrival timestamp,
        so this is always contract-clean.  The group grows between
        calls; it must not report ``is_done`` until its upstream seals
        it.
        """
        heapq.heappush(self._pending, (ts, self._seq, group, i))
        self._seq += 1
        self._add(group.lookahead, 1)

    def catch_up(self) -> None:
        """Replay every step due by now.

        For code that reads the station (busy time, ring drops, held
        groups) while a busy period may still be unreplayed.
        """
        if self._wake_event is not None and not self._in_wake:
            self._wake_event.cancel()
            self._wake()

    def drain(self) -> None:
        """Flush held sub-batches that can still flush safely.

        The end-of-run safety valve for unbounded groups that never
        completed (tail members still pending when traffic stopped).
        Finite-margin groups are skipped -- flushing those late would
        break the lateness contract -- but in practice the station has
        gone idle (and idle-flushed them) long before anyone drains.
        """
        self.catch_up()
        now = self.sim.now
        # Flushing can complete *other* dirty groups (a fused upstream
        # group's flush seals its downstream sink), so work off a
        # snapshot and let re-entrant removals target the live list.
        groups = self._dirty
        self._dirty = []
        self._finite = 0
        for group in groups:
            if group.margin == _INF or group.is_done():
                group.flush(now)
            else:
                self._dirty.append(group)
                self._finite += 1

    def oldest_unflushed(self) -> Optional[float]:
        """Earliest finish of a member this station may still hand on.

        That is the oldest served-but-unflushed member, or the step
        the station is replaying or will replay next (members not yet
        committed finish no earlier).  Nothing this station still
        holds can reach a downstream point before it: the bound an
        egress hold settles up to.
        """
        if self._in_wake:
            oldest = self._clock
        elif self._inflight is not None:
            oldest = self._finish_at
        elif self._pending:
            oldest = self._pending[0][0]
        else:
            oldest = None
        for group in self._dirty:
            t = group.oldest_commit()
            if t is not None and (oldest is None or t < oldest):
                oldest = t
        return oldest

    def dropped(self) -> int:
        return self._drops

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    # -- internals --------------------------------------------------------

    def _add(self, lookahead: float, n: int) -> None:
        """Count ``n`` new members; wake earlier if they need it."""
        present = self._present
        present[lookahead] = present.get(lookahead, 0) + n
        if lookahead < self._lookahead:
            self._lookahead = lookahead
        if not self._in_wake:
            at = self._next_wake()
            pending = self._pending
            if len(pending) > _MAX_LAG and pending[0][0] <= self.sim.now:
                at = self.sim.now
            if self._wake_event is None or at < self._wake_time:
                self._arm(at)

    def _forget(self, lookahead: float) -> None:
        """The last member with this lookahead committed or dropped."""
        present = self._present
        del present[lookahead]
        if lookahead == self._lookahead:
            self._lookahead = min(present) if present else _INF

    def _next_wake(self) -> Optional[float]:
        """When the next wake is due (None: no step left to replay)."""
        if self._inflight is not None:
            step = self._finish_at
        elif self._pending:
            step = self._pending[0][0]
        else:
            return None
        at = step + self._lookahead
        if self._deadline < at:
            at = self._deadline
        horizon = self.sim.horizon
        if at > horizon:
            # Replay up to the horizon if a step falls before it;
            # otherwise nothing happens by then, so wake at the step
            # (which a later run with a farther horizon re-arms).
            at = horizon if horizon > step else step
        return at

    def _arm(self, at: float) -> None:
        if self._wake_event is not None:
            self._wake_event.cancel()
        # Schedule at ``at`` itself: ``now + (at - now)`` can miss it by
        # an ulp, and the admission time then differs from the oracle's.
        now = self.sim.now
        self._wake_event = self.sim.schedule(at if at > now else now,
                                             self._wake)
        self._wake_time = at

    def _wake(self) -> None:
        """Replay every step due by now, then arm the next wake."""
        self._wake_event = None
        self._in_wake = True
        upto = self.sim.now
        pending = self._pending
        heappop = heapq.heappop
        rings = self._rings
        ring_order = self._ring_order
        capacity = self.queue_capacity
        present = self._present
        # Server state lives in locals for the replay; nothing re-entered
        # from a commit or flush reads it (oldest_unflushed reads _clock).
        inflight = self._inflight
        finish_at = self._finish_at
        served = 0
        busy_time = self.busy_time
        while True:
            if inflight is not None:
                now = finish_at
            elif pending:
                now = pending[0][0]
            else:
                break
            if now > upto:
                break
            self._clock = now
            dirty = self._dirty
            # 1. Commit the finishing service; a completed group flushes
            #    on the spot (its sub-batch can never grow again).
            if inflight is not None:
                served += 1
                group, i = inflight
                inflight = None
                lookahead = group.lookahead
                left = present[lookahead] - 1
                if left:
                    present[lookahead] = left
                else:
                    self._forget(lookahead)
                # commit() returns True when the group just became dirty
                # (first unflushed member), so the list stays
                # duplicate-free.
                if group.commit(i, now):
                    dirty.append(group)
                    if group.margin != _INF:
                        self._finite += 1
                if group.is_done():
                    group.flush(now)
                    self._clean(dirty, group)
            # 2. Admit arrivals that are due, in timestamp order.
            #    Drop-tail losses are reported to the group: a drop can
            #    be the event that completes it.
            while pending and pending[0][0] <= now:
                _, _, group, i = heappop(pending)
                ring = rings.get(group.key)
                if ring is None:
                    ring = rings[group.key] = deque()
                    ring_order.append(ring)
                if capacity is None or len(ring) < capacity:
                    ring.append((group, i))
                    continue
                self._drops += 1
                lookahead = group.lookahead
                left = present[lookahead] - 1
                if left:
                    present[lookahead] = left
                else:
                    self._forget(lookahead)
                group.drop(i)
                if group.is_done() and group.oldest_commit() is not None:
                    group.flush(now)
                    self._clean(dirty, group)
            # 3. Start the next service (round-robin across rings).
            n = len(ring_order)
            index = self._last
            for _ in range(n):
                index += 1
                if index == n:
                    index = 0
                ring = ring_order[index]
                if ring:
                    self._last = index
                    inflight = ring.popleft()
                    group, i = inflight
                    duration = group.svc[i]
                    if duration < 0:
                        raise ValueError(
                            f"negative service time {duration} at "
                            f"{self.name}")
                    busy_time += duration
                    finish_at = now + duration
                    break
            # 4. Flush finished work downstream while the margin still
            #    holds.  Unbounded groups (margin inf) only flush via
            #    completion (step 1/2) or drain(), so they never
            #    fragment.
            if dirty:
                if inflight is None:
                    keep = []
                    for group in dirty:
                        if group.margin == _INF and not group.is_done():
                            keep.append(group)
                        else:
                            group.flush(now)
                    self._dirty = keep
                    self._finite = 0
                elif self._finite:
                    keep = []
                    finite = 0
                    for group in dirty:
                        oldest = group.oldest_commit()
                        if oldest is None:
                            continue
                        if oldest + group.margin < finish_at:
                            group.flush(now)
                        else:
                            keep.append(group)
                            if group.margin != _INF:
                                finite += 1
                    self._dirty = keep
                    self._finite = finite
        self._inflight = inflight
        self._finish_at = finish_at
        self.busy = inflight is not None
        self.served += served
        self.busy_time = busy_time
        self._in_wake = False
        # 5. Arm the next wake.
        deadline = _INF
        if self._finite:
            for group in self._dirty:
                oldest = group.oldest_commit()
                if oldest is not None and oldest + group.margin < deadline:
                    deadline = oldest + group.margin
        self._deadline = deadline
        at = self._next_wake()
        if at is not None:
            self._arm(at)

    def _clean(self, dirty: List[Any], group: Any) -> None:
        """Take a group that just flushed off the dirty list."""
        try:
            dirty.remove(group)
        except ValueError:
            return
        if group.margin != _INF:
            self._finite -= 1


class ServiceStation:
    """A single server with a FIFO queue and per-item service times.

    Models one processing stage: items arrive via :meth:`submit`, wait in
    FIFO order, are served one at a time for ``service_time(item)``
    seconds, and are then handed to ``on_done(item)``.

    The station is work-conserving; utilization statistics (busy time) are
    tracked for resource accounting.
    """

    def __init__(
        self,
        sim: Simulator,
        service_time: Callable[[Any], float],
        on_done: Callable[[Any], None],
        capacity: Optional[int] = None,
        name: str = "station",
    ) -> None:
        self.sim = sim
        self.service_time = service_time
        self.on_done = on_done
        self.queue = FifoQueue(capacity=capacity, name=f"{name}.queue")
        self.name = name
        self.busy = False
        self.served = 0
        self.busy_time = 0.0

    def submit(self, item: Any) -> bool:
        """Offer an item; returns False if the queue dropped it."""
        if not self.queue.push(item):
            return False
        if not self.busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        if len(self.queue) == 0:
            self.busy = False
            return
        item = self.queue.pop()
        self.busy = True
        duration = self.service_time(item)
        if duration < 0:
            raise ValueError(f"negative service time {duration} at {self.name}")
        self.busy_time += duration
        self.sim.call_later(duration, self._finish, item)

    def _finish(self, item: Any) -> None:
        self.served += 1
        self.on_done(item)
        self._start_next()

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds this station spent serving."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

"""Queues and service stations for packet-level simulation."""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.kernel import Simulator

#: Flush margin for groups whose post-service chain never reaches a
#: timestamped admission point (fabric-bound traffic): flush lateness
#: is unconstrained, so hold until the group completes.
_INF = float("inf")

#: Registered members a lagging batch station may hold unadmitted: past
#: this, the next registration replays up to the present.  Bounds the
#: memory a long lookahead keeps alive (the groups pending entries pin)
#: without changing any outcome.
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
    The station keeps those future arrivals pending and **admits** them
    (rx-ring occupancy check, drop-tail) only when its replay of
    simulated time reaches them.

    The station moves in *steps*, one at each service finish and, while
    idle, one at the earliest pending timestamp:

    1. commit the finishing member to its group, which flushes at once
       if its margin is finite or the commit completed it;
    2. admit the arrivals that are due, in timestamp order;
    3. start the next member, round-robin across rings.

    Admitting every arrival with timestamp in (S, F] at the finish F of
    a service started at S gives per-event admission's outcomes: ring
    occupancy is only read by admissions, no service starts while the
    server is busy, and ring space frees only at service *starts* -- so
    the admission sequence commutes across the busy interval.

    **Cursor admission.**  A registration is one pending entry, not one
    per member: a cursor into the group's ``sub_ts``, sorted once at
    registration (jitter can reorder members).  Member ``i`` of a
    registration made when ``_seq`` was ``base`` orders as
    ``(sub_ts[i], base + i)``, as if each member had its own heap entry,
    so ties break by registration, then index.  An admission takes the
    head group's members for as long as they stay ahead of the next
    group's head.  A full ring stays full until the next service start,
    so the due members of a group that finds its ring full drop as one
    range (``group.drop_range(members)``).  The group's last member is
    never in such a range: it drops on its own, at its own turn, since
    that drop can complete the group and flush it.

    Served members are handed back to their *group* (one group per
    submitted batch), which re-accumulates them into a sub-batch for the
    downstream chain.  Because the downstream continuation runs inline
    at flush time, a flush at time C must satisfy ``C <= F_i + margin``
    for every flushed member finish F_i, where the group's ``margin`` is
    a lower bound on the delay before the member could reach the *next*
    timestamped admission point.  Two flush rules meet every margin.  A
    group with a finite margin flushes at the step that commits each
    member: the earliest flush there is.  An unbounded group (``inf``:
    the member never reaches such a point -- fabric-bound traffic whose
    remaining chain is purely analytic) waits on the dirty list until it
    *completes* (every member committed or dropped: nothing more can
    join the sub-batch) or the end-of-run :meth:`drain` runs.

    **Busy periods.**  Steps are not events.  One :meth:`_wake` replays,
    in order, every step due by the current time, then arms one wake at
    the latest instant anything outside the station can depend on: the
    next step plus the smallest ``lookahead`` among the members present
    (registered, not yet committed or dropped), capped by the kernel's
    :attr:`~repro.sim.kernel.Simulator.horizon`.  A group's lookahead is
    a lower bound on the delay from a member's finish to its first
    effect outside the station: a commit registering it at another
    station, or a flush reaching a timestamped point.  Members that only
    re-enter this station or leave for the fabric have lookahead
    ``inf``.  Waking earlier is always exact, only slower, so a station
    that holds more than ``_MAX_LAG`` unadmitted members also replays at
    the next registration.  Code that reads the station mid-run calls
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
        #: One entry per registration with members left to admit:
        #: (ts, seq, group, pos, cursor).  ``cursor`` is None for a
        #: one-member registration (``pos`` is then the member index),
        #: else (sorted ts, sort order or None when already ascending,
        #: base seq, last position), and (ts, seq) are those of sorted
        #: position ``pos``.
        self._pending: List[Tuple[float, int, Any, int, Any]] = []
        self._seq = 0
        #: Registered members not yet admitted or dropped.
        self._lag = 0
        self._inflight: Optional[Tuple[Any, int]] = None
        self._finish_at = 0.0
        self._wake_event = None
        self._wake_time = 0.0
        #: The wake a partial catch-up cancelled: revived if the replay
        #: arms the same instant again (keeps cancelled events from
        #: piling up in the kernel's heap).
        self._spare = None
        #: True while _wake runs: submits then leave arming to the end
        #: of the wake (flushes re-enter submit_group inline).
        self._in_wake = False
        #: The step a running wake is replaying.
        self._clock = 0.0
        #: Unbounded groups holding served-but-unflushed members.
        self._dirty: List[Any] = []
        #: Members present, counted per lookahead value, and the least
        #: value with a count.
        self._present: "dict[float, int]" = {}
        self._lookahead = _INF
        #: Members may turn out never to have arrived (their bridge was
        #: down when they would have): each is then asked about at its
        #: admission (``group.dead(i)``) and, if dead, vanishes -- no
        #: ring slot, no drop counted -- as if it had never registered.
        self.mortal = False

    def submit_group(self, group: Any) -> None:
        """Register every member of ``group`` as a future arrival.

        ``group`` carries parallel ``sub_ts`` (arrival timestamps, in any
        order; none may lie behind the station's replay clock, see
        :meth:`_check_ts`) and ``svc`` (service times) lists plus a
        ``key`` (rx ring id), a flush ``margin`` and a ``lookahead`` (at
        most the margin when a flush reaches a timestamped point: the
        flush is then an outside effect), and receives ``commit(i, t)``
        / ``drop(i)`` / ``drop_range(members)`` / ``is_done()`` /
        ``flush(now)`` / ``oldest_commit()`` calls.  ``drop_range``
        gets the indices of several members ring-dropped at once; it
        never includes the member admitted last, so it never completes
        the group.  A service time may be None until the member's
        service starts: the station then asks ``lookups.final(i)`` (the
        bridge's microflow lookups decide it, resolved up to the
        member's arrival), so service times are final before a start.
        """
        sub_ts = group.sub_ts
        n = len(sub_ts)
        if not n:
            return
        base = seq = self._seq
        if n == 1:
            ts = sub_ts
            cursor = None
        else:
            ts = sorted(sub_ts)
            order = None
            if ts != sub_ts:
                # Stable: equal timestamps keep index (= seq) order.
                order = sorted(range(n), key=sub_ts.__getitem__)
                seq += order[0]
            cursor = (ts, order, base, n - 1)
        self._check_ts(ts[0])
        self._seq = base + n
        heapq.heappush(self._pending, (ts[0], seq, group, 0, cursor))
        self._lag += n
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
        self._check_ts(ts)
        heapq.heappush(self._pending, (ts, self._seq, group, i, None))
        self._seq += 1
        self._lag += 1
        self._add(group.lookahead, 1)

    def _check_ts(self, ts: float) -> None:
        """Reject a member registered behind the station's replay clock.

        Admission would take it at the next step, out of the per-frame
        order.  Inside a wake the clock is the step being replayed (a
        station's own re-entrant registrations lag ``sim.now``);
        otherwise it is ``sim.now``.
        """
        clock = self._clock if self._in_wake else self.sim.now
        if ts < clock:
            raise SimulationError(
                f"{self.name}: member registered at t={ts}, behind the "
                f"station clock {clock}")

    def catch_up(self, upto: Optional[float] = None) -> None:
        """Replay every step due by ``upto`` (default: now).

        For code that reads the station (busy time, ring drops, held
        groups) while a busy period may still be unreplayed, and for a
        sibling station that needs this one's commits up to ``upto``
        registered (a shared flow cache resolving in arrival order).
        """
        event = self._wake_event
        if event is not None and not self._in_wake:
            event.cancel()
            if upto is not None:
                self._spare = event
            self._wake(upto)
            self._spare = None

    def drain(self) -> None:
        """Flush the sub-batches that unbounded groups still hold.

        The end-of-run safety valve for groups that never completed
        (tail members still pending when traffic stopped); a group with
        a finite margin never holds a commit past its step.
        """
        self.catch_up()
        now = self.sim.now
        # Flushing can complete *other* dirty groups (a fused upstream
        # group's flush seals its downstream sink), so work off a
        # snapshot and let re-entrant removals target the live list.  A
        # group leaves the list only once it holds no commit: until
        # then the egress hold's watermark must still see it (a fused
        # sink cannot flush before its upstream's traversal brings the
        # header).
        for group in list(self._dirty):
            group.flush(now)
            if group.oldest_commit() is None:
                self._clean(group)

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

    def replay_position(self) -> float:
        """The step a running wake replays, else the next step the
        station will replay (``inf``: none).  Every service started so
        far started at or before it, and every commit still to come
        comes at or after it."""
        if self._in_wake:
            return self._clock
        if self._inflight is not None:
            return self._finish_at
        if self._pending:
            return self._pending[0][0]
        return _INF

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
            if (self._lag > _MAX_LAG
                    and self._pending[0][0] <= self.sim.now):
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
        when = at if at > now else now
        spare = self._spare
        if spare is not None and spare.time == when:
            spare.cancelled = False
            self._wake_event = spare
        else:
            self._wake_event = self.sim.schedule(when, self._wake)
        self._wake_time = at

    def _wake(self, upto: Optional[float] = None) -> None:
        """Replay every step due by ``upto`` (default: now), then arm the
        next wake."""
        self._wake_event = None
        self._in_wake = True
        if upto is None:
            upto = self.sim.now
        pending = self._pending
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        rings = self._rings
        ring_order = self._ring_order
        capacity = self.queue_capacity
        present = self._present
        dirty = self._dirty
        mortal = self.mortal
        # Server state lives in locals for the replay; nothing re-entered
        # from a commit or flush reads it (oldest_unflushed reads _clock).
        inflight = self._inflight
        finish_at = self._finish_at
        served = 0
        admitted = 0
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
            # 1. Commit the finishing service.  Its group flushes on the
            #    spot if its margin is finite or it just completed (its
            #    sub-batch can never grow again); otherwise it waits on
            #    the dirty list.
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
                # (first unflushed member): it is not on the list yet.
                fresh = group.commit(i, now)
                if group.margin != _INF or group.is_done():
                    group.flush(now)
                    if not fresh:
                        self._clean(group)
                elif fresh:
                    dirty.append(group)
            # 2. Admit arrivals that are due, in (timestamp, seq) order,
            #    a run of the head group's members at a time.  Drop-tail
            #    losses are reported to the group: a drop can be the
            #    event that completes it.
            while pending and pending[0][0] <= now:
                _, seq, group, pos, cursor = pending[0]
                if mortal:
                    self._admit_one(group, seq, pos, cursor, now)
                    admitted += 1
                    continue
                ring = rings.get(group.key)
                if ring is None:
                    ring = rings[group.key] = deque()
                    ring_order.append(ring)
                if cursor is None:
                    heappop(pending)
                    admitted += 1
                    if capacity is None or len(ring) < capacity:
                        ring.append((group, pos))
                    else:
                        self._drop(group, pos, now)
                    continue
                ts, order, base, last = cursor
                start = pos
                i = seq - base
                stop_t = None
                while True:
                    if capacity is None or len(ring) < capacity:
                        ring.append((group, i))
                        pos += 1
                    elif pos < last:
                        # The ring stays full until the next service
                        # start: every due member but the last drops,
                        # and the group stays incomplete (its last
                        # member is still present).
                        end = bisect_right(ts, now, pos + 1, last)
                        self._drops += end - pos
                        present[group.lookahead] -= end - pos
                        group.drop_range(range(pos, end) if order is None
                                         else order[pos:end])
                        pos = end
                    else:
                        heappop(pending)
                        admitted += 1
                        self._drop(group, i, now)
                        break
                    if pos > last:
                        heappop(pending)
                        break
                    t = ts[pos]
                    i = pos if order is None else order[pos]
                    if t <= now:
                        if stop_t is None:
                            # The run ends where the next registration's
                            # head comes first.
                            stop_t, stop_seq = now, _INF
                            size = len(pending)
                            if size > 1:
                                head = pending[1]
                                if size > 2 and pending[2] < head:
                                    head = pending[2]
                                if head[0] <= now:
                                    stop_t, stop_seq = head[0], head[1]
                        if t < stop_t or (t == stop_t
                                          and base + i < stop_seq):
                            continue
                    heapreplace(pending, (t, base + i, group, pos, cursor))
                    break
                admitted += pos - start
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
                    if duration is None:
                        duration = group.lookups.final(i)
                    if duration < 0:
                        raise ValueError(
                            f"negative service time {duration} at "
                            f"{self.name}")
                    busy_time += duration
                    finish_at = now + duration
                    break
        self._inflight = inflight
        self._finish_at = finish_at
        self.busy = inflight is not None
        self.served += served
        self.busy_time = busy_time
        # Admitted or dropped; re-entrant registrations added theirs.
        self._lag -= admitted
        self._in_wake = False
        at = self._next_wake()
        if at is not None:
            self._arm(at)

    def _admit_one(self, group: Any, seq: int, pos: int, cursor: Any,
                   now: float) -> None:
        """Admit the head registration's next member alone (mortal
        stations): it vanishes if ``group.dead(i)``, else takes a ring
        slot or drops.  Its ring is made at its first live member, as
        the per-frame station makes its queue."""
        pending = self._pending
        if cursor is None:
            i = pos
            heapq.heappop(pending)
        else:
            ts, order, base, last = cursor
            i = seq - base
            if pos == last:
                heapq.heappop(pending)
            else:
                pos += 1
                j = pos if order is None else order[pos]
                heapq.heapreplace(pending,
                                  (ts[pos], base + j, group, pos, cursor))
        if group.dead(i):
            self._drop(group, i, now, vanish=True)
            return
        ring = self._rings.get(group.key)
        if ring is None:
            ring = self._rings[group.key] = deque()
            self._ring_order.append(ring)
        capacity = self.queue_capacity
        if capacity is None or len(ring) < capacity:
            ring.append((group, i))
        else:
            self._drop(group, i, now)

    def _drop(self, group: Any, i: int, now: float,
              vanish: bool = False) -> None:
        """Ring-drop member ``i`` (or, with ``vanish``, let a member
        that never arrived go uncounted); flush the group if that
        completed it."""
        if not vanish:
            self._drops += 1
        lookahead = group.lookahead
        present = self._present
        left = present[lookahead] - 1
        if left:
            present[lookahead] = left
        else:
            self._forget(lookahead)
        group.drop(i)
        if group.is_done() and group.oldest_commit() is not None:
            group.flush(now)
            self._clean(group)

    def _clean(self, group: Any) -> None:
        """Take a group that just flushed off the dirty list."""
        try:
            self._dirty.remove(group)
        except ValueError:
            pass


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

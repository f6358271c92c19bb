"""The discrete-event simulator: a clock plus an event heap."""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Optional

from repro import obs as _obs
from repro.errors import SimulationError
from repro.sim.events import Event

_INF = float("inf")


class RecurringEvent:
    """Handle for a :meth:`Simulator.every` timer.

    Owns the currently pending :class:`Event` and reschedules itself
    after each firing; ``cancel()`` stops the chain.  The callback runs
    *before* the next occurrence is scheduled, so a callback may cancel
    its own timer.
    """

    __slots__ = ("_sim", "_interval", "_callback", "_args", "_until",
                 "_event", "cancelled")

    def __init__(self, sim: "Simulator", interval: float,
                 callback: Callable[..., Any], args: tuple,
                 until: Optional[float]) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._args = args
        self._until = until
        self._event: Optional[Event] = None
        self.cancelled = False
        self._schedule()

    def _schedule(self) -> None:
        next_t = self._sim.now + self._interval
        # The epsilon absorbs float accumulation so a timer whose
        # horizon is an exact multiple of the interval still fires at
        # the horizon itself.
        if self._until is not None and next_t > self._until + 1e-15:
            self._event = None
            return
        self._event = self._sim.schedule(next_t, self._fire)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self._callback(*self._args)
        if not self.cancelled:
            self._schedule()

    def cancel(self) -> None:
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None


class Simulator:
    """Runs callbacks in virtual-time order.

    The kernel is single-threaded and deterministic: events at equal
    timestamps fire in the order they were scheduled.  Components hold a
    reference to the simulator and schedule work with :meth:`schedule`
    (absolute time) or :meth:`call_later` (relative delay).

    Example::

        sim = Simulator()
        sim.call_later(1.5, print, "hello at t=1.5")
        sim.run(until=10.0)
    """

    def __init__(self) -> None:
        self._now = 0.0
        # Heap entries are (time, seq, event) tuples: the heap then
        # orders by plain float/int compares at C speed instead of
        # calling Event.__lt__ for every sift step -- the single
        # hottest operation in packet-scale simulations.
        self._heap: list[tuple[float, int, Event]] = []
        self._events_fired = 0
        self._running = False
        self._until: Optional[float] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def horizon(self) -> float:
        """How far the running ``run(until=...)`` call takes the clock.

        Components that defer work (batch stations replaying a busy
        period lazily) may put it off up to this instant, but no later:
        the call returns there.  Outside such a call -- no run, a run to
        exhaustion, or one capped by ``max_events`` -- nothing says
        where the clock stops, so the horizon is ``now``.
        """
        until = self._until
        return self._now if until is None else until

    @property
    def stop_time(self) -> float:
        """The last instant the clock reaches before observables can be
        read: the running ``run(until=...)`` call's ``until``, ``inf``
        during a run without one, ``now`` between runs.  Batched hops
        that handle members ahead of their timestamps count only the
        members that get there by it, as per-frame events would.
        """
        if self._running:
            until = self._until
            return _INF if until is None else until
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_fired

    def schedule(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )
        event = Event(time, callback, args)
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule(self._now + delay, callback, *args)

    def every(self, interval: float, callback: Callable[..., Any], *args: Any,
              until: Optional[float] = None) -> RecurringEvent:
        """Schedule ``callback(*args)`` every ``interval`` seconds.

        The first firing is at ``now + interval``.  With ``until`` the
        timer stops once the next occurrence would pass that horizon
        (an occurrence landing exactly on it still fires).  Returns a
        :class:`RecurringEvent` whose ``cancel()`` stops the chain.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval: {interval}")
        return RecurringEvent(self, interval, callback, args, until)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the heap drains, ``until`` passes, or
        ``max_events`` fire.  Returns the number of events fired by this
        call.

        When ``until`` is given the clock is advanced to exactly ``until``
        on return even if the heap drained earlier, so successive
        ``run(until=...)`` calls form a contiguous timeline.
        """
        if self._running:
            raise SimulationError("run() re-entered; the kernel is not reentrant")
        self._running = True
        self._until = until if max_events is None else None
        fired = 0
        wall_start = time.perf_counter()
        try:
            while self._heap:
                event = self._heap[0][2]
                if event.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and event.time > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                heapq.heappop(self._heap)
                self._now = event.time
                event.fire()
                fired += 1
                self._events_fired += 1
        finally:
            self._running = False
            self._until = None
        if until is not None and self._now < until:
            self._now = until
        _obs.TRACER.kernel_run(self._now, self._events_fired,
                               len(self._heap),
                               time.perf_counter() - wall_start)
        return fired

    def release(self) -> None:
        """Drop every pending event and its callback.

        A pending event's callback is usually a bound method of a
        component that holds this simulator (or, for a
        :class:`RecurringEvent`, the timer that holds the event), so
        the heap closes reference cycles; a finished run's owner calls
        this so that they go by reference counting.  The clock keeps
        its time; nothing scheduled before runs any more.
        """
        for _, _, event in self._heap:
            event.cancelled = True
            event.callback = event.args = None
        self._heap = []

    def peek(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None`` if idle."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)

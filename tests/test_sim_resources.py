"""FIFO queues and service stations."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import FifoQueue, ServiceStation, Simulator
from repro.sim.resources import BatchFairStation, FairServiceStation


class TestFifoQueue:
    def test_fifo_order(self):
        q = FifoQueue()
        for i in range(3):
            q.push(i)
        assert [q.pop() for _ in range(3)] == [0, 1, 2]

    def test_bounded_queue_drops_tail(self):
        q = FifoQueue(capacity=2)
        assert q.push("a")
        assert q.push("b")
        assert not q.push("c")
        assert q.dropped == 1
        assert len(q) == 2

    def test_peek_does_not_remove(self):
        q = FifoQueue()
        q.push("x")
        assert q.peek() == "x"
        assert len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            FifoQueue().pop()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FifoQueue(capacity=0)

    def test_clear(self):
        q = FifoQueue()
        q.push(1)
        q.clear()
        assert len(q) == 0


class TestServiceStation:
    def test_serves_in_order_with_service_time(self):
        sim = Simulator()
        done = []
        station = ServiceStation(sim, service_time=lambda _: 1.0,
                                 on_done=lambda item: done.append((item, sim.now)))
        station.submit("a")
        station.submit("b")
        sim.run()
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_idle_station_starts_immediately(self):
        sim = Simulator()
        done = []
        station = ServiceStation(sim, service_time=lambda _: 0.5,
                                 on_done=lambda item: done.append(sim.now))
        station.submit("x")
        sim.run()
        assert done == [0.5]

    def test_queue_capacity_drops(self):
        sim = Simulator()
        station = ServiceStation(sim, service_time=lambda _: 1.0,
                                 on_done=lambda item: None, capacity=1)
        assert station.submit("a")      # begins service
        assert station.submit("b")      # queued
        assert not station.submit("c")  # queue full -> dropped
        sim.run()
        assert station.served == 2
        assert station.queue.dropped == 1

    def test_busy_time_accumulates(self):
        sim = Simulator()
        station = ServiceStation(sim, service_time=lambda item: item,
                                 on_done=lambda item: None)
        station.submit(1.0)
        station.submit(2.0)
        sim.run()
        assert station.busy_time == pytest.approx(3.0)
        assert station.utilization(6.0) == pytest.approx(0.5)

    def test_utilization_capped_at_one(self):
        sim = Simulator()
        station = ServiceStation(sim, service_time=lambda _: 2.0,
                                 on_done=lambda item: None)
        station.submit("a")
        sim.run()
        assert station.utilization(1.0) == 1.0

    def test_negative_service_time_rejected(self):
        sim = Simulator()
        station = ServiceStation(sim, service_time=lambda _: -1.0,
                                 on_done=lambda item: None)
        # The idle station begins service synchronously on submit.
        with pytest.raises(ValueError):
            station.submit("a")

    def test_work_conserving_across_idle_gaps(self):
        sim = Simulator()
        done = []
        station = ServiceStation(sim, service_time=lambda _: 0.1,
                                 on_done=lambda item: done.append(sim.now))
        station.submit("a")
        sim.schedule(1.0, station.submit, "b")
        sim.run()
        assert done == pytest.approx([0.1, 1.1])


class _Group:
    """Minimal batch-station group: one member, commits recorded."""

    key = 0
    margin = 0.0
    lookahead = 0.0

    def __init__(self, t, service):
        self.sub_ts = [t]
        self.svc = [service]
        self.commits = []
        self.flushed = []

    def commit(self, i, t):
        self.commits.append(t)
        return True

    def drop(self, i):
        pass

    def is_done(self):
        return bool(self.commits)

    def oldest_commit(self):
        return self.commits[0] if self.commits else None

    def flush(self, now):
        self.flushed.append(now)


class TestBatchFairStation:
    def test_idle_wake_lands_exactly_on_the_arrival(self):
        # Far enough ahead that now + (at - now) rounds past at.
        now, at = 0.00017300740157905092, 0.0012954772801337612
        assert now + (at - now) > at
        sim = Simulator()
        sim.run(until=now)
        station = BatchFairStation(sim)
        group = _Group(at, 1e-6)
        station.submit_group(group)
        sim.run()
        assert group.commits == [at + 1e-6]

    def test_oldest_unflushed_tracks_held_commits(self):
        sim = Simulator()
        station = BatchFairStation(sim)
        assert station.oldest_unflushed() is None
        first, second = _Group(1e-6, 1e-6), _Group(1.5e-6, 1e-6)
        first.margin = second.margin = float("inf")  # hold until done
        first.is_done = second.is_done = lambda: False
        station.submit_group(first)
        station.submit_group(second)
        sim.run()
        assert station.oldest_unflushed() == first.commits[0] == 2e-6
        station.drain()
        assert station.oldest_unflushed() is None


#: Arrival and service lattices with an irrational ratio: no finish
#: time (arrival plus services) can tie with another arrival.
_ARRIVAL = 1e-6
_SERVICE = math.sqrt(2) * 1e-7
_INF = float("inf")


class _FuzzGroup:
    """A batch-station group that checks the station's contract.

    Its commits are due outside the station within ``lookahead`` of the
    finish, and its flushes within ``margin`` of every flushed finish.
    """

    def __init__(self, sim, key, sub_ts, svc, margin, lookahead):
        self.sim = sim
        self.key = key
        self.sub_ts = sub_ts
        self.svc = svc
        self.margin = margin
        self.lookahead = lookahead
        self.commits = {}
        self.drops = set()
        self._held = []

    def commit(self, i, t):
        assert self.sim.now <= t + self.lookahead
        self.commits[i] = t
        self._held.append(t)
        return len(self._held) == 1

    def drop(self, i):
        self.drops.add(i)

    def is_done(self):
        return len(self.commits) + len(self.drops) == len(self.sub_ts)

    def oldest_commit(self):
        return self._held[0] if self._held else None

    def flush(self, now):
        for t in self._held:
            assert self.sim.now <= t + self.margin
        self._held = []


_BOUND = st.sampled_from(["zero", "finite", "inf"])


@st.composite
def _station_case(draw):
    """Groups of timestamped members on 1-4 rings, plus an optional cut.

    Each group: ring key, members (arrival, service), margin and
    lookahead (never above the margin: a flush is an outside effect),
    registration lead, and whether members register one at a time.
    """
    rings = draw(st.integers(min_value=1, max_value=4))
    capacity = draw(st.integers(min_value=1, max_value=8))
    slots = draw(st.lists(st.integers(min_value=1, max_value=6),
                          min_size=1, max_size=40))
    arrivals = []
    t = 0
    for gap in slots:
        t += gap
        arrivals.append(t)
    n_groups = draw(st.integers(min_value=1, max_value=min(8, len(slots))))
    owner = [draw(st.integers(min_value=0, max_value=n_groups - 1))
             for _ in arrivals]
    groups = []
    for g in range(n_groups):
        ts = [a for a, o in zip(arrivals, owner) if o == g]
        if not ts:
            continue
        bounds = []
        for kind in (draw(_BOUND), draw(_BOUND)):
            if kind == "zero":
                bounds.append(0.0)
            elif kind == "finite":
                bounds.append(draw(st.integers(min_value=1, max_value=30))
                              * _ARRIVAL / 3)
            else:
                bounds.append(_INF)
        margin, lookahead = bounds[0], min(bounds)
        groups.append({
            "key": draw(st.integers(min_value=0, max_value=rings - 1)),
            "ts": [a * _ARRIVAL for a in ts],
            "svc": [draw(st.integers(min_value=1, max_value=40)) * _SERVICE
                    for _ in ts],
            "margin": margin,
            "lookahead": lookahead,
            "lead": draw(st.integers(min_value=0, max_value=20)) * _ARRIVAL,
            "one_by_one": draw(st.booleans()),
        })
    cut = draw(st.one_of(st.none(), st.integers(min_value=0,
                                                max_value=t + 20)))
    if cut is not None:
        cut = cut * _ARRIVAL + _ARRIVAL / 3
    return capacity, groups, cut


def _per_frame(capacity, groups, cut):
    """The per-event reference: each member its own arrival event."""
    sim = Simulator()
    commits, drops = {}, set()
    station = FairServiceStation(
        sim, service_time=lambda m: m[2],
        on_done=lambda m: commits.__setitem__(m[:2], sim.now),
        queue_capacity=capacity)

    def arrive(key, member):
        if not station.submit(key, member):
            drops.add(member[:2])

    for g, spec in enumerate(groups):
        for i, (t, s) in enumerate(zip(spec["ts"], spec["svc"])):
            sim.schedule(t, arrive, spec["key"], (g, i, s))
    busy_at_cut = None
    if cut is not None:
        sim.run(until=cut)
        busy_at_cut = station.busy_time
    sim.run()
    return commits, drops, station, busy_at_cut


def _batched(capacity, groups, cut):
    sim = Simulator()
    station = BatchFairStation(sim, queue_capacity=capacity)
    made = []
    for spec in groups:
        group = _FuzzGroup(sim, spec["key"], spec["ts"], spec["svc"],
                           spec["margin"], spec["lookahead"])
        made.append(group)
        if spec["one_by_one"]:
            for i, t in enumerate(spec["ts"]):
                sim.schedule(max(0.0, t - spec["lead"]),
                             station.submit_member, group, i, t)
        else:
            sim.schedule(max(0.0, min(spec["ts"]) - spec["lead"]),
                         station.submit_group, group)
    at_cut = None
    if cut is not None:
        sim.run(until=cut)
        at_cut = ({(g, i): t for g, group in enumerate(made)
                   for i, t in group.commits.items()}, station.busy_time)
    # A far horizon lets the station defer as far as lookaheads allow.
    sim.run(until=1.0)
    commits = {(g, i): t for g, group in enumerate(made)
               for i, t in group.commits.items()}
    drops = {(g, i) for g, group in enumerate(made) for i in group.drops}
    return commits, drops, station, at_cut


class TestBatchStationAgainstPerFrame:
    """The lazily replayed station against per-frame events."""

    @settings(max_examples=300, deadline=None)
    @given(_station_case())
    def test_commits_drops_and_busy_time_match(self, case):
        capacity, groups, cut = case
        ref_commits, ref_drops, ref, ref_busy = _per_frame(*case)
        commits, drops, station, at_cut = _batched(*case)
        assert commits == ref_commits
        assert drops == ref_drops
        assert station.busy_time == ref.busy_time
        assert station.served == ref.served
        assert station.dropped() == ref.dropped()
        assert station.oldest_unflushed() is None
        if cut is not None:
            by_cut, busy = at_cut
            assert by_cut == {m: t for m, t in ref_commits.items()
                              if t <= cut}
            assert busy == ref_busy


class TestRngStreams:
    def test_same_name_same_stream(self):
        from repro.sim import RngStreams
        rng = RngStreams(seed=1)
        assert rng.stream("x") is rng.stream("x")

    def test_streams_reproducible_across_instances(self):
        from repro.sim import RngStreams
        a = RngStreams(seed=7).stream("gen").random()
        b = RngStreams(seed=7).stream("gen").random()
        assert a == b

    def test_different_names_decorrelated(self):
        from repro.sim import RngStreams
        rng = RngStreams(seed=7)
        xs = [rng.stream("a").random() for _ in range(4)]
        ys = [rng.stream("b").random() for _ in range(4)]
        assert xs != ys

    def test_different_seeds_differ(self):
        from repro.sim import RngStreams
        assert (RngStreams(0).stream("s").random()
                != RngStreams(1).stream("s").random())

    def test_fork_is_independent(self):
        from repro.sim import RngStreams
        base = RngStreams(seed=3)
        fork = base.fork("rep1")
        assert base.stream("s").random() != fork.stream("s").random()
        # Forks are themselves reproducible.
        again = RngStreams(seed=3).fork("rep1")
        assert fork.seed == again.seed

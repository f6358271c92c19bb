"""FIFO queues and service stations."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
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
    """Minimal batch-station group: one member, commits recorded (and
    held until a flush hands them on)."""

    key = 0
    margin = 0.0
    lookahead = 0.0

    def __init__(self, t, service):
        self.sub_ts = [t]
        self.svc = [service]
        self.commits = []
        self.held = []
        self.flushed = []

    def commit(self, i, t):
        self.commits.append(t)
        self.held.append(t)
        return True

    def drop(self, i):
        pass

    def is_done(self):
        return bool(self.commits)

    def oldest_commit(self):
        return self.held[0] if self.held else None

    def flush(self, now):
        self.flushed.append(now)
        self.held = []


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
    A range drop must never complete it.
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
        self.ranges = 0
        self._held = []

    def commit(self, i, t):
        assert self.sim.now <= t + self.lookahead
        self.commits[i] = t
        self._held.append(t)
        return len(self._held) == 1

    def drop(self, i):
        self.drops.add(i)

    def drop_range(self, members):
        assert len(members) > 0
        assert self.drops.isdisjoint(members)
        self.drops.update(members)
        self.ranges += 1
        assert not self.is_done()

    def is_done(self):
        return len(self.commits) + len(self.drops) == len(self.sub_ts)

    def oldest_commit(self):
        return self._held[0] if self._held else None

    def flush(self, now):
        for t in self._held:
            assert self.sim.now <= t + self.margin
        self._held = []


class _FlushLog(_FuzzGroup):
    """A :class:`_FuzzGroup` that records each flush: its time and the
    finishes it hands on."""

    def __init__(self, *args):
        super().__init__(*args)
        self.flushes = []

    def flush(self, now):
        self.flushes.append((now, list(self._held)))
        super().flush(now)


class TestFlushRules:
    _US = 1e-6

    def _run(self, margin):
        us = self._US
        sim = Simulator()
        group = _FlushLog(sim, 0, [1.0 * us, 1.1 * us, 1.2 * us],
                          [us] * 3, margin, min(margin, 10 * us))
        BatchFairStation(sim).submit_group(group)
        sim.run()
        return group.flushes

    def test_finite_margin_flushes_at_each_commit(self):
        us = self._US
        flushes = self._run(10 * us)
        assert [now for now, _ in flushes] == pytest.approx(
            [2 * us, 3 * us, 4 * us])
        assert [held for _, held in flushes] == [[now] for now, _ in flushes]

    def test_unbounded_margin_flushes_once_at_completion(self):
        us = self._US
        flushes = self._run(_INF)
        assert len(flushes) == 1
        now, held = flushes[0]
        assert now == pytest.approx(4 * us)
        assert held == pytest.approx([2 * us, 3 * us, 4 * us])


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
    return made, station, at_cut


def _assert_matches(case):
    """The batched station's outcome equals the per-frame one.  Returns
    how many range drops the batched station made."""
    _, _, cut = case
    ref_commits, ref_drops, ref, ref_busy = _per_frame(*case)
    made, station, at_cut = _batched(*case)
    commits = {(g, i): t for g, group in enumerate(made)
               for i, t in group.commits.items()}
    drops = {(g, i) for g, group in enumerate(made) for i in group.drops}
    assert commits == ref_commits
    assert drops == ref_drops
    assert station.busy_time == ref.busy_time
    assert station.served == ref.served
    assert station.dropped() == ref.dropped()
    assert station.oldest_unflushed() is None
    if cut is not None:
        by_cut, busy = at_cut
        assert by_cut == {m: t for m, t in ref_commits.items() if t <= cut}
        assert busy == ref_busy
    return sum(group.ranges for group in made)


class TestBatchStationAgainstPerFrame:
    """The lazily replayed station against per-frame events."""

    @settings(max_examples=300, deadline=None)
    @given(_station_case())
    def test_commits_drops_and_busy_time_match(self, case):
        _assert_matches(case)


@st.composite
def _overload_case(draw):
    """Like :func:`_station_case`, at 5x to 17x the service rate.

    Arrivals take consecutive or every-other lattice slots, services
    72-120 service units (each above 10 slots), and every group's
    ``sub_ts`` comes in a drawn order, as jittered bursts do.
    """
    rings = draw(st.integers(min_value=1, max_value=4))
    capacity = draw(st.integers(min_value=1, max_value=8))
    gaps = draw(st.lists(st.integers(min_value=1, max_value=2),
                         min_size=2, max_size=60))
    arrivals = []
    t = 0
    for gap in gaps:
        t += gap
        arrivals.append(t)
    n_groups = draw(st.integers(min_value=1, max_value=min(6, len(gaps))))
    owner = [draw(st.integers(min_value=0, max_value=n_groups - 1))
             for _ in arrivals]
    groups = []
    for g in range(n_groups):
        ts = [a * _ARRIVAL for a, o in zip(arrivals, owner) if o == g]
        if not ts:
            continue
        margin = draw(st.sampled_from([0.0, 4 * _ARRIVAL, _INF]))
        groups.append({
            "key": draw(st.integers(min_value=0, max_value=rings - 1)),
            "ts": draw(st.permutations(ts)),
            "svc": [draw(st.integers(min_value=72, max_value=120))
                    * _SERVICE for _ in ts],
            "margin": margin,
            "lookahead": min(margin, draw(st.sampled_from(
                [0.0, 2 * _ARRIVAL, _INF]))),
            "lead": draw(st.integers(min_value=0, max_value=20)) * _ARRIVAL,
            "one_by_one": draw(st.booleans()),
        })
    cut = draw(st.one_of(st.none(), st.integers(min_value=0,
                                                max_value=t + 20)))
    if cut is not None:
        cut = cut * _ARRIVAL + _ARRIVAL / 3
    return capacity, groups, cut


class TestBatchStationAtOverload:
    """Saturated rings, jittered member order, range drops."""

    @settings(max_examples=300, deadline=None)
    @given(_overload_case())
    def test_commits_drops_and_busy_time_match(self, case):
        _assert_matches(case)

    @pytest.mark.parametrize("rings,capacity", [(1, 1), (3, 8)])
    def test_one_registration_past_the_lag_bound(self, rings, capacity):
        # Groups of more than _MAX_LAG members each, registered at once
        # and in shuffled order, at 7x the service rate or more.
        from repro.sim.resources import _MAX_LAG

        rng = random.Random(rings)
        n = _MAX_LAG + 500
        slots = rng.sample(range(1, rings * n + 1), rings * n)
        groups = []
        for k in range(rings):
            ts = [a * _ARRIVAL for a in slots[k * n:(k + 1) * n]]
            groups.append({
                "key": k, "ts": ts,
                "svc": [rng.randint(36, 60) * rings * _SERVICE for _ in ts],
                "margin": _INF, "lookahead": _INF, "lead": 0.0,
                "one_by_one": False,
            })
        assert _assert_matches((capacity, groups, None)) > 0


class _ReEntrant(_Group):
    """Registers ``other``'s member at the same station on commit, at
    the commit time plus ``offset``."""

    margin = _INF
    lookahead = _INF

    def __init__(self, station, other, offset):
        super().__init__(1e-6, 1e-6)
        self.station = station
        self.other = other
        self.offset = offset

    def commit(self, i, t):
        self.station.submit_member(self.other, 0, t + self.offset)
        return super().commit(i, t)


class TestRegistrationContract:
    """No member may be registered behind the station's clock."""

    def test_group_behind_now_rejected(self):
        sim = Simulator()
        sim.run(until=2e-6)
        station = BatchFairStation(sim)
        # The first member is on time; the jittered second is late.
        group = _Group(3e-6, 1e-6)
        group.sub_ts = [3e-6, 1e-6]
        group.svc = [1e-6, 1e-6]
        with pytest.raises(SimulationError, match="behind the station"):
            station.submit_group(group)

    def test_member_behind_now_rejected(self):
        sim = Simulator()
        sim.run(until=2e-6)
        station = BatchFairStation(sim)
        station.submit_member(_Group(2e-6, 1e-6), 0, 2e-6)
        with pytest.raises(SimulationError, match="behind the station"):
            station.submit_member(_Group(1e-6, 1e-6), 0, 1e-6)

    @staticmethod
    def _replay(offset):
        sim = Simulator()
        station = BatchFairStation(sim)
        other = _Group(0.0, 1e-6)
        station.submit_group(_ReEntrant(station, other, offset))
        sim.run(until=1.0)
        return other

    def test_wake_registrations_check_the_replay_clock(self):
        # The wake at 1.0 replays the commit at 2e-6: a registration
        # behind now but not behind the step stands.
        assert self._replay(1e-9).commits == [2e-6 + 1e-9 + 1e-6]
        with pytest.raises(SimulationError, match="behind the station"):
            self._replay(-1e-9)


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

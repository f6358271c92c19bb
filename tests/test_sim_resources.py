"""FIFO queues and service stations."""

import pytest

from repro.sim import FifoQueue, ServiceStation, Simulator
from repro.sim.resources import BatchFairStation


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

"""Lane draws (``HashJitter.units``) against scalar ``unit()`` draws.

The batched data plane draws a whole burst's jitter in one lane pass;
the per-frame oracle draws one ``unit()`` at a time.  Bit-exactness of
the two paths rests on every lane draw equalling its scalar draw, at
every batch size (including the ones below the lane threshold, forced
through the lane kernel here), for every key shape, site and seed.
"""

import random
from dataclasses import replace

import pytest

import repro.sim.hashjit as hashjit
from repro.perfmodel.calibration import dpdk_pass_costs, kernel_pass_costs
from repro.sim.hashjit import HashJitter
from repro.vswitch.datapath import DatapathMode, DatapathModel

SIZES = (0, 1, 3, 4, 8, 1024, 4096)
SITES = tuple(sorted(value for name, value in vars(HashJitter).items()
                     if name.startswith("SITE_")))
JITTERS = (HashJitter(0), HashJitter(2**64 - 1),
           HashJitter.from_name("vswitch-vm0.br0"),
           HashJitter.from_name("tenant1-l2fwd"))
#: Keys at the edges of the 64-bit mix: the shift by 8 carries key bit
#: 56 out of the word, 2^64 + 5 only counts mod 2^64, and negative keys
#: enter as two's complement.
EDGE_KEYS = (0, 2**56 - 1, 2**56, 2**64 + 5, 2**64 - 1, -1, -(2**63), -77)


def _keys(n, seed=0):
    """``n`` keys: the edge keys first, then frame-id-shaped ones."""
    rng = random.Random(seed)
    keys = list(EDGE_KEYS[:n])
    keys += [rng.getrandbits(32) for _ in range(n - len(keys))]
    return keys


@pytest.fixture(params=["lanes", "key-by-key"])
def path(request, monkeypatch):
    """``units`` forced through one of its two paths, whatever the
    batch size."""
    monkeypatch.setattr(hashjit, "LANE_MIN",
                        0 if request.param == "lanes" else 10**9)
    return request.param


def _check_units(n):
    keys = _keys(n)
    for jitter in JITTERS:
        expected = [jitter.unit(k, s) for k in keys for s in SITES]
        assert jitter.units(keys, SITES) == expected
        if n <= 8:
            for site in SITES:
                assert jitter.units(keys, (site,)) == [
                    jitter.unit(k, site) for k in keys]


class TestLaneDraws:
    @pytest.mark.parametrize("n", SIZES)
    def test_units_equal_unit(self, n):
        _check_units(n)

    @pytest.mark.parametrize("n", [n for n in SIZES if n <= 8])
    def test_each_path_equals_unit(self, n, path):
        """Small batches through the lane kernel too, and through the
        key-by-key path."""
        _check_units(n)

    @pytest.mark.parametrize("tag", (0, 5, 63))
    def test_shifted_keys(self, tag, path):
        keys = _keys(64, seed=tag)
        for jitter in JITTERS:
            sites = (HashJitter.SITE_FIXED_WAIT, HashJitter.SITE_SCHED_WAIT)
            assert jitter.units(keys, sites, 6, tag) == [
                jitter.unit((k << 6) | tag, s) for k in keys for s in sites]

    def test_site_unit_equals_unit(self):
        keys = _keys(64)
        for jitter in JITTERS:
            for site in SITES:
                for tag in (0, 63):
                    draw = jitter.site_unit(site, 6, tag)
                    assert [draw(k) for k in keys] == [
                        jitter.unit((k << 6) | tag, site) for k in keys]
                draw = jitter.site_unit(site)
                assert [draw(k) for k in keys] == [
                    jitter.unit(k, site) for k in keys]

    def test_tag_must_fit_its_shift(self):
        jitter = JITTERS[0]
        with pytest.raises(ValueError):
            jitter.site_unit(HashJitter.SITE_FIXED_WAIT, 6, 64)
        with pytest.raises(ValueError):
            jitter.units([1, 2], (HashJitter.SITE_FIXED_WAIT,), 0, 1)


def _kernel(fixed=True):
    costs = kernel_pass_costs()
    if not fixed:
        costs = replace(costs, fixed_latency=0.0)
    return DatapathModel(DatapathMode.KERNEL, costs)


def _dpdk(hint=None):
    model = DatapathModel(DatapathMode.DPDK, dpdk_pass_costs())
    model.offered_rate_hint_pps = hint
    return model


class TestBatchTimingEqualsPerMember:
    """``timing_batch`` waits equal per-member ``timing`` waits."""

    @pytest.mark.parametrize("model, sharers, num_queues", [
        (_kernel(), 1, 1),            # interrupt wait alone
        (_kernel(), 4, 1),            # plus the shared-core wait
        (_kernel(fixed=False), 3, 1),
        (_dpdk(10_000), 1, 2),        # the drain anomaly
        (_dpdk(10_000), 3, 2),        # anomaly and sharers
        (_dpdk(), 3, 1),              # drain and sharers
    ], ids=["kernel", "kernel-sharers", "kernel-sched-only",
            "dpdk-anomaly", "dpdk-anomaly-sharers", "dpdk-sharers"])
    @pytest.mark.parametrize("n", (1, 3, 4, 8, 1024))
    def test_waits_equal(self, model, sharers, num_queues, n):
        ids = [abs(k) for k in _keys(n, seed=n)]
        jitter = JITTERS[2]
        for port in (1, 63):
            svc, waits = model.timing_batch(
                2100, 2.1e9, sharers, num_queues, jitter, ids, port)
            each = [model.timing(2100, 2.1e9, sharers, num_queues,
                                 jitter, key=(k << 6) | port)
                    for k in ids]
            assert waits == [t.wait for t in each]
            assert svc == [t.service for t in each]

"""Max-min fair capacity solver: exact cases + invariants via hypothesis."""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.perfmodel import FlowPath, Resource, solve


def flow(name, demands, offered=math.inf):
    path = FlowPath(name=name, offered_pps=offered)
    for resource, units in demands:
        path.add(resource, units)
    return path


class TestExactCases:
    def test_single_flow_single_resource(self):
        r = Resource("cpu", 1000.0)
        result = solve([flow("f", [(r, 10.0)])])
        assert result.rates_pps["f"] == pytest.approx(100.0)
        assert result.bottleneck_of["f"] == "cpu"

    def test_symmetric_flows_share_equally(self):
        r = Resource("cpu", 1000.0)
        paths = [flow(f"f{i}", [(r, 10.0)]) for i in range(4)]
        result = solve(paths)
        for i in range(4):
            assert result.rates_pps[f"f{i}"] == pytest.approx(25.0)

    def test_min_over_resources(self):
        cpu = Resource("cpu", 1000.0)
        link = Resource("link", 50.0)
        result = solve([flow("f", [(cpu, 1.0), (link, 1.0)])])
        assert result.rates_pps["f"] == pytest.approx(50.0)
        assert result.bottleneck_of["f"] == "link"

    def test_offered_load_caps_rate(self):
        r = Resource("cpu", 1000.0)
        result = solve([flow("f", [(r, 1.0)], offered=10.0)])
        assert result.rates_pps["f"] == pytest.approx(10.0)
        assert result.bottleneck_of["f"] == "offered-load"

    def test_max_min_fairness_classic(self):
        """Two flows through a shared link; one also through a slow
        private link: the constrained flow frees capacity for the other."""
        shared = Resource("shared", 10.0)
        private = Resource("private", 2.0)
        result = solve([
            flow("constrained", [(shared, 1.0), (private, 1.0)]),
            flow("free", [(shared, 1.0)]),
        ])
        assert result.rates_pps["constrained"] == pytest.approx(2.0)
        assert result.rates_pps["free"] == pytest.approx(8.0)

    def test_disjoint_flows_independent(self):
        a, b = Resource("a", 100.0), Resource("b", 30.0)
        result = solve([flow("fa", [(a, 1.0)]), flow("fb", [(b, 1.0)])])
        assert result.rates_pps["fa"] == pytest.approx(100.0)
        assert result.rates_pps["fb"] == pytest.approx(30.0)

    def test_unconstrained_flow(self):
        result = solve([flow("f", [], offered=math.inf)])
        assert result.bottleneck_of["f"] == "unconstrained"

    def test_utilization_reported(self):
        r = Resource("cpu", 100.0)
        result = solve([flow("f", [(r, 1.0)])])
        assert result.utilization["cpu"] == pytest.approx(1.0)

    def test_aggregate(self):
        r = Resource("cpu", 100.0)
        result = solve([flow("a", [(r, 1.0)]), flow("b", [(r, 1.0)])])
        assert result.aggregate_pps == pytest.approx(100.0)

    def test_duplicate_flow_names_rejected(self):
        r = Resource("cpu", 100.0)
        with pytest.raises(ValueError):
            solve([flow("f", [(r, 1.0)]), flow("f", [(r, 1.0)])])

    def test_duplicate_resource_names_rejected(self):
        a = Resource("cpu", 100.0)
        b = Resource("cpu", 200.0)
        with pytest.raises(ValueError):
            solve([flow("f", [(a, 1.0)]), flow("g", [(b, 1.0)])])

    def test_empty_input(self):
        assert solve([]).rates_pps == {}

    def test_invalid_resource(self):
        with pytest.raises(ValueError):
            Resource("bad", 0.0)

    def test_negative_demand_rejected(self):
        r = Resource("cpu", 10.0)
        with pytest.raises(ValueError):
            from repro.perfmodel import ResourceDemand
            ResourceDemand(r, -1.0)


@st.composite
def _problem(draw):
    num_resources = draw(st.integers(min_value=1, max_value=4))
    resources = [
        Resource(f"r{i}", draw(st.floats(min_value=1.0, max_value=1e4)))
        for i in range(num_resources)
    ]
    num_flows = draw(st.integers(min_value=1, max_value=5))
    paths = []
    for i in range(num_flows):
        demands = []
        for resource in resources:
            units = draw(st.floats(min_value=0.0, max_value=10.0))
            if units > 0:
                demands.append((resource, units))
        offered = draw(st.one_of(
            st.just(math.inf), st.floats(min_value=0.1, max_value=1e4)))
        paths.append(flow(f"f{i}", demands, offered))
    return resources, paths


class TestInvariants:
    @settings(max_examples=150, deadline=None)
    @given(_problem())
    def test_no_resource_oversubscribed(self, problem):
        resources, paths = problem
        result = solve(paths)
        for resource in resources:
            used = sum(p.demand_on(resource) * result.rates_pps[p.name]
                       for p in paths)
            assert used <= resource.capacity * (1 + 1e-6)

    @settings(max_examples=150, deadline=None)
    @given(_problem())
    def test_rates_nonnegative_and_within_offered(self, problem):
        _, paths = problem
        result = solve(paths)
        for p in paths:
            rate = result.rates_pps[p.name]
            assert rate >= 0
            assert rate <= p.offered_pps * (1 + 1e-9)

    @settings(max_examples=150, deadline=None)
    @given(_problem())
    def test_every_flow_is_blocked_by_something(self, problem):
        """Max-min optimality: no flow can be raised unilaterally --
        each is frozen at its offered load or at a saturated resource."""
        resources, paths = problem
        result = solve(paths)
        for p in paths:
            rate = result.rates_pps[p.name]
            if rate >= p.offered_pps * (1 - 1e-9):
                continue
            if result.bottleneck_of.get(p.name) == "unconstrained":
                continue  # no demands, no cap: nothing can block it
            saturated = False
            for resource in resources:
                if p.demand_on(resource) <= 0:
                    continue
                used = sum(q.demand_on(resource) * result.rates_pps[q.name]
                           for q in paths)
                if used >= resource.capacity * (1 - 1e-6):
                    saturated = True
                    break
            assert saturated, f"{p.name} not blocked by anything"

    @settings(max_examples=100, deadline=None)
    @given(_problem())
    def test_deterministic(self, problem):
        _, paths = problem
        a = solve(paths).rates_pps
        b = solve(paths).rates_pps
        assert a == b


class TestWeightedFairness:
    def test_weights_split_a_resource_proportionally(self):
        r = Resource("cpu", 1000.0)
        heavy = flow("heavy", [(r, 1.0)])
        heavy.weight = 3.0
        light = flow("light", [(r, 1.0)])
        result = solve([heavy, light])
        assert result.rates_pps["heavy"] == pytest.approx(750.0)
        assert result.rates_pps["light"] == pytest.approx(250.0)

    def test_inverse_cost_weights_equalize_resource_shares(self):
        """The cycle-fairness pattern the mixed-workload solver uses."""
        r = Resource("cpu", 1200.0)
        cheap = flow("cheap", [(r, 2.0)])
        cheap.weight = 1.0 / 2.0
        costly = flow("costly", [(r, 10.0)])
        costly.weight = 1.0 / 10.0
        result = solve([cheap, costly])
        assert (result.rates_pps["cheap"] * 2.0
                == pytest.approx(result.rates_pps["costly"] * 10.0))
        assert result.utilization["cpu"] == pytest.approx(1.0)

    def test_offered_cap_still_respected_with_weights(self):
        r = Resource("cpu", 1000.0)
        capped = flow("capped", [(r, 1.0)], offered=10.0)
        capped.weight = 5.0
        free = flow("free", [(r, 1.0)])
        result = solve([capped, free])
        assert result.rates_pps["capped"] == pytest.approx(10.0)
        assert result.rates_pps["free"] == pytest.approx(990.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            FlowPath(name="bad", weight=0.0)

    @settings(max_examples=100, deadline=None)
    @given(_problem(), st.lists(st.floats(min_value=0.1, max_value=10.0),
                                min_size=5, max_size=5))
    def test_no_oversubscription_with_weights(self, problem, weights):
        resources, paths = problem
        for path, weight in zip(paths, weights):
            path.weight = weight
        result = solve(paths)
        for resource in resources:
            used = sum(p.demand_on(resource) * result.rates_pps[p.name]
                       for p in paths)
            assert used <= resource.capacity * (1 + 1e-6)


class TestOfferedLoadTolerance:
    def test_large_offered_load_reached_an_ulp_short(self):
        # The weighted flow reaches its 7.889e9 pps offered load an ulp
        # short.  It must still freeze there as offered-load, leaving
        # the rest of the pool to the uncapped flow, instead of freezing
        # every active flow far below its fair share.
        r = Resource("pool", 1e13)
        capped = flow("capped", [(r, 1.4)], offered=7.889e9)
        capped.weight = 6.6
        uncapped = flow("uncapped", [(r, 1.0)])
        result = solve([capped, uncapped])
        assert result.bottleneck_of == {"capped": "offered-load",
                                        "uncapped": "pool"}
        assert result.rates_pps["capped"] == pytest.approx(7.889e9)
        assert result.rates_pps["uncapped"] == pytest.approx(
            1e13 - 1.4 * 7.889e9)  # 9.989e12 pps
        assert result.utilization["pool"] == pytest.approx(1.0)


class TestOverflow:
    @pytest.mark.parametrize("weight", [4.635794560490001, 1.0, 0.1])
    def test_subnormal_demand_gets_the_largest_finite_rate(self, weight):
        # capacity / demand overflows a float: the rate is clamped to
        # the largest finite one, which keeps the pool within capacity.
        # At weight 0.1 the fill level overflows too (the exact rate,
        # 4.49e308, exceeds any float).
        r = Resource("pool", 1.0)
        path = flow("f", [(r, 2.225e-309)])
        path.weight = weight
        result = solve([path])
        rate = result.rates_pps["f"]
        assert rate == sys.float_info.max
        assert result.bottleneck_of["f"] == "unconstrained"
        assert 2.225e-309 * rate <= r.capacity

    def test_light_flow_rises_past_a_clamped_heavy_one(self):
        # The weight-1 flow reaches the largest finite rate first, using
        # 0.4 of the pool; the weight-0.1 flow then has the rest, and
        # its exact rate exceeds any float too.
        r = Resource("pool", 1.0)
        light = flow("light", [(r, 2.225e-309)])
        light.weight = 0.1
        heavy = flow("heavy", [(r, 2.225e-309)])
        result = solve([light, heavy])
        for name in ("light", "heavy"):
            assert result.rates_pps[name] == sys.float_info.max
            assert result.bottleneck_of[name] == "unconstrained"
        used = sum(2.225e-309 * rate for rate in result.rates_pps.values())
        assert used <= r.capacity

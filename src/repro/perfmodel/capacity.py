"""Max-min fair bottleneck capacity solver.

Throughput in every paper experiment is determined by which shared
resource saturates first: a compartment's CPU cycles, the NIC's VF-to-VF
hairpin bandwidth, the 10G links, or the PCIe bus.  We model each tenant
flow as a :class:`FlowPath` -- a bag of per-packet demands against named
:class:`Resource` pools -- and compute the max-min fair allocation by
progressive filling (water-filling):

1. all unfrozen flows' rates rise together;
2. the first resource to saturate freezes every flow that uses it;
3. repeat until all flows are frozen or reach their offered load.

For the paper's symmetric scenarios (4 identical tenant flows) this
reduces to ``rate = min_r capacity_r / sum_f demand_{f,r}``, but the
general algorithm also handles asymmetric Level-2 splits (e.g. 3+1
tenants across two vswitch VMs) and flows capped at their offered rate.

Fabric scale rides on two additions:

- the fill loop keeps *incremental* per-resource demand sums (updated
  when flows freeze) instead of rescanning every active flow per
  resource per round, so thousands of background-tenant flows over
  hundreds of fabric-link pools solve in linear-ish time;
- :class:`SolveResult` records every pool's capacity, so callers can
  ask for **residual capacity** -- what is left of a link or a
  compartment's cycles after background load -- and
  :func:`residual_resources` / :func:`solve_with_background` turn a
  background traffic matrix into the capacity pools a foreground DES
  (the hybrid simulation's flows under study) should run against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: The largest finite float.  Every rate is capped at it, as if by an
#: offered load: a flow whose exact max-min rate exceeds it (a subnormal
#: per-packet demand on a finite pool) freezes there as
#: "unconstrained", which only lowers what it uses of every pool.
_MAX_RATE = sys.float_info.max


@dataclass(frozen=True)
class Resource:
    """A shared capacity pool (units/second)."""

    name: str
    capacity: float

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"resource {self.name!r} needs positive capacity")


@dataclass(frozen=True)
class ResourceDemand:
    """How many units of a resource one packet of a flow consumes."""

    resource: Resource
    units_per_packet: float

    def __post_init__(self) -> None:
        if self.units_per_packet < 0:
            raise ValueError(
                f"negative demand on {self.resource.name!r}: {self.units_per_packet}"
            )


@dataclass
class FlowPath:
    """One flow's end-to-end resource footprint.

    ``weight`` sets the fairness unit: progressive filling equalizes
    ``rate / weight`` across flows, so with ``weight=1`` (the default)
    packet/transaction rates are equalized, while setting ``weight`` to
    a flow's per-unit cycle cost equalizes *cycle shares* -- the right
    semantics for heterogeneous workloads sharing a round-robin-served
    core.
    """

    name: str
    demands: List[ResourceDemand] = field(default_factory=list)
    offered_pps: float = math.inf
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"flow {self.name}: weight must be positive")

    def demand_on(self, resource: Resource) -> float:
        return sum(d.units_per_packet for d in self.demands
                   if d.resource == resource)

    def add(self, resource: Resource, units_per_packet: float) -> "FlowPath":
        if units_per_packet > 0:
            self.demands.append(ResourceDemand(resource, units_per_packet))
        return self


@dataclass
class SolveResult:
    """Max-min fair rates plus diagnostics."""

    rates_pps: Dict[str, float]
    bottleneck_of: Dict[str, str]
    utilization: Dict[str, float]
    #: Resource name -> configured capacity (absent for pre-existing
    #: serialized results; populated by every fresh solve).
    capacity_of: Dict[str, float] = field(default_factory=dict)

    @property
    def aggregate_pps(self) -> float:
        return sum(self.rates_pps.values())

    # -- residual-capacity queries (the hybrid DES/fluid split) ----------

    def used_of(self, resource_name: str) -> float:
        """Units/second the solved rates consume on one pool."""
        capacity = self.capacity_of[resource_name]
        return self.utilization.get(resource_name, 0.0) * capacity

    def residual_of(self, resource_name: str) -> float:
        """Capacity left on one pool after the solved flows."""
        return self.capacity_of[resource_name] - self.used_of(resource_name)

    def residuals(self) -> Dict[str, float]:
        """Residual capacity of every pool the solve touched."""
        return {name: self.residual_of(name) for name in self.capacity_of}

    def residual_fraction(self, resource_name: str) -> float:
        """Residual as a fraction of configured capacity (1.0 = idle)."""
        capacity = self.capacity_of[resource_name]
        if capacity <= 0:
            return 0.0
        return max(0.0, 1.0 - self.utilization.get(resource_name, 0.0))


def solve(paths: Sequence[FlowPath]) -> SolveResult:
    """Progressive-filling max-min fair allocation.

    Flows with zero demand everywhere are capped at their offered rate.
    """
    if not paths:
        return SolveResult({}, {}, {})
    names = [p.name for p in paths]
    if len(set(names)) != len(names):
        raise ValueError("flow names must be unique")

    resources: List[Resource] = []
    seen = set()
    for path in paths:
        for demand in path.demands:
            if demand.resource.name in seen:
                if demand.resource not in resources:
                    raise ValueError(
                        f"two distinct resources named {demand.resource.name!r}"
                    )
                continue
            seen.add(demand.resource.name)
            resources.append(demand.resource)

    # Per-flow demand totals and the incrementally maintained per-pool
    # demand sums: a resource rescans nothing per round, it just loses a
    # flow's contribution when that flow freezes.  At fabric scale (a
    # thousand background flows over hundreds of link pools) this is the
    # difference between linear-ish and quadratic-ish fill loops.
    demand_of: Dict[str, Dict[str, float]] = {}
    for path in paths:
        totals: Dict[str, float] = {}
        for demand in path.demands:
            totals[demand.resource.name] = (
                totals.get(demand.resource.name, 0.0)
                + demand.units_per_packet)
        demand_of[path.name] = totals
    users_of: Dict[str, set] = {r.name: set() for r in resources}
    demand_sum: Dict[str, float] = {r.name: 0.0 for r in resources}
    for path in paths:
        for rname, units in demand_of[path.name].items():
            if units > 0:
                users_of[rname].add(path.name)
                demand_sum[rname] += path.weight * units

    initial_sum = dict(demand_sum)
    rates: Dict[str, float] = {p.name: 0.0 for p in paths}
    frozen: Dict[str, str] = {}
    active = {p.name: p for p in paths}
    remaining = {r.name: r.capacity for r in resources}
    unsaturated = [r.name for r in resources]
    # Every active flow has risen with the common level from zero, so
    # the heaviest active flow is the fastest.
    by_weight = sorted(paths, key=lambda p: -p.weight)
    heaviest = 0

    while active:
        # How far can the common fill *level* rise (each flow's rate is
        # weight x level) before something saturates or a flow hits its
        # offered load?  A subnormal demand sum can overflow a quotient.
        best_increment = math.inf
        limiting: Optional[str] = None
        for rname in unsaturated:
            if demand_sum[rname] <= 0:
                continue
            increment = remaining[rname] / demand_sum[rname]
            if increment < best_increment:
                best_increment = increment
                limiting = rname
        for path in active.values():
            headroom = (path.offered_pps - rates[path.name]) / path.weight
            if headroom < best_increment:
                best_increment = headroom
                limiting = None  # an offered-load cap, not a resource

        if (math.isinf(best_increment)
                and not any(users_of[r] for r in unsaturated)
                and all(math.isinf(p.offered_pps) for p in active.values())):
            # No active flow touches any finite resource or cap.
            for name in active:
                frozen[name] = "unconstrained"
            break

        # The round counts the fill in the rate of a flow of weight
        # ``scale``: 1 (the level itself) unless the level would carry
        # the fastest flow past the float range.
        while by_weight[heaviest].name not in active:
            heaviest += 1
        top = by_weight[heaviest]
        scale = 1.0
        capped: Dict[str, float] = {}
        if rates[top.name] + top.weight * best_increment >= _MAX_RATE:
            scale = top.weight
            best_increment, limiting, capped = _capped_round(
                active, rates, unsaturated, demand_sum, remaining, scale)

        # Apply the increment.
        newly_frozen = []
        for name, path in active.items():
            rates[name] += path.weight / scale * best_increment
        for name, cap in capped.items():
            rates[name] = cap
            if cap == _MAX_RATE:
                newly_frozen.append((name, "unconstrained"))
        for rname in unsaturated:
            remaining[rname] -= demand_sum[rname] / scale * best_increment
            if remaining[rname] < 0 and remaining[rname] > -1e-6:
                remaining[rname] = 0.0

        # Freeze flows at saturated resources / offered caps.
        if limiting is not None:
            for name in users_of[limiting]:
                if name in active:
                    newly_frozen.append((name, limiting))
        for name, path in active.items():
            # Relative: a flow can land an ulp short of a large offered
            # load (an uncapped flow's is inf, which nothing reaches).
            offered = path.offered_pps
            if (offered < math.inf
                    and rates[name] >= offered - max(1e-9, 1e-12 * offered)):
                newly_frozen.append((name, "offered-load"))
        # Saturation of *any* zero-remaining resource also freezes users.
        still_open = []
        for rname in unsaturated:
            if remaining[rname] <= 1e-9 and demand_sum[rname] > 0:
                for name in users_of[rname]:
                    if name in active:
                        newly_frozen.append((name, rname))
            else:
                still_open.append(rname)
        unsaturated = still_open
        if not newly_frozen:
            # Numerical corner: freeze everything at the limiting cap.
            for name in list(active):
                newly_frozen.append((name, limiting or "offered-load"))
        for name, why in newly_frozen:
            if name in active:
                frozen[name] = why
                path = active.pop(name)
                for rname, units in demand_of[name].items():
                    demand_sum[rname] -= path.weight * units
                    users_of[rname].discard(name)
                    # Exact zero once the pool's last user freezes:
                    # subtraction residue would otherwise read as a
                    # near-infinite fill increment next round.
                    if not users_of[rname]:
                        demand_sum[rname] = 0.0
                    elif demand_sum[rname] < 1e-9 * initial_sum[rname]:
                        # Catastrophic cancellation: the running
                        # difference is float residue, not the surviving
                        # users' true demand (which may be far smaller).
                        # Re-sum exactly over the remaining users.
                        demand_sum[rname] = sum(
                            active[u].weight * demand_of[u][rname]
                            for u in users_of[rname])

    utilization = {}
    capacity_of = {}
    used_on: Dict[str, float] = {r.name: 0.0 for r in resources}
    for path in paths:
        for rname, units in demand_of[path.name].items():
            used_on[rname] += units * rates[path.name]
    for resource in resources:
        utilization[resource.name] = min(
            1.0, used_on[resource.name] / resource.capacity)
        capacity_of[resource.name] = resource.capacity
    return SolveResult(rates_pps=rates, bottleneck_of=frozen,
                       utilization=utilization, capacity_of=capacity_of)


def _capped_round(active, rates, unsaturated, demand_sum, remaining,
                  scale):
    """A fill round whose level overflows: how far the rate of a flow
    of weight ``scale`` (the heaviest active one) can rise, with every
    rate capped at ``min(offered, _MAX_RATE)``.  That flow's own cap
    keeps the step finite.  Returns the step, the limiting pool (None
    for a cap) and the flows that reach their cap, with the cap."""
    step, limiting = math.inf, None
    for rname in unsaturated:
        per_step = demand_sum[rname] / scale
        if per_step > 0 and remaining[rname] / per_step < step:
            step, limiting = remaining[rname] / per_step, rname
    headroom = {}
    for name, path in active.items():
        cap = min(path.offered_pps, _MAX_RATE)
        increment = (cap - rates[name]) * (scale / path.weight)
        headroom[name] = cap, increment
        if increment < step:
            step, limiting = increment, None
    capped = {name: cap for name, (cap, increment) in headroom.items()
              if increment <= step}
    return step, limiting, capped


#: Residual pools never drop below this fraction of their configured
#: capacity: a fully saturated background still leaves the foreground a
#: sliver (the DES needs positive link bandwidths / CPU shares, and a
#: real scheduler never hands one class literally everything).
RESIDUAL_FLOOR_FRACTION = 0.01


def residual_resources(
    background: Sequence[FlowPath],
    floor_fraction: float = RESIDUAL_FLOOR_FRACTION,
) -> Dict[str, Resource]:
    """Solve the background and return each pool at its *residual* size.

    This is the fluid half of the hybrid simulation: every background
    tenant's traffic enters as a :class:`FlowPath`, the solver fills the
    shared pools, and the returned :class:`Resource` objects -- same
    names, reduced capacities -- are what the foreground (per-packet
    DES) flows under study should be capacity-limited by.
    """
    if not 0 < floor_fraction <= 1:
        raise ValueError("floor_fraction must be in (0, 1]")
    result = solve(background)
    residual: Dict[str, Resource] = {}
    for name, capacity in result.capacity_of.items():
        left = max(result.residual_of(name), floor_fraction * capacity)
        residual[name] = Resource(name, left)
    return residual


def solve_with_background(
    foreground: Sequence[FlowPath],
    background: Sequence[FlowPath],
) -> SolveResult:
    """Max-min rates of the *foreground* flows with the background
    present: one joint progressive fill (the correct max-min semantics
    -- background flows freeze at their offered caps like any other),
    with the result filtered down to the foreground flows.  Utilization
    and capacities keep the full picture so bottleneck/residual queries
    still see the background's share.
    """
    fg_names = {p.name for p in foreground}
    overlap = fg_names & {p.name for p in background}
    if overlap:
        raise ValueError(
            f"flows in both foreground and background: {sorted(overlap)}")
    joint = solve(list(foreground) + list(background))
    return SolveResult(
        rates_pps={n: r for n, r in joint.rates_pps.items()
                   if n in fg_names},
        bottleneck_of={n: b for n, b in joint.bottleneck_of.items()
                       if n in fg_names},
        utilization=joint.utilization,
        capacity_of=joint.capacity_of,
    )

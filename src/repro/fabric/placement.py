"""Secure tenant placement: embedding tenants onto servers/compartments.

Which server hosts which tenant's VMs -- and which vswitch compartment
mediates them -- is a virtual-network-embedding problem (*Secure
Multi-Cloud Virtual Network Embedding*): tenants bring demands and
security requirements, the substrate brings servers with limited VFs,
compartments with limited capacity, and a fabric where distance costs
bandwidth.  This module models the request side
(:class:`TenantReq`), the constraint checking, and three placement
policies:

``striping``
    the locality-blind baseline: contiguous id blocks per server (what
    ``MultiServerCloud`` does absent a placement).
``greedy``
    heaviest-demand-first; each tenant lands on the feasible slot with
    the lowest incremental hop cost to its already-placed peers, ties
    broken towards compartments already open for its group, then the
    least-loaded server.  A reservation guard refuses to open surplus
    compartments while groups with unplaced tenants still need them,
    so the policy stays feasible even at near-full fleet occupancy.
``local``
    greedy plus a bounded local-search pass: tenants are re-offered
    every feasible slot and move when their own edge cost strictly
    improves.

Security constraints enforced on every policy's output:

- a compartment is shared only within one tenant *group* (the paper's
  "based on security zones"): the vswitch VM is the isolation
  boundary, so mutually-untrusting tenants never share one;
- ``isolation >= 2`` tenants get a dedicated compartment,
  ``isolation >= 3`` additionally a server free of other groups (the
  Level-3/DPDK "premium" shape);
- anti-affinity: a tenant whose group *distrusts* another group never
  shares a server with it (side-channel surface), in either direction;
- capacity: per-compartment tenant caps and the NIC's 64-VF ceiling
  (2 VFs per tenant + 1 In/Out VF per compartment per server).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.fabric.topology import FabricTopology

#: The NIC exposes this many VFs per physical port (paper section 6).
NIC_VF_CEILING = 64

#: Per-frame physical-layer overhead (matches Link.serialization_time).
_WIRE_OVERHEAD_BYTES = 20


class PlacementError(ValidationError):
    """A placement request cannot be satisfied (or a placement is invalid)."""


@dataclass(frozen=True)
class TenantReq:
    """One tenant's embedding request."""

    tenant_id: int
    demand_pps: float = 0.0
    frame_bytes: int = 64
    #: Security zone: tenants of one group may share a compartment.
    group: int = 0
    #: 1 = shared compartment within the group, 2 = dedicated
    #: compartment, 3 = dedicated compartment on a group-pure server.
    isolation: int = 1
    #: Groups this tenant's group refuses to co-reside with (a server
    #: is a shared NIC and shared cores: the anti-affinity boundary).
    distrusts: Tuple[int, ...] = ()
    #: Tenants this one sends to (``demand_pps`` split evenly across
    #: them); drives the hop-cost objective and the fluid model.
    peers: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.demand_pps < 0:
            raise ValueError("demand_pps must be >= 0")
        if self.isolation not in (1, 2, 3):
            raise ValueError(f"isolation {self.isolation} not in 1..3")
        if self.tenant_id in self.peers:
            raise ValueError(f"tenant {self.tenant_id} peering with itself")

    def demand_to(self, peer: int) -> float:
        if peer not in self.peers or not self.peers:
            return 0.0
        return self.demand_pps / len(self.peers)


@dataclass
class Placement:
    """``tenant -> (server, compartment)``, plus provenance."""

    assignment: Dict[int, Tuple[int, int]]
    policy: str = "explicit"

    def server_of(self, tenant: int) -> int:
        return self.assignment[tenant][0]

    def compartment_of(self, tenant: int) -> int:
        return self.assignment[tenant][1]

    def servers_used(self) -> List[int]:
        return sorted({s for s, _k in self.assignment.values()})


def server_tenant_capacity(compartments_per_server: int) -> int:
    """Max tenants a server hosts under the VF ceiling: each tenant
    burns a tenant VF + a gateway VF, each compartment an In/Out VF."""
    return (NIC_VF_CEILING - compartments_per_server) // 2


class _Slots:
    """Mutable feasibility state shared by the constructive policies."""

    def __init__(self, reqs: Sequence[TenantReq], topology: FabricTopology,
                 compartments_per_server: int,
                 tenants_per_compartment: int) -> None:
        if compartments_per_server < 1:
            raise PlacementError("need at least one compartment per server")
        if tenants_per_compartment < 1:
            raise PlacementError("compartments hold at least one tenant")
        self.topology = topology
        self.K = compartments_per_server
        self.cap = tenants_per_compartment
        self.server_cap = server_tenant_capacity(compartments_per_server)
        self.req_of = {r.tenant_id: r for r in reqs}
        if len(self.req_of) != len(reqs):
            raise PlacementError("duplicate tenant ids in requests")
        # reverse peer index: who sends *to* each tenant (keeps the
        # incremental edge-cost evaluation O(degree), not O(tenants))
        self.rev_peers: Dict[int, List[int]] = {}
        for r in reqs:
            for peer in r.peers:
                self.rev_peers.setdefault(peer, []).append(r.tenant_id)
        # symmetric distrust closure over groups
        self.distrust: Dict[int, set] = {}
        for r in reqs:
            for g in r.distrusts:
                self.distrust.setdefault(r.group, set()).add(g)
                self.distrust.setdefault(g, set()).add(r.group)
        self.members: Dict[Tuple[int, int], List[int]] = {}
        self.comp_group: Dict[Tuple[int, int], int] = {}
        self.comp_dedicated: Dict[Tuple[int, int], bool] = {}
        self.server_count: Dict[int, int] = {}
        self.server_groups: Dict[int, set] = {}
        self.server_solo_groups: Dict[int, set] = {}  # isolation-3 owners
        self.server_load: Dict[int, float] = {}

    def feasible(self, req: TenantReq, server: int, k: int) -> bool:
        if not 0 <= server < self.topology.num_servers:
            return False
        if not 0 <= k < self.K:
            return False
        if self.server_count.get(server, 0) + 1 > self.server_cap:
            return False
        slot = (server, k)
        occupants = self.members.get(slot, [])
        if len(occupants) + 1 > self.cap:
            return False
        if occupants:
            if req.isolation >= 2 or self.comp_dedicated.get(slot, False):
                return False
            if self.comp_group[slot] != req.group:
                return False
        groups_here = self.server_groups.get(server, set())
        if self.distrust.get(req.group) and \
                groups_here & self.distrust[req.group]:
            return False
        solo = self.server_solo_groups.get(server, set())
        if solo and solo != {req.group}:
            return False
        if req.isolation >= 3 and groups_here - {req.group}:
            return False
        return True

    def add(self, req: TenantReq, server: int, k: int) -> None:
        slot = (server, k)
        self.members.setdefault(slot, []).append(req.tenant_id)
        self.comp_group[slot] = req.group
        if req.isolation >= 2:
            self.comp_dedicated[slot] = True
        self.server_count[server] = self.server_count.get(server, 0) + 1
        self.server_groups.setdefault(server, set()).add(req.group)
        if req.isolation >= 3:
            self.server_solo_groups.setdefault(server, set()).add(req.group)
        self.server_load[server] = (self.server_load.get(server, 0.0)
                                    + req.demand_pps)

    def remove(self, req: TenantReq, server: int, k: int) -> None:
        slot = (server, k)
        self.members[slot].remove(req.tenant_id)
        if not self.members[slot]:
            del self.members[slot]
            self.comp_group.pop(slot, None)
            self.comp_dedicated.pop(slot, None)
        self.server_count[server] -= 1
        remaining_groups = {self.req_of[t].group
                            for members in self.members.items()
                            if members[0][0] == server
                            for t in members[1]}
        self.server_groups[server] = remaining_groups
        solo = {self.req_of[t].group
                for members in self.members.items()
                if members[0][0] == server
                for t in members[1]
                if self.req_of[t].isolation >= 3}
        if solo:
            self.server_solo_groups[server] = solo
        else:
            self.server_solo_groups.pop(server, None)
        self.server_load[server] -= req.demand_pps


# -- objective ----------------------------------------------------------


def pair_hops(topology: FabricTopology, placement: Placement,
              src: int, dst: int) -> int:
    """Fabric hops between two placed tenants, counting the NIC-level
    hairpin a same-server cross-compartment frame pays as one hop."""
    s1, k1 = placement.assignment[src]
    s2, k2 = placement.assignment[dst]
    h = topology.hops(s1, s2)
    if h == 0 and k1 != k2:
        return 1
    return h


@dataclass(frozen=True)
class PlacementCost:
    """Objective terms: demand-weighted fabric hops, traffic leaving
    servers, and the hottest fabric link."""

    hop_cost: float
    inter_server_pps: float
    max_link_utilization: float

    @property
    def total(self) -> float:
        # The utilization term breaks hop-cost ties towards placements
        # that do not concentrate the surviving inter-server demand.
        return self.hop_cost * (1.0 + self.max_link_utilization)


def link_loads(reqs: Sequence[TenantReq], placement: Placement,
               topology: FabricTopology) -> Dict[str, float]:
    """Offered bits/s on every fabric link under the placement."""
    loads: Dict[str, float] = {}
    for req in reqs:
        bits = (req.frame_bytes + _WIRE_OVERHEAD_BYTES) * 8.0
        for peer in req.peers:
            if peer not in placement.assignment:
                continue
            pps = req.demand_to(peer)
            s1, _ = placement.assignment[req.tenant_id]
            s2, _ = placement.assignment[peer]
            for name in topology.path_links(s1, s2):
                loads[name] = loads.get(name, 0.0) + pps * bits
    return loads


def placement_cost(reqs: Sequence[TenantReq], placement: Placement,
                   topology: FabricTopology) -> PlacementCost:
    hop_cost = 0.0
    inter_server = 0.0
    for req in reqs:
        for peer in req.peers:
            if peer not in placement.assignment:
                continue
            pps = req.demand_to(peer)
            hop_cost += pps * pair_hops(topology, placement,
                                        req.tenant_id, peer)
            if placement.server_of(req.tenant_id) != placement.server_of(peer):
                inter_server += pps
    max_util = 0.0
    pools = topology.link_resources()
    for name, load in link_loads(reqs, placement, topology).items():
        max_util = max(max_util, load / pools[name].capacity)
    return PlacementCost(hop_cost=hop_cost, inter_server_pps=inter_server,
                         max_link_utilization=max_util)


# -- validation ----------------------------------------------------------


def validate_placement(reqs: Sequence[TenantReq], placement: Placement,
                       topology: FabricTopology,
                       compartments_per_server: int,
                       tenants_per_compartment: int) -> None:
    """Raise :class:`PlacementError` unless every constraint holds."""
    slots = _Slots(reqs, topology, compartments_per_server,
                   tenants_per_compartment)
    missing = set(slots.req_of) - set(placement.assignment)
    if missing:
        raise PlacementError(f"unplaced tenants: {sorted(missing)}")
    for req in sorted(reqs, key=lambda r: r.tenant_id):
        server, k = placement.assignment[req.tenant_id]
        if not slots.feasible(req, server, k):
            raise PlacementError(
                f"tenant {req.tenant_id} cannot sit at server {server} "
                f"compartment {k} (capacity or security constraint)")
        slots.add(req, server, k)


# -- policies ------------------------------------------------------------


def _first_feasible(slots: _Slots, req: TenantReq,
                    server_order: Iterable[int]) -> Tuple[int, int]:
    for server in server_order:
        for k in range(slots.K):
            if slots.feasible(req, server, k):
                return server, k
    raise PlacementError(
        f"no feasible slot for tenant {req.tenant_id} "
        f"(group {req.group}, isolation {req.isolation})")


def uniform_striping(reqs: Sequence[TenantReq], topology: FabricTopology,
                     compartments_per_server: int,
                     tenants_per_compartment: int) -> Placement:
    """The baseline: contiguous id blocks per server (exactly what
    ``MultiServerCloud`` does absent a placement), blind to who talks
    to whom.  Constraints are still enforced -- a tenant whose home
    block cannot hold it spills to the next server."""
    slots = _Slots(reqs, topology, compartments_per_server,
                   tenants_per_compartment)
    assignment: Dict[int, Tuple[int, int]] = {}
    num = topology.num_servers
    per = max(1, math.ceil(len(reqs) / num))
    for i, req in enumerate(sorted(reqs, key=lambda r: r.tenant_id)):
        home = min(i // per, num - 1)
        order = [(home + off) % num for off in range(num)]
        server, k = _first_feasible(slots, req, order)
        slots.add(req, server, k)
        assignment[req.tenant_id] = (server, k)
    return Placement(assignment, policy="striping")


def _compartment_reservation(slots: _Slots, shared_unplaced: Dict[int, int],
                             dedicated_unplaced: int) -> Tuple[int, int]:
    """(free compartments, compartments the unplaced backlog still needs).

    Compartments are group-pure, so every group with unplaced tenants
    and no spare capacity in its open compartments is owed at least one
    fresh compartment (``ceil(deficit / cap)`` of them); every unplaced
    isolation>=2 tenant is owed a dedicated one.  Greedy consults this
    before opening a compartment it does not strictly need, which is
    what keeps a near-full fleet feasible: an idly opened compartment
    can never be reclaimed for another group.
    """
    slack: Dict[int, int] = {}
    for slot, occupants in slots.members.items():
        if not slots.comp_dedicated.get(slot, False):
            g = slots.comp_group[slot]
            slack[g] = slack.get(g, 0) + (slots.cap - len(occupants))
    need = dedicated_unplaced
    for g, n in shared_unplaced.items():
        deficit = n - slack.get(g, 0)
        if deficit > 0:
            need += -(-deficit // slots.cap)
    free = slots.topology.num_servers * slots.K - len(slots.members)
    return free, need


def greedy_place(reqs: Sequence[TenantReq], topology: FabricTopology,
                 compartments_per_server: int,
                 tenants_per_compartment: int) -> Placement:
    """Heaviest-first greedy: minimize each tenant's incremental
    demand-weighted hop cost to its already-placed peers."""
    slots = _Slots(reqs, topology, compartments_per_server,
                   tenants_per_compartment)
    assignment: Dict[int, Tuple[int, int]] = {}
    placement = Placement(assignment, policy="greedy")
    order = sorted(reqs, key=lambda r: (-r.demand_pps, r.tenant_id))
    shared_unplaced: Dict[int, int] = {}
    dedicated_unplaced = 0
    for req in order:
        if req.isolation >= 2:
            dedicated_unplaced += 1
        else:
            shared_unplaced[req.group] = \
                shared_unplaced.get(req.group, 0) + 1
    for req in order:
        free, need = _compartment_reservation(
            slots, shared_unplaced, dedicated_unplaced)
        # Opening a compartment this tenant's own backlog is owed keeps
        # the reservation balanced; opening a surplus one is allowed
        # only while compartments outnumber the groups still waiting.
        if req.isolation >= 2:
            owed = True
        else:
            slack = sum(slots.cap - len(occupants)
                        for slot, occupants in slots.members.items()
                        if slots.comp_group[slot] == req.group
                        and not slots.comp_dedicated.get(slot, False))
            owed = shared_unplaced.get(req.group, 0) > slack
        allow_open = free - 1 >= need - (1 if owed else 0)
        best: Optional[Tuple] = None
        for guarded in ((True, False) if not allow_open else (False,)):
            for server in range(topology.num_servers):
                for k in range(slots.K):
                    if not slots.feasible(req, server, k):
                        continue
                    opens_new = 0 if slots.members.get((server, k)) else 1
                    if guarded and opens_new:
                        continue
                    assignment[req.tenant_id] = (server, k)
                    cost = _edge_cost(slots, placement, topology, req)
                    del assignment[req.tenant_id]
                    # Packing pressure: at equal cost, join an existing
                    # compartment of our group rather than claim a
                    # fresh one another group may come to need.
                    key = (cost, opens_new,
                           slots.server_load.get(server, 0.0), server, k)
                    if best is None or key < best:
                        best = key
            if best is not None:
                break
        if best is None:
            raise PlacementError(
                f"no feasible slot for tenant {req.tenant_id} "
                f"(group {req.group}, isolation {req.isolation})")
        server, k = best[-2], best[-1]
        slots.add(req, server, k)
        assignment[req.tenant_id] = (server, k)
        if req.isolation >= 2:
            dedicated_unplaced -= 1
        else:
            shared_unplaced[req.group] -= 1
    return placement


def _edge_cost(slots: _Slots, placement: Placement,
               topology: FabricTopology, req: TenantReq) -> float:
    """Demand-weighted hop cost of every placed edge incident to ``req``."""
    cost = 0.0
    for peer in req.peers:
        if peer in placement.assignment:
            cost += req.demand_to(peer) * pair_hops(
                topology, placement, req.tenant_id, peer)
    for sender in slots.rev_peers.get(req.tenant_id, ()):
        if sender != req.tenant_id and sender in placement.assignment:
            cost += slots.req_of[sender].demand_to(req.tenant_id) * pair_hops(
                topology, placement, sender, req.tenant_id)
    return cost


def incremental_place(reqs: Sequence[TenantReq], placement: Placement,
                      topology: FabricTopology,
                      compartments_per_server: int,
                      tenants_per_compartment: int,
                      tenants_to_place: Sequence[int],
                      open_slots: Optional[Iterable[Tuple[int, int]]] = None,
                      ) -> Dict[int, Tuple[int, int]]:
    """Seat ``tenants_to_place`` into an existing placement without
    moving residents (online arrivals; live migration off a failed
    compartment).  Residents are every tenant of ``placement`` not in
    ``tenants_to_place``; each newcomer lands greedily on the feasible
    slot with the lowest incremental edge cost, under exactly the
    security constraints the offline policies enforce.  ``open_slots``,
    when given, restricts candidates to that pool (the control plane's
    open/healthy compartments).  Returns ``{tenant: (server, k)}`` for
    the newcomers only; raises :class:`PlacementError` when any of
    them cannot be seated.
    """
    slots = _Slots(reqs, topology, compartments_per_server,
                   tenants_per_compartment)
    moving = set(tenants_to_place)
    assignment: Dict[int, Tuple[int, int]] = {
        t: slot for t, slot in placement.assignment.items()
        if t not in moving}
    scratch = Placement(assignment, policy="incremental")
    for tid in sorted(assignment):
        slots.add(slots.req_of[tid], *assignment[tid])
    if open_slots is not None:
        pool = sorted(set(open_slots))
    else:
        pool = [(s, k) for s in range(topology.num_servers)
                for k in range(slots.K)]
    placed: Dict[int, Tuple[int, int]] = {}
    order = sorted(moving, key=lambda t: (-slots.req_of[t].demand_pps, t))
    for tid in order:
        req = slots.req_of[tid]
        best: Optional[Tuple] = None
        for server, k in pool:
            if not slots.feasible(req, server, k):
                continue
            opens_new = 0 if slots.members.get((server, k)) else 1
            assignment[tid] = (server, k)
            cost = _edge_cost(slots, scratch, topology, req)
            del assignment[tid]
            key = (cost, opens_new, slots.server_load.get(server, 0.0),
                   server, k)
            if best is None or key < best:
                best = key
        if best is None:
            raise PlacementError(
                f"no feasible slot for tenant {tid} "
                f"(group {req.group}, isolation {req.isolation})")
        slot = (best[-2], best[-1])
        slots.add(req, *slot)
        assignment[tid] = slot
        placed[tid] = slot
    return placed


def local_search(reqs: Sequence[TenantReq], placement: Placement,
                 topology: FabricTopology, compartments_per_server: int,
                 tenants_per_compartment: int,
                 max_passes: int = 2) -> Placement:
    """Bounded improvement passes: re-offer each tenant every feasible
    slot; move when its own edge cost strictly drops.  Each evaluation
    is O(degree), so a pass is cheap even at fabric scale."""
    slots = _Slots(reqs, topology, compartments_per_server,
                   tenants_per_compartment)
    assignment = dict(placement.assignment)
    result = Placement(assignment, policy="local")
    for req in sorted(reqs, key=lambda r: r.tenant_id):
        slots.add(req, *assignment[req.tenant_id])
    order = sorted(reqs, key=lambda r: (-r.demand_pps, r.tenant_id))
    for _ in range(max_passes):
        moved = False
        for req in order:
            here = assignment[req.tenant_id]
            current = _edge_cost(slots, result, topology, req)
            slots.remove(req, *here)
            best = (current, here)
            for server in range(topology.num_servers):
                for k in range(slots.K):
                    if (server, k) == here:
                        continue
                    if not slots.feasible(req, server, k):
                        continue
                    assignment[req.tenant_id] = (server, k)
                    cost = _edge_cost(slots, result, topology, req)
                    if cost < best[0] - 1e-12:
                        best = (cost, (server, k))
            assignment[req.tenant_id] = best[1]
            slots.add(req, *best[1])
            if best[1] != here:
                moved = True
        if not moved:
            break
    return result


def place(reqs: Sequence[TenantReq], topology: FabricTopology,
          policy: str = "greedy", compartments_per_server: int = 2,
          tenants_per_compartment: int = 8) -> Placement:
    """Run one of the registered policies and validate its output."""
    try:
        build = POLICIES[policy]
    except KeyError:
        raise PlacementError(
            f"unknown placement policy {policy!r}; "
            f"choose from {sorted(POLICIES)}")
    placement = build(reqs, topology, compartments_per_server,
                      tenants_per_compartment)
    validate_placement(reqs, placement, topology, compartments_per_server,
                       tenants_per_compartment)
    return placement


def _local(reqs, topology, compartments_per_server, tenants_per_compartment):
    seeded = greedy_place(reqs, topology, compartments_per_server,
                          tenants_per_compartment)
    return local_search(reqs, seeded, topology, compartments_per_server,
                        tenants_per_compartment)


POLICIES = {
    "striping": uniform_striping,
    "greedy": greedy_place,
    "local": _local,
}

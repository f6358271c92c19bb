"""The fabric's capacity model: servers, racks, ToRs, one spine.

A :class:`FabricTopology` is the *fluid-side* description of the same
tree ``core.multiserver`` wires out of
:class:`~repro.net.fabric.FabricSwitch` objects: ``num_servers``
servers in racks of ``servers_per_rack``, each server on a
``server_link_bps`` access link to its ToR, each ToR on a
``tor_uplink_bps`` trunk to the spine.  It answers the questions both
halves of the hybrid simulation ask:

- *placement*: how many fabric hops between two servers
  (:meth:`hops` -- the optimizer's distance metric);
- *fluid model*: which named link pools a server-to-server path
  consumes (:meth:`path_links` / :meth:`link_resources`);
- *DES*: which rack a server sits in (:meth:`rack_of` -- duck-typed by
  ``MultiServerCloud._build_fabric``) and the link bandwidths.

Server access links share their names (``uplink.s<i>`` /
``downlink.s<i>``) with the Links the DES actually builds, so residual
capacities computed by the fluid solver map onto DES link bandwidths
by name alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.perfmodel.capacity import Resource
from repro.units import GBPS


@dataclass(frozen=True)
class FabricTopology:
    """A two-tier ToR/spine fabric (one tier when a single rack)."""

    num_servers: int = 8
    servers_per_rack: int = 16
    server_link_bps: float = 10 * GBPS
    tor_uplink_bps: float = 40 * GBPS

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ValueError("need at least one server")
        if self.servers_per_rack < 1:
            raise ValueError("racks hold at least one server")
        if self.server_link_bps <= 0 or self.tor_uplink_bps <= 0:
            raise ValueError("link bandwidths must be positive")

    # -- shape -----------------------------------------------------------

    @property
    def num_racks(self) -> int:
        return math.ceil(self.num_servers / self.servers_per_rack)

    def rack_of(self, server: int) -> int:
        if not 0 <= server < self.num_servers:
            raise ValueError(f"no server {server}")
        return server // self.servers_per_rack

    # -- distances (the placement objective) ------------------------------

    def hops(self, src_server: int, dst_server: int) -> int:
        """Fabric link hops between two servers: 0 on the same server,
        2 within a rack (up to the ToR and back down), 4 across racks
        (server -> ToR -> spine -> ToR -> server)."""
        if src_server == dst_server:
            return 0
        if self.rack_of(src_server) == self.rack_of(dst_server):
            return 2
        return 4

    # -- link naming / capacity pools -------------------------------------

    @staticmethod
    def server_uplink(server: int) -> str:
        return f"uplink.s{server}"

    @staticmethod
    def server_downlink(server: int) -> str:
        return f"downlink.s{server}"

    @staticmethod
    def tor_uplink(rack: int) -> str:
        return f"tor{rack}.up"

    @staticmethod
    def tor_downlink(rack: int) -> str:
        return f"tor{rack}.down"

    def link_resources(self) -> Dict[str, Resource]:
        """Every fabric link as a byte/s capacity pool (link demands are
        expressed in *bits* per packet against bit/s pools)."""
        pools: Dict[str, Resource] = {}
        for s in range(self.num_servers):
            for name in (self.server_uplink(s), self.server_downlink(s)):
                pools[name] = Resource(name, self.server_link_bps)
        if self.num_racks > 1:
            for r in range(self.num_racks):
                for name in (self.tor_uplink(r), self.tor_downlink(r)):
                    pools[name] = Resource(name, self.tor_uplink_bps)
        return pools

    def path_links(self, src_server: int, dst_server: int) -> List[str]:
        """Link names one packet traverses from ``src_server`` to
        ``dst_server``.  Same-server traffic (including the
        cross-compartment case, which hairpins between In/Out VFs
        inside the NIC's embedded switch) never touches the fabric."""
        if src_server == dst_server:
            return []
        path = [self.server_uplink(src_server)]
        src_rack = self.rack_of(src_server)
        dst_rack = self.rack_of(dst_server)
        if src_rack != dst_rack:
            path.append(self.tor_uplink(src_rack))
            path.append(self.tor_downlink(dst_rack))
        path.append(self.server_downlink(dst_server))
        return path

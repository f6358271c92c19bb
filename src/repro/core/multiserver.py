"""Multi-server MTS: N DUTs behind a leaf / ToR-spine fabric.

The paper evaluates a single server, but its architecture -- the
ingress/egress chains, per-tenant VLANs *inside* each NIC, and overlay
tunnels *between* servers -- is a datacenter design.  This module
assembles it: ``MultiServerCloud`` builds one MTS deployment per
server, connects every server's NIC port 0 to a
:class:`~repro.net.fabric.FabricSwitch` (one leaf, or per-rack ToRs
trunked through a spine when a topology is given), gives tenants
cluster-global identities, and has the centralized controller install

- static fabric entries for every compartment's In/Out VF MAC (the
  EVPN-ish piece), and
- inter-server flow rules in every compartment: traffic to a *remote*
  tenant's IP is rewritten to the remote compartment's In/Out MAC (and
  VXLAN-encapsulated when tunneling is on) and sent out the fabric,
  where the remote server's normal Fig.-3a ingress chain takes over.
  One rule per (compartment, remote tenant) -- the rules match on
  destination IP alone, so the table grows O(K x T_remote), not
  O(T_local x T_remote) per compartment.

Tenants land on servers either by uniform striping (the default:
server ``s`` hosts global tenants ``[s*T, (s+1)*T)``) or by an
explicit **placement** map from the fabric layer's optimizer
(``repro.fabric.placement``): ``{global_tenant: (server,
compartment)}``.  With a placement, each server's
:class:`~repro.core.spec.DeploymentSpec` is derived per server
(tenant count + zone map), padding empty compartments with silent
filler tenants so the spec stays valid.

Single-port deployments only (one fabric uplink per server), matching
the paper's workload topology.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.deployment import Deployment, build_deployment
from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.errors import ConfigurationError, ValidationError
from repro.host.server import Server
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.fabric import FabricSwitch
from repro.net.link import Link
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.sim.kernel import Simulator
from repro.units import GBPS, GIB
from repro.vswitch.actions import Output, PushTunnel, SetDstMac
from repro.vswitch.flowtable import FlowRule
from repro.vswitch.matches import FlowMatch

#: Priority of inter-server rules: above the egress catch-all, below
#: the intra-compartment v2v chains.
PRIO_INTER_SERVER = 250

#: Priority of intra-server tenant-to-tenant rules: above the egress
#: catch-all, below the ingress chain (so tunnelled fabric arrivals
#: still hit the decapsulating ingress rules first).
PRIO_LOCAL = 150


@dataclass
class GlobalTenant:
    """Cluster-wide tenant identity."""

    global_id: int
    server_index: int
    local_id: int
    ip: IPv4Address
    compartment_inout_mac: MacAddress


class MultiServerCloud:
    """N servers x one spec, interconnected by a leaf (or ToR/spine).

    ``placement`` maps global tenant ids to ``(server, compartment)``;
    ``None`` stripes ``spec.num_tenants`` tenants onto every server.
    ``topology`` (duck-typed; see ``repro.fabric.topology``) supplies
    ``num_racks`` / ``rack_of(server)`` / link bandwidths -- when it
    describes more than one rack, per-rack ToR switches are trunked
    through a spine.  ``link_bandwidth_of`` overrides individual
    server-link bandwidths by link name (the hybrid simulation passes
    residual capacities this way), and ``global_server_ids`` lets a
    *subset* cloud (DES over only the servers under study) keep
    fabric-global server numbering for seeds, addresses, and links.
    """

    def __init__(
        self,
        spec: DeploymentSpec,
        num_servers: int = 2,
        sim: Optional[Simulator] = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        link_bandwidth_bps: float = 10 * GBPS,
        seed: int = 0,
        placement: Optional[Dict[int, Tuple[int, int]]] = None,
        topology=None,
        link_bandwidth_of: Optional[Callable[[str], Optional[float]]] = None,
        global_server_ids: Optional[Sequence[int]] = None,
    ) -> None:
        if not spec.level.is_mts:
            raise ConfigurationError(
                "the multi-server fabric routes on In/Out VF MACs; build "
                "it with an MTS spec")
        if spec.nic_ports != 1:
            raise ValidationError(
                "multi-server deployments use the single-port (workload) "
                "topology: one fabric uplink per server")
        if num_servers < 2 and placement is None:
            raise ValidationError("need at least two servers")
        if num_servers < 1:
            raise ValidationError("need at least one server")
        if global_server_ids is not None:
            if len(global_server_ids) != num_servers:
                raise ValidationError(
                    f"{len(global_server_ids)} global server ids for "
                    f"{num_servers} servers")
            if len(set(global_server_ids)) != num_servers:
                raise ValidationError("global server ids must be unique")
        self.spec = spec
        self.sim = sim if sim is not None else Simulator()
        self._server_ids = (list(global_server_ids)
                            if global_server_ids is not None
                            else list(range(num_servers)))
        self._link_bandwidth_of = link_bandwidth_of
        self._placement = dict(placement) if placement is not None else None
        self._locals = self._assign_locals(num_servers)
        self._build_fabric(num_servers, topology)
        self.deployments: List[Deployment] = []
        self.tenants: Dict[int, GlobalTenant] = {}

        for s in range(num_servers):
            server_spec = self._server_spec(s)
            deployment = build_deployment(server_spec, TrafficScenario.P2V,
                                          sim=self.sim,
                                          calibration=calibration,
                                          seed=seed + self._server_ids[s],
                                          server=self._build_server(
                                              server_spec, s, calibration),
                                          site_id=self._server_ids[s])
            self._wire_server(s, deployment, link_bandwidth_bps)
            self.deployments.append(deployment)
        self._register_tenants()
        self._program_fabric()
        self._program_intra_server_rules()
        self._program_inter_server_rules()

    # -- construction ------------------------------------------------------

    def _assign_locals(self, num_servers: int) -> List[List[int]]:
        """Global tenant ids hosted on each server, in local-id order."""
        if self._placement is None:
            per = self.spec.num_tenants
            return [[s * per + t for t in range(per)]
                    for s in range(num_servers)]
        by_server: List[List[int]] = [[] for _ in range(num_servers)]
        for gid, (s, k) in self._placement.items():
            if not 0 <= s < num_servers:
                raise ValidationError(
                    f"tenant {gid} placed on unknown server {s}")
            if not 0 <= k < max(1, self.spec.num_compartments):
                raise ValidationError(
                    f"tenant {gid} placed in unknown compartment {k}")
            by_server[s].append(gid)
        return [sorted(gids) for gids in by_server]

    def _build_server(self, server_spec: DeploymentSpec, server: int,
                      calibration: Calibration) -> Server:
        """A host sized to its spec: a dense placement can pack more
        tenant VMs onto one server than the default 16-core host can
        pin, so give each server exactly the cores its VMs will claim
        (never fewer than the stock host, so sparse servers match the
        single-server model)."""
        vms = server_spec.num_tenants + server_spec.num_compartments
        needed = (server_spec.num_tenants * server_spec.tenant_cores
                  + server_spec.num_compartments + 2)
        return Server(self.sim, name=f"dut{self._server_ids[server]}",
                      num_cores=max(16, needed),
                      freq_hz=calibration.cpu_freq_hz,
                      memory_bytes=max(64 * GIB,
                                       (vms + 2) * server_spec.vm_memory_bytes),
                      hugepages_1g=max(16, vms + 2))

    def _server_spec(self, server: int) -> DeploymentSpec:
        """The per-server deployment spec: the shared spec as-is under
        striping, or a derived tenant-count + zone map under an explicit
        placement (empty compartments get a silent filler tenant so the
        spec stays valid -- fillers are never registered and never send)."""
        if self._placement is None:
            return self.spec
        zones = [self._placement[gid][1] for gid in self._locals[server]]
        for k in range(self.spec.num_compartments):
            if k not in zones:
                zones.append(k)  # filler
        return replace(self.spec, num_tenants=len(zones),
                       zone_of_tenant=tuple(zones))

    def _build_fabric(self, num_servers: int, topology) -> None:
        """One leaf by default; per-rack ToRs trunked via a spine when
        the topology spans multiple racks.  ``self._tor_of[s]`` /
        ``self._port_of[s]`` locate each server's access port."""
        num_racks = getattr(topology, "num_racks", 1) if topology else 1
        if num_racks <= 1:
            self.fabric: Optional[FabricSwitch] = FabricSwitch(
                self.sim, num_ports=num_servers + 2)
            self.switches: List[FabricSwitch] = [self.fabric]
            self.spine: Optional[FabricSwitch] = None
            self._tor_of = [self.fabric] * num_servers
            self._port_of = list(range(num_servers))
            return
        members: Dict[int, List[int]] = {}
        for s in range(num_servers):
            members.setdefault(topology.rack_of(self._server_ids[s]),
                               []).append(s)
        racks = sorted(members)
        self.spine = FabricSwitch(self.sim, num_ports=len(racks) + 2,
                                  name="spine0")
        self.fabric = None
        self.switches = [self.spine]
        self._tor_of = [None] * num_servers
        self._port_of = [0] * num_servers
        self._tor_by_rack: Dict[int, FabricSwitch] = {}
        self._uplink_port_of: Dict[int, int] = {}
        self._spine_port_of: Dict[int, int] = {}
        trunk_bps = getattr(topology, "tor_uplink_bps", 40 * GBPS)
        for spine_port, rack in enumerate(racks):
            tor = FabricSwitch(self.sim, num_ports=len(members[rack]) + 2,
                               name=f"tor{rack}")
            self.switches.append(tor)
            uplink = len(members[rack])
            tor.trunk(uplink, self.spine, spine_port,
                      bandwidth_bps=trunk_bps)
            self._tor_by_rack[rack] = tor
            self._uplink_port_of[rack] = uplink
            self._spine_port_of[rack] = spine_port
            for port, s in enumerate(members[rack]):
                self._tor_of[s] = tor
                self._port_of[s] = port
        self._rack_of = {s: topology.rack_of(self._server_ids[s])
                         for s in range(num_servers)}

    def _link_bps(self, name: str, default: float) -> float:
        if self._link_bandwidth_of is None:
            return default
        override = self._link_bandwidth_of(name)
        return default if override is None else override

    def _wire_server(self, index: int, deployment: Deployment,
                     bandwidth: float) -> None:
        gid = self._server_ids[index]
        rx, set_link = self._tor_of[index].attach(self._port_of[index])
        # server -> fabric
        up = f"uplink.s{gid}"
        deployment.connect_egress(0, Link(
            self.sim, rx, bandwidth_bps=self._link_bps(up, bandwidth),
            name=up))
        # fabric -> server
        down = f"downlink.s{gid}"
        set_link(Link(self.sim, deployment.external_ingress(0),
                      bandwidth_bps=self._link_bps(down, bandwidth),
                      name=down))

    def _register_tenants(self) -> None:
        for s, deployment in enumerate(self.deployments):
            for local, gid in enumerate(self._locals[s]):
                k = deployment.compartment_of_tenant(local)
                mac = deployment.inout_vf[(k, 0)].mac
                assert mac is not None
                self.tenants[gid] = GlobalTenant(
                    global_id=gid,
                    server_index=s,
                    local_id=local,
                    ip=deployment.plan.tenant_ip(local),
                    compartment_inout_mac=mac,
                )

    def _program_fabric(self) -> None:
        for s, deployment in enumerate(self.deployments):
            for (_k, _p), vf in deployment.inout_vf.items():
                assert vf.mac is not None
                self._install_mac(s, vf.mac)

    def _install_mac(self, server: int, mac: MacAddress) -> None:
        if self.fabric is not None:
            self.fabric.install_static(mac, self._port_of[server])
            return
        rack = self._rack_of[server]
        self._tor_of[server].install_static(mac, self._port_of[server])
        self.spine.install_static(mac, self._spine_port_of[rack])
        for other_rack, other in self._tor_by_rack.items():
            if other_rack != rack:
                other.install_static(mac, self._uplink_port_of[other_rack])

    def _program_intra_server_rules(self) -> None:
        """Tenant-to-tenant delivery *within* a server.

        Same compartment: rewrite to the destination tenant VF's MAC
        and emit on its gateway port (the tail of the normal ingress
        chain).  Other compartment: rewrite to that compartment's
        In/Out MAC and emit on our In/Out port -- the NIC's embedded
        switch hairpins the frame between the two In/Out VFs without
        touching the fabric.
        """
        for s, deployment in enumerate(self.deployments):
            local = [t for t in self.tenants.values() if t.server_index == s]
            for view in deployment.compartment_views:
                for target in local:
                    if target.local_id in view.tenants:
                        actions = [
                            SetDstMac(view.tenant_vf_mac[
                                (target.local_id, 0)]),
                            Output(view.gw_port_no[(target.local_id, 0)]),
                        ]
                    else:
                        actions = [SetDstMac(target.compartment_inout_mac)]
                        if self.spec.tunneling:
                            actions.append(PushTunnel(
                                deployment.plan.vni(target.local_id)))
                        actions.append(Output(view.inout_port_no[0]))
                    view.bridge.add_flow(FlowRule(
                        match=FlowMatch(dst_ip=target.ip),
                        actions=actions,
                        priority=PRIO_LOCAL,
                    ))
                    deployment.controller.rules_installed += 1

    def _program_inter_server_rules(self) -> None:
        """Every compartment learns how to reach every remote tenant.

        One dst-ip rule per (compartment, remote tenant): the rewrite is
        the same whichever local tenant is talking, so matching on the
        gateway in-port only multiplied the table by the compartment's
        tenant count without changing behaviour.
        """
        self.inter_server_rules = 0
        for s, deployment in enumerate(self.deployments):
            remote = [t for t in self.tenants.values()
                      if t.server_index != s]
            for view in deployment.compartment_views:
                for target in remote:
                    actions = [SetDstMac(target.compartment_inout_mac)]
                    if self.spec.tunneling:
                        # VNIs come from the *target* site's plan so
                        # the remote ingress chain matches them.
                        target_plan = self.deployments[
                            target.server_index].plan
                        actions.append(PushTunnel(
                            target_plan.vni(target.local_id)))
                    actions.append(Output(view.inout_port_no[0]))
                    rule = FlowRule(
                        match=FlowMatch(dst_ip=target.ip),
                        actions=actions,
                        priority=PRIO_INTER_SERVER,
                    )
                    view.bridge.add_flow(rule)
                    deployment.controller.rules_installed += 1
                    self.inter_server_rules += 1

    # -- use -------------------------------------------------------------------

    def send_between_tenants(self, src_global: int, dst_global: int,
                             size_bytes: int = 64):
        """Inject one frame from one tenant's VF towards another tenant
        (possibly on another server); returns the frame for tracing."""
        from repro.net.packet import Frame
        src = self.tenants[src_global]
        dst = self.tenants[dst_global]
        deployment = self.deployments[src.server_index]
        src_vf = deployment.tenant_vf[(src.local_id, 0)]
        gw_mac = deployment.gw_vf[(src.local_id, 0)].mac
        assert src_vf.mac is not None and gw_mac is not None
        frame = Frame(
            src_mac=src_vf.mac,
            dst_mac=gw_mac,
            src_ip=src.ip,
            dst_ip=dst.ip,
            size_bytes=size_bytes,
            flow_id=dst.local_id,
            tenant_id=src.local_id,
            created_at=self.sim.now,
        )
        src_vf.port.transmit(frame)
        return frame

    def attach_sink(self, global_tenant: int) -> List:
        """Replace the tenant's forwarding app with a receive sink
        (a tenant *hosting a service* consumes frames rather than
        bouncing them like the benchmark l2fwd); returns the list the
        received frames land in."""
        tenant = self.tenants[global_tenant]
        deployment = self.deployments[tenant.server_index]
        received: List = []
        vf = deployment.tenant_vf[(tenant.local_id, 0)]
        vf.port.rx.connect(received.append)
        return received

    def run(self, duration: float = 1.0) -> None:
        self.sim.run(until=self.sim.now + duration)

    def describe(self) -> str:
        if self.fabric is not None:
            fabric = f"leaf switch with {len(self.fabric.ports)} ports"
        else:
            fabric = (f"{len(self.switches) - 1} ToRs + spine "
                      f"({len(self.spine.ports)} trunk ports)")
        lines = [f"cloud: {len(self.deployments)} servers x "
                 f"{self.spec.label}, {len(self.tenants)} tenants, "
                 + fabric]
        for tenant in self.tenants.values():
            lines.append(
                f"  tenant {tenant.global_id}: server {tenant.server_index} "
                f"local {tenant.local_id} ip {tenant.ip}")
        return "\n".join(lines)

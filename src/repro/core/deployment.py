"""Build runnable deployments from specs.

``build_deployment(spec, scenario)`` assembles, on a simulated server,
everything the paper's framework sets up on real hardware:

- VMs (vswitch compartments and tenants) with pinned cores, RAM and
  hugepages per the spec's resource mode;
- SR-IOV VFs, configured with MACs, per-tenant VLAN tags and
  anti-spoofing, attached to their VMs (MTS), or virtio/vhost paths
  (Baseline);
- an OVS-like bridge per compartment (or the host-resident Baseline
  bridge), kernel or DPDK datapath per the spec;
- tenant-side apps: the adapted DPDK l2fwd (MTS) or a Linux bridge
  (Baseline);
- the controller-programmed flow rules, ARP entries and NIC filters.

Every step lands in the deployment's :class:`~repro.core.primitives.OpLog`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.core.controller import AddressPlan, BaselineView, CompartmentView, Controller
from repro.core.levels import ResourceMode
from repro.core.primitives import OpLog
from repro.core.resources import ResourceReport, measure_resources
from repro.core.spec import ArpMode, CompartmentKind, DeploymentSpec, TrafficScenario
from repro.host.hypervisor import Hypervisor, PinPolicy, VmSpec
from repro.host.server import Server
from repro.host.virtio import VhostCosts, VhostPath
from repro.host.vm import Vm, VmRole
from repro.net.addresses import MacAddress, MacAllocator
from repro.net.arp import ArpTable
from repro.net.interfaces import Port, PortPair
from repro.net.link import Link
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.sim.kernel import Simulator
from repro.sriov.vf import FunctionKind, VirtualFunction
from repro.units import GIB, MIB
from repro.vswitch.datapath import DatapathMode, PortClass
from repro.vswitch.l2fwd import L2Fwd
from repro.vswitch.linux_bridge import LinuxBridge
from repro.vswitch.megaflow import (
    DPDK_UPCALL_CYCLES,
    KERNEL_UPCALL_CYCLES,
    MegaflowCache,
)
from repro.vswitch.ovs import OvsBridge

_INF = float("inf")

#: Negative route-cache entry: fusing was tried and is impossible for
#: this plan until the next config-epoch bump.
_NO_FUSE = object()


@dataclass(eq=False)  # identity-hashed: repro.obs tracks live ones
class Deployment:
    """A built, runnable configuration."""

    spec: DeploymentSpec
    scenario: TrafficScenario
    sim: Simulator
    server: Server
    hypervisor: Hypervisor
    calibration: Calibration
    controller: Controller
    oplog: OpLog
    plan: AddressPlan
    vswitch_vms: List[Vm] = field(default_factory=list)
    tenant_vms: List[Vm] = field(default_factory=list)
    bridges: List[OvsBridge] = field(default_factory=list)
    compartment_views: List[CompartmentView] = field(default_factory=list)
    baseline_view: Optional[BaselineView] = None
    tenant_arp: Dict[int, ArpTable] = field(default_factory=dict)
    # MTS wiring maps
    inout_vf: Dict[Tuple[int, int], VirtualFunction] = field(default_factory=dict)
    gw_vf: Dict[Tuple[int, int], VirtualFunction] = field(default_factory=dict)
    tenant_vf: Dict[Tuple[int, int], VirtualFunction] = field(default_factory=dict)
    # Baseline wiring
    phys_pairs: Dict[int, PortPair] = field(default_factory=dict)
    vhost_paths: Dict[Tuple[int, int], VhostPath] = field(default_factory=dict)
    #: Runtime tenant -> compartment overrides (hot-added or migrated
    #: tenants); consulted before the spec's static assignment.
    runtime_compartment: Dict[int, int] = field(default_factory=dict)
    #: Oracle marks held on this deployment: reason -> count (see
    #: :meth:`hold_oracle`).
    oracle_holds: Dict[str, int] = field(default_factory=dict)

    # -- traffic attachment -------------------------------------------------

    def external_ingress(self, port_index: int = 0) -> Port:
        """Where the load generator's link delivers frames."""
        if self.spec.level.is_mts:
            return self.server.nic.port(port_index).fabric_rx
        return self.phys_pairs[port_index].rx

    def connect_egress(self, port_index: int, link: Link) -> None:
        """Attach the outbound wire towards the sink/monitor."""
        if self.spec.level.is_mts:
            self.server.nic.port(port_index).connect_fabric(link)
        else:
            pair = self.phys_pairs[port_index]
            pair.attach_tx(link.send)
            pair.attach_tx_batch(link.send_batch)

    def egress_port_index(self) -> int:
        """NIC port test traffic leaves on (1 on two-port runs)."""
        return 0 if self.spec.nic_ports == 1 else 1

    def ingress_dmac_for_tenant(self, tenant_id: int,
                                port_index: int = 0) -> MacAddress:
        """Destination MAC the load generator must use so the NIC's VEB
        delivers the flow to the right compartment (MTS) -- or anything
        bridge-local for the Baseline."""
        if self.spec.level.is_mts:
            k = self.compartment_of_tenant(tenant_id)
            mac = self.inout_vf[(k, port_index)].mac
            assert mac is not None
            return mac
        return self.plan.external_gw_mac

    # -- structure accessors -------------------------------------------------

    def compartment_of_tenant(self, tenant_id: int) -> int:
        if tenant_id in self.runtime_compartment:
            return self.runtime_compartment[tenant_id]
        return self.spec.compartment_of_tenant(tenant_id)

    def bridge_of_tenant(self, tenant_id: int) -> OvsBridge:
        if not self.spec.level.is_mts:
            return self.bridges[0]
        return self.bridges[self.compartment_of_tenant(tenant_id)]

    def tenant_vm(self, tenant_id: int) -> Vm:
        return self.tenant_vms[tenant_id]

    def set_offered_rate_hint(self, pps: float) -> None:
        """Tell datapaths the aggregate offered rate (for the DPDK
        multi-queue drain-anomaly model)."""
        for bridge in self.bridges:
            if bridge.model is not None:
                bridge.model.offered_rate_hint_pps = pps

    # -- oracle marks -----------------------------------------------------------

    def hold_oracle(self, reason: str) -> None:
        """Mark this deployment's runs for the per-frame oracle path.

        Whatever the batched path cannot reproduce holds a mark while
        it is armed: a chaos session with a fault upstream of the batch
        stations (``"chaos"``: a link, VF or loss fault; vswitch
        crashes are catch-up points instead, see
        :meth:`~repro.vswitch.ovs.OvsBridge.crash`), a scheduled or
        in-flight tenant migration or removal (``"lifecycle"``: a
        batch straddling the instant would deliver or drop as a unit
        where the oracle splits it), and the packet tracer
        (``"tracer"``, whose per-hop spans exist only per frame; the
        latency-attribution tap holds no mark).
        Balanced by :meth:`release_oracle`.
        """
        self.oracle_holds[reason] = self.oracle_holds.get(reason, 0) + 1

    def release_oracle(self, reason: str) -> None:
        """Drop one mark taken by :meth:`hold_oracle`."""
        n = self.oracle_holds.get(reason, 0) - 1
        if n > 0:
            self.oracle_holds[reason] = n
        else:
            self.oracle_holds.pop(reason, None)

    def oracle_reason(self) -> Optional[str]:
        """The first reason a mark is held for, or None."""
        return next(iter(self.oracle_holds), None)

    # -- batched fast path ----------------------------------------------------

    def supports_batched_fastpath(self) -> bool:
        """Whether the mediation chain can run struct-of-arrays batches.

        Only timed bridges (``set_compute`` done) gain anything; the
        per-member fallback in :meth:`~repro.net.interfaces.Port.receive_batch`
        keeps unconverted hops exact, so any deployment *could* run
        batched -- but without stations the bridge would fall back
        per-frame anyway, so report capability honestly.
        """
        return any(bridge.model is not None and bridge.compute_shares
                   for bridge in self.bridges)

    def enable_batched_fastpath(self) -> None:
        """Swap every timed bridge onto :class:`BatchFairStation` cores.

        Each bridge gets a *margin resolver* (:meth:`_resolve_plan`):
        per forwarding plan, a flush margin or a fused route.
        Fabric-bound plans resolve to ``inf`` -- their sub-batches flush
        once per burst -- which is what makes the batched path pay at
        saturation.
        """
        self._margin_cache = {}
        self._route_cache = {}
        self._margin_epoch = None
        # Bridge egress pair -> (nic port, VF) so the resolver can walk
        # the same VEB the flushed frames will traverse.
        pair_vf: Dict[int, tuple] = {}
        nic = self.server.nic
        for table in (self.inout_vf, self.gw_vf, self.tenant_vf):
            for (_, port_index), vf in table.items():
                pair_vf[id(vf.port)] = (nic.port(port_index), vf)
        self._pair_vf = pair_vf
        timed = [bridge for bridge in self.bridges
                 if bridge.model is not None and bridge.compute_shares]
        self._bridge_port_by_pair = {
            id(port.pair): (bridge, port)
            for bridge in timed for port in bridge.ports()}
        # Tenant-forwarder rx pair -> (app, port index): route discovery
        # follows the chain through an l2fwd or a Linux bridge
        # analytically.
        forwarders: Dict[int, tuple] = {}
        for vm in self.tenant_vms:
            if vm is None:
                continue
            app = vm.apps.get("l2fwd")
            if app is not None:
                for index, pair in app._ports.items():
                    forwarders[id(pair)] = (app, index)
            app = vm.apps.get("linux-bridge")
            if app is not None:
                for index, pair in enumerate(app._ports):
                    forwarders[id(pair)] = (app, index)
        self._forwarder_by_pair = forwarders
        # Baseline wiring: each side of a vhost path -> (path, the
        # other side), and the wire pairs whose egress is fabric-bound.
        vhost_peer: Dict[int, tuple] = {}
        for path in self.vhost_paths.values():
            vhost_peer[id(path.host_side)] = (path, path.guest_side)
            vhost_peer[id(path.guest_side)] = (path, path.host_side)
        self._vhost_peer = vhost_peer
        self._wire_pair_ids = {id(pair) for pair in self.phys_pairs.values()
                               if pair._tx_batch is not None}
        self._discovering = set()
        for bridge in timed:
            bridge.set_batch_stations(
                margin_fn=lambda plan, b=bridge:
                    self._resolve_plan(b, plan),
                catch_up=self.catch_up_batches)
        self._batch_stations = [station for bridge in timed
                                for station in bridge._stations]

    def drain_batches(self) -> None:
        """Flush sub-batches still held by batch stations.

        Scheduled by the harness once traffic has stopped (mid-cooldown)
        so unbounded-margin groups whose bursts never completed -- tail
        members still pending when the generator stopped -- reach the
        sink before the simulation ends.  Armed bridges count every
        member arrived by now (the last drain runs at the stop time).
        """
        for bridge in self.bridges:
            for station in bridge._stations:
                drain = getattr(station, "drain", None)
                if drain is not None:
                    drain()
        # Through the stop time: a frame arriving then still counts.
        through = math.nextafter(self.sim.now, _INF)
        for bridge in self.bridges:
            if bridge.fault_armed:
                bridge.settle(through)

    def catch_up_batches(self) -> None:
        """Bring the batched chain up to ``sim.now``.

        Stations replay their service lazily (see
        :class:`~repro.sim.resources.BatchFairStation`), and armed
        bridges count batched members by arrival
        (:meth:`~repro.vswitch.ovs.OvsBridge.settle`); anything that
        reads station, bridge or downstream state mid-run -- busy time,
        pass and VF counters, taps -- calls this first, and so does
        every crash and restore instant.
        """
        for bridge in self.bridges:
            for station in bridge._stations:
                catch_up = getattr(station, "catch_up", None)
                if catch_up is not None:
                    catch_up()
        for bridge in self.bridges:
            if bridge.fault_armed:
                bridge.settle(self.sim.now)

    def batch_watermark(self) -> float:
        """Earliest time a batch station can still hand members on.

        A station that lags (its busy period not yet replayed up to
        ``sim.now``) still owes members finishing at or after the step
        it will replay next; served ones wait in its unflushed groups;
        every hop after a station only adds delay.  So nothing can
        reach the egress link ready before this bound: the harness's
        egress hold (:meth:`~repro.net.link.Link.hold`) settles up to
        it.
        """
        mark = self.sim.now
        for station in self._batch_stations:
            t = station.oldest_unflushed()
            if t is not None and t < mark:
                mark = t
        return mark

    @staticmethod
    def _plan_key(bridge: OvsBridge, plan) -> tuple:
        """Cache key of a forwarding plan's margin and fused route."""
        frame = plan.frame
        return (id(bridge), plan.in_port, frame.src_mac, frame.dst_mac,
                frame.vlan, tuple(plan.out_ports))

    def _plan_flush_margin(self, bridge: OvsBridge, plan) -> float:
        """Flush margin of one forwarding plan (see
        :class:`~repro.sim.resources.BatchFairStation`): ``inf`` when
        every egress of the plan's (already rewritten) exemplar header
        reaches the wire (a Baseline physical port) or the NIC's fabric
        uplink, whose remaining chain (wire occupancy, taps, sink) is
        analytic in member timestamps; else 0, a flush at every commit.
        A 0 plan onto another batch station fuses instead once warm
        (:meth:`_resolve_plan`).

        Results are memoized per (bridge, header, egress set) and
        revalidated against the VEB/policer/filter epochs.
        """
        from repro.sriov.switch import UPLINK, VebSwitch
        self._check_epochs()
        key = self._plan_key(bridge, plan)
        margin = self._margin_cache.get(key)
        if margin is None:
            margin = _INF
            for port_no in plan.out_ports:
                port = bridge._ports.get(port_no)
                if port is None or id(port.pair) in self._wire_pair_ids:
                    continue
                entry = self._pair_vf.get(id(port.pair))
                if entry is None:
                    margin = 0.0  # a vhost path, say
                    break
                nic_port, vf = entry
                if nic_port._buckets.get(vf.name) is not None:
                    margin = 0.0  # the policer is stateful per frame
                    break
                dests = nic_port.veb.peek_destinations(
                    vf.name, VebSwitch.domain_of(vf), plan.frame)
                if any(dest != UPLINK and dest in nic_port._functions
                       for dest in dests):
                    margin = 0.0
                    break
            self._margin_cache[key] = margin
        return margin

    def _check_epochs(self) -> None:
        """Invalidate cached margins/routes when NIC config changed."""
        nic = self.server.nic
        epoch = (tuple((p.veb.epoch, p.policer_epoch) for p in nic.ports),
                 nic.filters.epoch)
        if epoch != self._margin_epoch:
            self._margin_cache.clear()
            self._route_cache.clear()
            self._margin_epoch = epoch

    def _resolve_plan(self, bridge: OvsBridge, plan):
        """Margin resolver with route fusing (the bridge's margin_fn).

        Returns the plan's margin (``inf`` or 0, see
        :meth:`_plan_flush_margin`) or, in place of a 0, a
        :class:`~repro.vswitch.ovs._FusedRoute` when the plan's egress
        leads deterministically to another batch station: the bridge
        then pre-registers members downstream on commit instead of
        flushing one-member sub-batches through the physical chain.
        """
        margin = self._plan_flush_margin(bridge, plan)
        if margin == _INF:
            return margin
        route, _ = self._fused_route(bridge, plan)
        return margin if route is None else route

    def _fused_route(self, bridge: OvsBridge, plan):
        """The plan's fused route, cached and revalidated hop by hop
        along its whole chain.  Returns ``(route | None, retryable)``
        (see :meth:`_discover_route`)."""
        key = self._plan_key(bridge, plan)
        route = self._route_cache.get(key)
        if route is _NO_FUSE:
            return None, False
        if route is not None:
            if self._route_valid(route):
                return route, False
            del self._route_cache[key]
        if key in self._discovering:
            return None, False  # the chain loops back onto this plan
        self._discovering.add(key)
        try:
            route, retryable = self._discover_route(bridge, plan)
        finally:
            self._discovering.discard(key)
        if route is not None:
            self._route_cache[key] = route
        elif not retryable:
            # A cold downstream plan template warms up within the flow's
            # first bursts and a Linux bridge's table follows traffic;
            # every other failure is config-stable until an epoch bump,
            # so the negative result is cacheable.
            self._route_cache[key] = _NO_FUSE
        return route, retryable

    @staticmethod
    def _route_valid(route) -> bool:
        """Whether every leg of a cached (possibly chained) route still
        holds: same plan template and port count at its bridge, the
        forwarder unchanged."""
        while route is not None:
            bridge2 = route.bridge
            if not (bridge2._plan_cache.get(route.template_key)
                    is route.template
                    and len(bridge2._ports) == route.num_ports
                    and (route.app is None
                         or route.app.epoch == route.app_epoch)):
                return False
            route = route.next
        return True

    def _discover_route(self, bridge: OvsBridge, plan):
        """Walk a plan's egress chain; build a fused route if it is
        deterministic all the way to the next batch station.

        Requirements, checked leg by leg (NIC VF ingress -> VEB -> PCIe
        -> receiver, or a vhost crossing, with at most one tenant
        forwarder: an l2fwd or a Linux bridge): single egress; every
        hop batch-capable; no policer buckets; NIC filters/spoof-check
        pass; VEB decision is a single non-uplink function; a Linux
        bridge already knows the source and forwards to one port; the
        terminal bridge holds a warm, non-dropping, single-egress plan
        template for the arriving header, and that template's own
        egress either resolves to an unbounded margin
        (fabric-bound -- the downstream station is the *last*
        timestamp-sensitive point) or is itself fused (``route.next``:
        the chain continues).  Returns ``(route | None, retryable)``;
        retryable failures are the ones traffic can cure: a cold
        downstream plan template, and any Linux-bridge table state.  The
        downstream microflow lookup needs no warm entry: members
        register it with the downstream cache (see
        :class:`~repro.vswitch.megaflow.MegaflowCache`).
        """
        from repro.sim.hashjit import HashJitter
        from repro.sriov.filters import FilterAction, SpoofCheck
        from repro.sriov.nic import VEB_LATENCY
        from repro.sriov.pcie import DMA_LATENCY
        from repro.sriov.switch import UPLINK, VebSwitch
        from repro.vswitch.megaflow import flow_signature
        from repro.vswitch.ovs import _APPLY, _ForwardPlan, _FusedRoute
        if len(plan.out_ports) != 1:
            return None, False
        out_port = bridge._ports.get(plan.out_ports[0])
        if out_port is None:
            return None, False
        nic = self.server.nic
        filters = nic.filters
        bw = nic.pcie.effective_bandwidth_bps()
        frame = plan.frame.replica()
        legs: list = []
        app = None
        pair = out_port.pair
        target = None
        for _hop in range(4):
            if pair._tx_batch is None:
                return None, False
            peer = self._vhost_peer.get(id(pair))
            if peer is not None:
                path, rx_pair = peer
                legs.append(path.costs.latency)
            else:
                entry = self._pair_vf.get(id(pair))
                if entry is None:
                    return None, False
                nic_port, vf = entry
                if vf.mac is None or not SpoofCheck.permits(vf, frame):
                    return None, False
                if nic_port._buckets.get(vf.name) is not None:
                    return None, False
                if filters.peek(vf, frame) is not FilterAction.ALLOW:
                    return None, False
                legs.append(DMA_LATENCY + frame.wire_size() * 8.0 / bw
                            + VEB_LATENCY)
                dests = nic_port.veb.peek_destinations(
                    vf.name, VebSwitch.domain_of(vf), frame)
                if len(dests) != 1 or dests[0] == UPLINK:
                    return None, False
                func = nic_port._functions.get(dests[0])
                if func is None:
                    return None, False
                if frame.vlan is not None:
                    frame.pop_vlan()
                legs.append(DMA_LATENCY + frame.wire_size() * 8.0 / bw)
                rx_pair = func.port
            if rx_pair.rx._batch_handler is None:
                return None, False
            target = self._bridge_port_by_pair.get(id(rx_pair))
            if target is not None:
                break
            forwarder = self._forwarder_by_pair.get(id(rx_pair))
            if forwarder is None or app is not None:
                return None, False
            app, in_index = forwarder
            if isinstance(app, LinuxBridge):
                # Its table moves with traffic, not config: a learn
                # still due, or a decision other than one port, retries.
                outs, _ = app.decide(in_index, frame.dst_mac)
                if (app.learns(frame.src_mac, in_index)
                        or outs is None or len(outs) != 1):
                    return None, True
                legs.append(app.delay)
                pair = app._ports[outs[0]]
                continue
            route_l2 = app._routes.get(in_index)
            if route_l2 is None:
                return None, False
            legs.append(None)  # per member: see _FusedRoute.legs
            frame.dst_mac = route_l2.new_dst_mac
            if route_l2.new_src_mac is not None:
                frame.src_mac = route_l2.new_src_mac
            pair = app._ports[route_l2.out_index]
        if target is None:
            return None, False
        bridge2, port2 = target
        if not bridge2._batch_mode or not bridge2._stations:
            return None, False
        key2 = bridge2.plan_key(frame, port2.port_no)
        template = bridge2._plan_cache.get(key2)
        if template is None:
            return None, True  # warms up with the flow's first bursts
        if template.dropped or len(template.out_ports) != 1:
            return None, False
        frame3 = frame.replica()
        for op, action, _rule in template.steps:
            if op == _APPLY:
                action.apply(frame3)
        plan2 = _ForwardPlan(frame=frame3, in_port=port2.port_no,
                             out_ports=list(template.out_ports),
                             rewrites=template.rewrites)
        onward = None
        if self._plan_flush_margin(bridge2, plan2) != _INF:
            # The downstream pass is not the last timestamp-sensitive
            # point: fuse only if its own egress fuses too.
            onward, retryable = self._fused_route(bridge2, plan2)
            if onward is None:
                return None, retryable
        index2 = frame.flow_id % len(bridge2._stations)
        station = bridge2._stations[index2]
        from repro.vswitch.datapath import DatapathMode
        from repro.vswitch.l2fwd import L2FWD_CYCLES
        route = _FusedRoute()
        route.legs = tuple(legs)
        if isinstance(app, L2Fwd):
            route.l2fwd_base = L2FWD_CYCLES / app.freq_hz
            route.drain_interval = app.drain_interval
            route.drain_unit = app._jitter.site_unit(
                HashJitter.SITE_L2FWD_DRAIN)
        else:
            route.l2fwd_base = route.drain_interval = 0.0
            route.drain_unit = None
        route.app = app
        route.app_epoch = app.epoch if app is not None else 0
        route.bridge = bridge2
        route.header = frame
        route.in_port_no = port2.port_no
        route.template = template
        route.template_key = key2
        # The microflow lookup happens post-replay, so it is keyed on the
        # pass's *output* header; members bring their own L4 ports.
        route.flow_head = flow_signature(frame3, port2.port_no)[:7]
        route.dst_port = frame3.dst_port
        route.out_ports = list(template.out_ports)
        route.model = bridge2.model
        route.share = bridge2._shares[index2]
        route.num_queues = len(bridge2._stations)
        route.num_ports = len(bridge2._ports)
        route.jitter = bridge2._jitter
        route.key_or = port2.port_no & 63
        route.station = station
        route.cycles = bridge2.model.pass_cycles(
            port2.port_class,
            bridge2._ports[template.out_ports[0]].port_class,
            template.rewrites, num_ports=len(bridge2._ports))
        route.next = onward
        if station is bridge._stations[plan.frame.flow_id
                                       % len(bridge._stations)]:
            # Members re-enter the station that serves them: a commit
            # only touches that station's own pending heap (and its
            # bridge's microflow cache, whose resolution first brings
            # the other stations up to date).
            route.lookahead = _INF
        else:
            # The registration's floor: fixed legs, the forwarder's base
            # cost and the kernel datapath's fixed wait.  Shrunk so that
            # float rounding can never make a registration late.
            floor = sum(leg for leg in legs if leg is not None)
            floor += route.l2fwd_base
            if bridge2.model.mode == DatapathMode.KERNEL:
                floor += bridge2.model.costs.fixed_latency
            route.lookahead = floor * (1.0 - 1e-6)
        return route, False

    def resource_report(self) -> ResourceReport:
        return measure_resources(self.server, self.spec.label)

    def describe(self) -> str:
        lines = [
            f"deployment {self.spec.label} scenario={self.scenario.value} "
            f"mode={self.spec.resource_mode.value}",
            self.server.describe(),
            f"ops: {self.oplog.summary()}",
        ]
        return "\n".join(lines)

    def teardown(self) -> None:
        """Undefine all VMs and release VFs (reverse of the build)."""
        for vm in list(self.tenant_vms) + list(self.vswitch_vms):
            self.hypervisor.undefine(vm)
        for port in self.server.nic.ports:
            port.detach_all()
        for core in self.server.cores.cores:
            for consumer in list(core.consumers):
                if consumer.startswith("ovs."):
                    self.server.cores.release(consumer)
        self.server.memory.release("ovs-dpdk")
        self.tenant_vms.clear()
        self.vswitch_vms.clear()
        self.oplog.record("teardown", "deployment", "all VMs undefined, VFs freed")


def plan_deployment(spec: DeploymentSpec,
                    scenario: TrafficScenario = TrafficScenario.P2V) -> OpLog:
    """Dry-run: the primitive operations a spec expands to."""
    deployment = build_deployment(spec, scenario)
    return deployment.oplog


def build_deployment(
    spec: DeploymentSpec,
    scenario: TrafficScenario = TrafficScenario.P2V,
    sim: Optional[Simulator] = None,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    server: Optional[Server] = None,
    site_id: int = 0,
) -> Deployment:
    """Assemble a deployment for ``spec`` under ``scenario``.

    ``site_id`` distinguishes servers in a multi-server cloud: it
    offsets the tenant subnets, VNIs, and the MAC pool so two servers'
    deployments never collide on the fabric.  ``seed`` changes nothing
    the build makes: every timing draw in the data plane is keyed by
    component name and frame id (:class:`~repro.sim.hashjit.HashJitter`).
    """
    spec.validate_scenario(scenario)
    builder = _Builder(spec, scenario, sim, calibration, server, site_id)
    return builder.build()


class _Builder:
    def __init__(self, spec, scenario, sim, calibration, server,
                 site_id=0):
        self.spec: DeploymentSpec = spec
        self.scenario: TrafficScenario = scenario
        self.sim = sim if sim is not None else Simulator()
        self.calibration: Calibration = calibration
        self.server = server if server is not None else Server(
            self.sim, freq_hz=calibration.cpu_freq_hz,
            name=f"dut{site_id}" if site_id else "dut",
        )
        self.hypervisor = Hypervisor(self.server)
        self.macs = MacAllocator(prefix=0x024D54 + (site_id << 8))
        self.oplog = OpLog()
        self.plan = AddressPlan(external_gw_mac=self.macs.allocate(),
                                vni_base=spec.tunnel_vni_base,
                                site_id=site_id)
        self.controller = Controller(self.plan, nic_ports=spec.nic_ports,
                                     tunneling=spec.tunneling,
                                     multi_table=spec.multi_table)

    # -- entry point ---------------------------------------------------------

    def build(self) -> Deployment:
        d = Deployment(
            spec=self.spec, scenario=self.scenario, sim=self.sim,
            server=self.server, hypervisor=self.hypervisor,
            calibration=self.calibration, controller=self.controller,
            oplog=self.oplog, plan=self.plan,
        )
        if self.spec.level.is_mts:
            self._build_mts(d)
        else:
            self._build_baseline(d)
        self.oplog.record("program-flows", "controller",
                          f"{self.controller.rules_installed} rules for "
                          f"{self.scenario.value}")
        _obs.on_deployment_built(d)
        return d

    # -- common pieces ---------------------------------------------------------

    def _dpdk_mode(self) -> DatapathMode:
        return DatapathMode.DPDK if self.spec.user_space else DatapathMode.KERNEL

    def _bridge_costs(self):
        return (self.calibration.dpdk_costs if self.spec.user_space
                else self.calibration.kernel_costs)

    def _flow_cache(self) -> MegaflowCache:
        """Every OVS-style datapath fronts its pipeline with a flow
        cache whose misses upcall to the slow path."""
        upcall = (DPDK_UPCALL_CYCLES if self.spec.user_space
                  else KERNEL_UPCALL_CYCLES)
        return MegaflowCache(upcall_cycles=upcall)

    def _define_tenant_vms(self, d: Deployment) -> None:
        for t in range(self.spec.num_tenants):
            vm_spec = VmSpec(
                name=f"tenant{t}", role=VmRole.TENANT, tenant_id=t,
                vcpus=self.spec.tenant_cores,
                memory_bytes=self.spec.vm_memory_bytes,
                hugepages_1g=self.spec.vm_hugepages_1g,
                pin_policy=PinPolicy.DEDICATED,
            )
            vm = self.hypervisor.define_vm(vm_spec)
            self.hypervisor.start(vm)
            d.tenant_vms.append(vm)
            d.tenant_arp[t] = ArpTable()
            self.oplog.record("define-vm", vm.name,
                              f"{vm_spec.vcpus} cores, 4 GiB, 1 hugepage")

    # -- MTS -------------------------------------------------------------------

    def _build_mts(self, d: Deployment) -> None:
        spec = self.spec
        self._define_vswitch_vms(d)
        self._define_tenant_vms(d)
        self._create_mts_vfs(d)
        self._build_compartment_bridges(d)
        self._install_tenant_l2fwd(d)
        tenant_vf_names = {key: vf.name for key, vf in d.tenant_vf.items()}
        for view in d.compartment_views:
            self.controller.program_compartment(view, self.scenario)
            self.controller.setup_arp(spec.arp_mode, view, d.tenant_arp)
            self.controller.install_nic_filters(
                self.server.nic, view, tenant_vf_names,
                allow_broadcast_arp=spec.arp_mode is ArpMode.PROXY)
        self.oplog.record("install-filters", "nic",
                          f"{len(self.server.nic.filters)} wildcard filters, "
                          "spoof-check on all tenant VFs")

    def _define_vswitch_vms(self, d: Deployment) -> None:
        spec = self.spec
        shared = spec.resource_mode is ResourceMode.SHARED
        containerized = spec.compartment_kind is CompartmentKind.CONTAINER
        for k in range(spec.num_compartments):
            if containerized:
                # No guest OS: a fraction of the memory, and a hugepage
                # only when the DPDK datapath needs one.
                memory = 512 * MIB
                hugepages = 1 if spec.user_space else 0
                memory = max(memory, hugepages * GIB)
            else:
                memory = spec.vm_memory_bytes
                hugepages = spec.vm_hugepages_1g
            dedicated = (not shared) or k in spec.premium_compartments
            vm_spec = VmSpec(
                name=f"vsw{k}", role=VmRole.VSWITCH,
                vcpus=1,
                memory_bytes=memory,
                hugepages_1g=hugepages,
                pin_policy=(PinPolicy.DEDICATED if dedicated
                            else PinPolicy.SHARED),
            )
            vm = self.hypervisor.define_vm(vm_spec)
            self.hypervisor.start(vm)
            d.vswitch_vms.append(vm)
            self.oplog.record(
                "define-vm" if not containerized else "define-container",
                vm.name,
                f"vswitch compartment, {'shared core' if shared else 'dedicated core'}"
            )

    def _create_mts_vfs(self, d: Deployment) -> None:
        spec = self.spec
        nic = self.server.nic
        for k in range(spec.num_compartments):
            vsw_vm = d.vswitch_vms[k]
            for p in range(spec.nic_ports):
                vf = nic.port(p).create_vf()
                nic.port(p).configure_vf(vf, self.macs.allocate(), vlan=None,
                                         spoof_check=False,
                                         kind=FunctionKind.IN_OUT)
                self.hypervisor.attach_vf(vsw_vm, vf, p)
                d.inout_vf[(k, p)] = vf
                self.oplog.record("create-vf", vf.name,
                                  f"In/Out for {vsw_vm.name}, untagged")
            for t in spec.tenants_of_compartment(k):
                for p in range(spec.nic_ports):
                    gw = nic.port(p).create_vf()
                    nic.port(p).configure_vf(gw, self.macs.allocate(),
                                             vlan=self.plan.vlan(t),
                                             spoof_check=False,
                                             kind=FunctionKind.GATEWAY)
                    self.hypervisor.attach_vf(vsw_vm, gw, p)
                    d.gw_vf[(t, p)] = gw
                    self.oplog.record(
                        "create-vf", gw.name,
                        f"Gw for tenant{t} on {vsw_vm.name}, vlan {self.plan.vlan(t)}"
                    )
        for t in range(spec.num_tenants):
            tenant_vm = d.tenant_vms[t]
            for p in range(spec.nic_ports):
                vf = nic.port(p).create_vf()
                nic.port(p).configure_vf(vf, self.macs.allocate(),
                                         vlan=self.plan.vlan(t),
                                         spoof_check=True,
                                         kind=FunctionKind.TENANT)
                self.hypervisor.attach_vf(tenant_vm, vf, p)
                d.tenant_vf[(t, p)] = vf
                self.oplog.record(
                    "create-vf", vf.name,
                    f"tenant{t} VF, vlan {self.plan.vlan(t)}, spoof-check on"
                )

    def _build_compartment_bridges(self, d: Deployment) -> None:
        spec = self.spec
        for k in range(spec.num_compartments):
            vm = d.vswitch_vms[k]
            bridge = OvsBridge(
                name=f"vsw{k}.br0",
                mode=self._dpdk_mode(),
                sim=self.sim,
                costs=self._bridge_costs(),
                cache=self._flow_cache(),
            )
            vm.install_app("bridge", bridge)
            inout_port_no: Dict[int, int] = {}
            gw_port_no: Dict[Tuple[int, int], int] = {}
            for p in range(spec.nic_ports):
                port = bridge.add_port(f"inout{p}", PortClass.VF,
                                       d.inout_vf[(k, p)].port)
                inout_port_no[p] = port.port_no
                self.oplog.record("add-port", f"vsw{k}.br0",
                                  f"inout{p} <- {d.inout_vf[(k, p)].name}")
            for t in spec.tenants_of_compartment(k):
                for p in range(spec.nic_ports):
                    port = bridge.add_port(f"gw-t{t}-p{p}", PortClass.VF,
                                           d.gw_vf[(t, p)].port)
                    gw_port_no[(t, p)] = port.port_no
                    self.oplog.record("add-port", f"vsw{k}.br0",
                                      f"gw-t{t}-p{p} <- {d.gw_vf[(t, p)].name}")
            bridge.set_compute(vm.compute)
            d.bridges.append(bridge)
            d.compartment_views.append(CompartmentView(
                index=k,
                bridge=bridge,
                tenants=spec.tenants_of_compartment(k),
                inout_port_no=inout_port_no,
                gw_port_no=gw_port_no,
                tenant_vf_mac={
                    (t, p): d.tenant_vf[(t, p)].mac
                    for t in spec.tenants_of_compartment(k)
                    for p in range(spec.nic_ports)
                },
                gw_vf_mac={
                    (t, p): d.gw_vf[(t, p)].mac
                    for t in spec.tenants_of_compartment(k)
                    for p in range(spec.nic_ports)
                },
            ))

    def _install_tenant_l2fwd(self, d: Deployment) -> None:
        """MTS tenants run the adapted DPDK l2fwd: bounce rx on one VF out
        the other, rewriting dst MAC to the gateway VF (and src MAC to the
        egress VF, passing the NIC's spoof check)."""
        spec = self.spec
        for t in range(spec.num_tenants):
            vm = d.tenant_vms[t]
            app = L2Fwd(name=f"tenant{t}.l2fwd", sim=self.sim,
                        freq_hz=self.calibration.cpu_freq_hz)
            vm.install_app("l2fwd", app)
            indices = {}
            for p in range(spec.nic_ports):
                indices[p] = app.add_port(d.tenant_vf[(t, p)].port)
            if spec.nic_ports == 1:
                app.set_route(indices[0], indices[0],
                              new_dst_mac=d.gw_vf[(t, 0)].mac,
                              new_src_mac=d.tenant_vf[(t, 0)].mac)
            else:
                app.set_route(indices[0], indices[1],
                              new_dst_mac=d.gw_vf[(t, 1)].mac,
                              new_src_mac=d.tenant_vf[(t, 1)].mac)
                app.set_route(indices[1], indices[0],
                              new_dst_mac=d.gw_vf[(t, 0)].mac,
                              new_src_mac=d.tenant_vf[(t, 0)].mac)
            self.oplog.record("install-app", vm.name,
                              "adapted DPDK l2fwd (dst-MAC rewrite)")

    # -- Baseline ----------------------------------------------------------------

    def _build_baseline(self, d: Deployment) -> None:
        spec = self.spec
        self._define_tenant_vms(d)
        bridge = OvsBridge(
            name="host.br0",
            mode=self._dpdk_mode(),
            sim=self.sim,
            costs=self._bridge_costs(),
            cache=self._flow_cache(),
        )
        d.bridges.append(bridge)

        shares = []
        if not spec.user_space:
            # The kernel Baseline's first forwarding context shares the
            # Host OS core (the paper's single-core Baseline consumes 1
            # core total; N-core Baselines consume N, so MTS is always
            # "one extra physical core relative to the Baseline").
            shares.append(self.server.cores.allocate_host_share("ovs.pmd0"))
            for i in range(1, spec.baseline_cores):
                shares.append(self.server.cores.allocate_dedicated(f"ovs.pmd{i}"))
            self.oplog.record(
                "pin-cores", "host.br0",
                f"host core + {spec.baseline_cores - 1} dedicated")
        else:
            # DPDK busy-polls: every PMD needs its own core.
            for i in range(spec.baseline_cores):
                shares.append(self.server.cores.allocate_dedicated(f"ovs.pmd{i}"))
            self.oplog.record("pin-cores", "host.br0",
                              f"{spec.baseline_cores} dedicated PMD cores")
        if spec.user_space:
            # Proportional hugepages for OVS-DPDK (paper: "a proportional
            # amount of Huge pages was allocated").
            self.server.memory.allocate("ovs-dpdk",
                                        ram_bytes=spec.baseline_cores * GIB,
                                        hugepages_1g=spec.baseline_cores)
            self.oplog.record("alloc-hugepages", "ovs-dpdk",
                              f"{spec.baseline_cores} x 1 GiB")

        phys_port_no: Dict[int, int] = {}
        for p in range(spec.nic_ports):
            pair = PortPair(f"host.phys{p}")
            d.phys_pairs[p] = pair
            port = bridge.add_port(f"phys{p}", PortClass.PHYSICAL, pair)
            phys_port_no[p] = port.port_no
            self.oplog.record("add-port", "host.br0", f"phys{p}")

        tenant_class = (PortClass.DPDK_VHOST_CLIENT if spec.user_space
                        else PortClass.VHOST)
        vhost_port_no: Dict[Tuple[int, int], int] = {}
        vhost_costs = VhostCosts(
            latency=(self.calibration.vhost_user_latency if spec.user_space
                     else self.calibration.vhost_latency))
        # Baseline tenants always get two paravirtual interfaces (in/out),
        # regardless of how many physical ports the run uses.
        sides = range(2)
        for t in range(spec.num_tenants):
            for side in sides:
                path = VhostPath(self.sim, f"vhost-t{t}-{side}", costs=vhost_costs)
                d.vhost_paths[(t, side)] = path
                port = bridge.add_port(f"vhost-t{t}-{side}", tenant_class,
                                       path.host_side)
                vhost_port_no[(t, side)] = port.port_no
                self.oplog.record("add-port", "host.br0",
                                  f"vhost-t{t}-{side} ({tenant_class.value})")
        bridge.set_compute(shares)

        self._install_tenant_baseline_apps(d)
        d.baseline_view = BaselineView(
            bridge=bridge,
            tenants=list(range(spec.num_tenants)),
            phys_port_no=phys_port_no,
            vhost_port_no=vhost_port_no,
        )
        self.controller.program_baseline(d.baseline_view, self.scenario)

    def _install_tenant_baseline_apps(self, d: Deployment) -> None:
        """Baseline tenants forward with the default Linux bridge (kernel
        runs) or DPDK l2fwd over dpdkvhostuserclient ports (Level-3)."""
        spec = self.spec
        for t in range(spec.num_tenants):
            vm = d.tenant_vms[t]
            sides = [0, 1]
            if spec.user_space:
                app = L2Fwd(name=f"tenant{t}.l2fwd", sim=self.sim,
                            freq_hz=self.calibration.cpu_freq_hz)
                indices = {s: app.add_port(d.vhost_paths[(t, s)].guest_side)
                           for s in sides}
                if len(sides) == 1:
                    app.set_route(indices[0], indices[0],
                                  new_dst_mac=self.plan.external_gw_mac)
                else:
                    app.set_route(indices[0], indices[1],
                                  new_dst_mac=self.plan.external_gw_mac)
                    app.set_route(indices[1], indices[0],
                                  new_dst_mac=self.plan.external_gw_mac)
                vm.install_app("l2fwd", app)
                self.oplog.record("install-app", vm.name, "DPDK l2fwd (vhost-user)")
            else:
                app = LinuxBridge(name=f"tenant{t}.br0", sim=self.sim,
                                  freq_hz=self.calibration.cpu_freq_hz)
                for s in sides:
                    app.add_port(d.vhost_paths[(t, s)].guest_side)
                vm.install_app("linux-bridge", app)
                self.oplog.record("install-app", vm.name, "default Linux bridge")

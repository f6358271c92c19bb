"""Runtime orchestration: hot-add, remove, and migrate tenants.

The paper sells MTS as *incrementally deployable*: "we can simply use
any desired vswitch, deploy it into a vswitch VM, configure and attach
VFs ... and start processing packets right away", and its discussion
section raises tenant/VM migration.  This module implements that
control-plane lifecycle on a **running** MTS deployment:

- :meth:`MtsOrchestrator.add_tenant` provisions a new tenant end to
  end -- VM, per-port VFs (spoof-checked tenant VF + VLAN-tagged
  gateway VFs on a chosen compartment), bridge ports, the adapted
  l2fwd, flow rules, NIC filters, the static ARP entry -- while other
  tenants keep forwarding.
- :meth:`remove_tenant` withdraws everything in reverse order.
- :meth:`migrate_tenant` re-homes a tenant's vswitch to another
  compartment (e.g. after a zone change).  SR-IOV offers no live
  migration (§6), so the move incurs measurable downtime: each
  control-plane primitive costs :data:`CONTROL_OP_LATENCY` of
  simulated time, rules are withdrawn at the start and reinstalled at
  the end, and frames in between are dropped -- exactly what an
  operator would measure.

Only p2v connectivity (the workload topology) is programmed for
runtime-added tenants; v2v chains are static experiment wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import billing as _billing
from repro.core.controller import CompartmentView
from repro.core.deployment import Deployment
from repro.core.spec import ArpMode
from repro.errors import ConfigurationError
from repro.host.hypervisor import PinPolicy, VmSpec
from repro.host.vm import Vm, VmRole
from repro.sriov.filters import FilterAction, WildcardFilter
from repro.sriov.vf import FunctionKind
from repro.units import MSEC
from repro.vswitch.datapath import PortClass
from repro.vswitch.l2fwd import L2Fwd

#: Cost of one control-plane primitive (API round trip + device
#: reconfiguration).  Real clouds see single-digit milliseconds.
CONTROL_OP_LATENCY = 2.0 * MSEC

#: Rebooting a crashed vswitch VM (kernel boot + OVS start + flow
#: re-installation by the controller).
VSWITCH_RESTART_LATENCY = 1.5


def _fault_noop(op: str) -> None:
    from repro import obs
    obs.REGISTRY.counter(
        "fault_noop_operations_total",
        "redundant fault operations ignored", labels=("op",)
    ).labels(op=op).inc()


def crash_bridge(bridge) -> dict:
    """Stop a vswitch forwarding: its ports blackhole (the process/VM
    died; frames DMA'd to its VFs land in dead rings).  Returns the
    state :func:`restore_bridge` needs.

    Idempotent: crashing an already-crashed bridge is a counted no-op
    (fault schedules may overlap an ongoing outage) that returns the
    original saved state.  Blackholed frames are tallied on
    ``bridge.fault_blackhole_drops`` so chaos runs can close their
    packet-conservation books."""
    if bridge is None or not hasattr(bridge, "ports"):
        raise ConfigurationError(f"not a crashable bridge: {bridge!r}")
    existing = getattr(bridge, "_fault_saved", None)
    if existing is not None:
        _fault_noop("crash")
        return existing
    if not hasattr(bridge, "fault_blackhole_drops"):
        bridge.fault_blackhole_drops = 0
    saved = {}
    saved_batch = {}
    for port in bridge.ports():
        saved[port.port_no] = port
        saved_batch[port.port_no] = port.pair.rx._batch_handler

        def _blackhole(frame, _bridge=bridge) -> None:
            _bridge.fault_blackhole_drops += 1
            if _billing.METER.enabled:
                _billing.METER.fault_drop(getattr(frame, "tenant_id", None))

        def _blackhole_batch(batch, _bridge=bridge) -> None:
            n = len(batch)
            _bridge.fault_blackhole_drops += n
            if _billing.METER.enabled:
                tenant = getattr(batch.frame, "tenant_id", None)
                for _ in range(n):
                    _billing.METER.fault_drop(tenant)

        port.pair.rx.connect(_blackhole)
        # The batched fast path delivers through the batch handler when
        # one is connected; a dead ring swallows those frames too.
        port.pair.rx.connect_batch(_blackhole_batch)
    bridge._fault_saved = saved
    bridge._fault_saved_batch = saved_batch
    return saved


def restore_bridge(bridge, saved: Optional[dict] = None) -> None:
    """Reattach a recovered vswitch to its ports.

    Idempotent: restoring a healthy bridge is a counted no-op.  The
    port map recorded by :func:`crash_bridge` on the bridge itself is
    authoritative; the ``saved`` argument is accepted for backward
    compatibility with callers that thread it through."""
    if bridge is None or not hasattr(bridge, "ports"):
        raise ConfigurationError(f"not a restorable bridge: {bridge!r}")
    current = getattr(bridge, "_fault_saved", None)
    if current is None:
        current = saved  # legacy caller crashed before this change
        if not current:
            _fault_noop("restore")
            return
    saved_batch = getattr(bridge, "_fault_saved_batch", None) or {}
    for port in current.values():
        port.pair.rx.connect(
            lambda frame, p=port: bridge._ingress(p, frame))
        port.pair.rx._batch_handler = saved_batch.get(port.port_no)
    bridge._fault_saved = None
    bridge._fault_saved_batch = None


@dataclass
class MigrationRecord:
    tenant_id: int
    source: int
    target: int
    started_at: float
    completed_at: float

    @property
    def downtime(self) -> float:
        return self.completed_at - self.started_at


class MtsOrchestrator:
    """Lifecycle operations on a built MTS deployment."""

    def __init__(self, deployment: Deployment) -> None:
        if not deployment.spec.level.is_mts:
            raise ConfigurationError(
                "runtime tenant lifecycle requires an MTS deployment "
                "(the Baseline has no compartments to orchestrate)")
        self.deployment = deployment
        self._next_tenant = deployment.spec.num_tenants
        #: Live tenant -> compartment map, shared with the deployment so
        #: that dataplane addressing (ingress_dmac_for_tenant etc.)
        #: follows hot-adds and migrations.
        self.tenant_compartment: Dict[int, int] = deployment.runtime_compartment
        for t in range(deployment.spec.num_tenants):
            self.tenant_compartment[t] = deployment.spec.compartment_of_tenant(t)
        self.migrations: List[MigrationRecord] = []
        self._crashed: Dict[int, dict] = {}

    # -- queries ---------------------------------------------------------

    def tenants(self) -> List[int]:
        return sorted(self.tenant_compartment)

    def compartment_of(self, tenant_id: int) -> int:
        return self.tenant_compartment[tenant_id]

    def least_loaded_compartment(self) -> int:
        load: Dict[int, int] = {k: 0 for k in
                                range(len(self.deployment.vswitch_vms))}
        for compartment in self.tenant_compartment.values():
            load[compartment] += 1
        return min(load, key=lambda k: (load[k], k))

    # -- add -----------------------------------------------------------------

    def add_tenant(self, compartment: Optional[int] = None) -> int:
        """Provision a new tenant; returns its id."""
        d = self.deployment
        if compartment is None:
            compartment = self.least_loaded_compartment()
        if not 0 <= compartment < len(d.vswitch_vms):
            raise ConfigurationError(f"no compartment {compartment}")
        tenant = self._next_tenant
        self._next_tenant += 1

        vm = d.hypervisor.define_vm(VmSpec(
            name=f"tenant{tenant}", role=VmRole.TENANT, tenant_id=tenant,
            vcpus=d.spec.tenant_cores,
            memory_bytes=d.spec.vm_memory_bytes,
            hugepages_1g=d.spec.vm_hugepages_1g,
            pin_policy=PinPolicy.DEDICATED,
        ))
        d.hypervisor.start(vm)
        while len(d.tenant_vms) <= tenant:
            d.tenant_vms.append(None)  # type: ignore[arg-type]
        d.tenant_vms[tenant] = vm
        from repro.net.arp import ArpTable
        d.tenant_arp[tenant] = ArpTable()
        d.oplog.record("define-vm", vm.name, "runtime tenant add")

        self._provision_vfs(tenant, compartment, vm)
        self._install_l2fwd(tenant, vm)
        view = d.compartment_views[compartment]
        d.controller.program_single_tenant(view, tenant)
        self._install_filters(tenant, view)
        self._setup_arp(tenant, view)
        self.tenant_compartment[tenant] = compartment
        d.oplog.record("add-tenant", f"tenant{tenant}",
                       f"compartment {compartment}")
        return tenant

    def _provision_vfs(self, tenant: int, compartment: int, vm: Vm) -> None:
        d = self.deployment
        macs = d.plan  # address plan provides vlan; MACs from a fresh pool
        from repro.net.addresses import MacAllocator
        allocator = getattr(d, "_runtime_macs", None)
        if allocator is None:
            allocator = MacAllocator(prefix=0x02_4D_55)  # distinct pool
            d._runtime_macs = allocator  # type: ignore[attr-defined]
        vsw_vm = d.vswitch_vms[compartment]
        view = d.compartment_views[compartment]
        for p in range(d.spec.nic_ports):
            port = d.server.nic.port(p)
            gw = port.create_vf()
            port.configure_vf(gw, allocator.allocate(),
                              vlan=macs.vlan(tenant), spoof_check=False,
                              kind=FunctionKind.GATEWAY)
            d.hypervisor.attach_vf(vsw_vm, gw, p)
            d.gw_vf[(tenant, p)] = gw
            bridge_port = view.bridge.add_port(f"gw-t{tenant}-p{p}",
                                               PortClass.VF, gw.port)
            view.gw_port_no[(tenant, p)] = bridge_port.port_no
            view.gw_vf_mac[(tenant, p)] = gw.mac

            tvf = port.create_vf()
            port.configure_vf(tvf, allocator.allocate(),
                              vlan=macs.vlan(tenant), spoof_check=True,
                              kind=FunctionKind.TENANT)
            d.hypervisor.attach_vf(vm, tvf, p)
            d.tenant_vf[(tenant, p)] = tvf
            view.tenant_vf_mac[(tenant, p)] = tvf.mac
            d.oplog.record("create-vf", tvf.name,
                           f"runtime tenant{tenant} VF, port {p}")
        if tenant not in view.tenants:
            view.tenants.append(tenant)

    def _install_l2fwd(self, tenant: int, vm: Vm) -> None:
        d = self.deployment
        app = L2Fwd(name=f"tenant{tenant}.l2fwd", sim=d.sim,
                    freq_hz=d.calibration.cpu_freq_hz)
        indices = {p: app.add_port(d.tenant_vf[(tenant, p)].port)
                   for p in range(d.spec.nic_ports)}
        if d.spec.nic_ports == 1:
            app.set_route(indices[0], indices[0],
                          new_dst_mac=d.gw_vf[(tenant, 0)].mac,
                          new_src_mac=d.tenant_vf[(tenant, 0)].mac)
        else:
            app.set_route(indices[0], indices[1],
                          new_dst_mac=d.gw_vf[(tenant, 1)].mac,
                          new_src_mac=d.tenant_vf[(tenant, 1)].mac)
            app.set_route(indices[1], indices[0],
                          new_dst_mac=d.gw_vf[(tenant, 0)].mac,
                          new_src_mac=d.tenant_vf[(tenant, 0)].mac)
        vm.install_app("l2fwd", app)

    def _install_filters(self, tenant: int, view: CompartmentView) -> None:
        d = self.deployment
        from repro.net.addresses import BROADCAST_MAC
        for p in range(d.spec.nic_ports):
            vf = d.tenant_vf[(tenant, p)]
            d.server.nic.install_filter(WildcardFilter(
                action=FilterAction.ALLOW, priority=10, ingress_vf=vf.name,
                dst_mac=view.gw_vf_mac[(tenant, p)],
                name=f"allow-t{tenant}-gw-p{p}"))
            if d.spec.arp_mode is ArpMode.PROXY:
                d.server.nic.install_filter(WildcardFilter(
                    action=FilterAction.ALLOW, priority=10,
                    ingress_vf=vf.name, dst_mac=BROADCAST_MAC,
                    name=f"allow-t{tenant}-arp-p{p}"))
            d.server.nic.install_filter(WildcardFilter(
                action=FilterAction.DROP, priority=5, ingress_vf=vf.name,
                name=f"drop-t{tenant}-rest-p{p}"))

    def _setup_arp(self, tenant: int, view: CompartmentView) -> None:
        d = self.deployment
        if d.spec.arp_mode is ArpMode.STATIC:
            d.tenant_arp[tenant].add_static(
                d.plan.tenant_gw_ip(tenant), view.gw_vf_mac[(tenant, 0)])
        else:
            responder = d.controller.proxy_arp.get(view.index)
            if responder is not None:
                responder.install(d.plan.tenant_gw_ip(tenant),
                                  view.gw_vf_mac[(tenant, 0)])
                responder.install(d.plan.tenant_ip(tenant),
                                  view.tenant_vf_mac[(tenant, 0)])

    # -- remove -----------------------------------------------------------------

    def remove_tenant(self, tenant_id: int) -> None:
        """Withdraw a tenant completely (reverse of :meth:`add_tenant`)."""
        d = self.deployment
        compartment = self.tenant_compartment.pop(tenant_id, None)
        if compartment is None:
            raise ConfigurationError(f"no such tenant: {tenant_id}")
        view = d.compartment_views[compartment]
        d.controller.unprogram_tenant(view, tenant_id)
        self._remove_gateway(tenant_id, view)
        for p in range(d.spec.nic_ports):
            vf = d.tenant_vf.pop((tenant_id, p), None)
            if vf is not None:
                d.server.nic.port(p).destroy_vf(vf)
            view.tenant_vf_mac.pop((tenant_id, p), None)
            d.server.nic.filters.remove(f"allow-t{tenant_id}-gw-p{p}")
            d.server.nic.filters.remove(f"drop-t{tenant_id}-rest-p{p}")
        vm = d.tenant_vms[tenant_id]
        if vm is not None:
            d.hypervisor.undefine(vm)
            d.tenant_vms[tenant_id] = None  # type: ignore[call-overload]
        d.tenant_arp.pop(tenant_id, None)
        if tenant_id in view.tenants:
            view.tenants.remove(tenant_id)
        d.oplog.record("remove-tenant", f"tenant{tenant_id}", "")

    def _remove_gateway(self, tenant_id: int, view: CompartmentView) -> None:
        d = self.deployment
        for p in range(d.spec.nic_ports):
            port_no = view.gw_port_no.pop((tenant_id, p), None)
            if port_no is not None:
                view.bridge.del_port(port_no)
            gw = d.gw_vf.pop((tenant_id, p), None)
            if gw is not None:
                d.server.nic.port(p).destroy_vf(gw)
            view.gw_vf_mac.pop((tenant_id, p), None)

    # -- migrate -----------------------------------------------------------------

    def migrate_tenant(self, tenant_id: int, target: int) -> MigrationRecord:
        """Re-home a tenant's vswitch side to another compartment.

        The tenant VM and its VFs stay; the gateway VFs and flow rules
        move.  Connectivity is down while control-plane primitives run
        (SR-IOV has no live migration, §6); completion is scheduled on
        the simulator and the record carries the measured downtime.
        """
        d = self.deployment
        source = self.tenant_compartment.get(tenant_id)
        if source is None:
            raise ConfigurationError(f"no such tenant: {tenant_id}")
        if not 0 <= target < len(d.vswitch_vms):
            raise ConfigurationError(f"no compartment {target}")
        if target == source:
            raise ConfigurationError("tenant already lives there")

        started = d.sim.now
        source_view = d.compartment_views[source]
        # Connectivity drops now: withdraw rules and the old gateway.
        d.controller.unprogram_tenant(source_view, tenant_id)
        self._remove_gateway(tenant_id, source_view)
        if tenant_id in source_view.tenants:
            source_view.tenants.remove(tenant_id)

        # Control-plane work: 2 VF creations + 2 bridge ports + rules +
        # l2fwd re-route, per NIC port.
        ops = 3 * d.spec.nic_ports + 2
        downtime = ops * CONTROL_OP_LATENCY
        record = MigrationRecord(tenant_id=tenant_id, source=source,
                                 target=target, started_at=started,
                                 completed_at=started + downtime)
        # The chain is rewiring until completion lands: hold the
        # batched fast path onto the per-frame oracle for the window.
        d.hold_oracle("lifecycle")
        d.sim.call_later(downtime, self._complete_migration, tenant_id,
                         target)
        self.migrations.append(record)
        d.oplog.record("migrate-tenant", f"tenant{tenant_id}",
                       f"{source} -> {target}, downtime {downtime * 1e3:.0f} ms")
        return record

    def _complete_migration(self, tenant_id: int, target: int) -> None:
        d = self.deployment
        view = d.compartment_views[target]
        vsw_vm = d.vswitch_vms[target]
        from repro.net.addresses import MacAllocator
        allocator = getattr(d, "_runtime_macs", None)
        if allocator is None:
            allocator = MacAllocator(prefix=0x02_4D_55)
            d._runtime_macs = allocator  # type: ignore[attr-defined]
        for p in range(d.spec.nic_ports):
            port = d.server.nic.port(p)
            gw = port.create_vf()
            port.configure_vf(gw, allocator.allocate(),
                              vlan=d.plan.vlan(tenant_id), spoof_check=False,
                              kind=FunctionKind.GATEWAY)
            d.hypervisor.attach_vf(vsw_vm, gw, p)
            d.gw_vf[(tenant_id, p)] = gw
            bridge_port = view.bridge.add_port(f"gw-t{tenant_id}-p{p}",
                                               PortClass.VF, gw.port)
            view.gw_port_no[(tenant_id, p)] = bridge_port.port_no
            view.gw_vf_mac[(tenant_id, p)] = gw.mac
            view.tenant_vf_mac[(tenant_id, p)] = d.tenant_vf[(tenant_id, p)].mac
        view.tenants.append(tenant_id)
        d.controller.program_single_tenant(view, tenant_id)
        # Re-route the tenant's l2fwd at the new gateway MACs, and
        # refresh the spoof-check filters and the ARP binding.
        vm = d.tenant_vms[tenant_id]
        self._reroute_l2fwd(tenant_id, vm)
        for p in range(d.spec.nic_ports):
            d.server.nic.filters.remove(f"allow-t{tenant_id}-gw-p{p}")
            d.server.nic.filters.remove(f"drop-t{tenant_id}-rest-p{p}")
        self._install_filters(tenant_id, view)
        self._setup_arp(tenant_id, view)
        self.tenant_compartment[tenant_id] = target
        d.release_oracle("lifecycle")

    # -- fault injection ----------------------------------------------------

    def crash_compartment(self, k: int) -> None:
        """Kill a vswitch VM (fault-isolation experiments): frames for
        its tenants blackhole until :meth:`restart_compartment`."""
        d = self.deployment
        if k in self._crashed:
            raise ConfigurationError(f"compartment {k} already down")
        if not 0 <= k < len(d.vswitch_vms):
            raise ConfigurationError(f"no compartment {k}")
        self._crashed[k] = crash_bridge(d.bridges[k])
        d.hypervisor.stop(d.vswitch_vms[k])
        d.oplog.record("crash", f"vsw{k}", "fault injection")

    def restart_compartment(self, k: int) -> float:
        """Reboot a crashed vswitch VM; forwarding resumes after
        :data:`VSWITCH_RESTART_LATENCY` of simulated time.  Returns the
        completion timestamp."""
        d = self.deployment
        saved = self._crashed.pop(k, None)
        if saved is None:
            raise ConfigurationError(f"compartment {k} is not down")
        completes_at = d.sim.now + VSWITCH_RESTART_LATENCY

        def _up() -> None:
            restore_bridge(d.bridges[k], saved)
            d.vswitch_vms[k].state = d.vswitch_vms[k].state.__class__.RUNNING
            d.oplog.record("restart", f"vsw{k}", "recovered")

        d.sim.call_later(VSWITCH_RESTART_LATENCY, _up)
        return completes_at

    def is_down(self, k: int) -> bool:
        return k in self._crashed

    def _reroute_l2fwd(self, tenant_id: int, vm: Vm) -> None:
        d = self.deployment
        app: L2Fwd = vm.app("l2fwd")
        if d.spec.nic_ports == 1:
            app.set_route(0, 0, new_dst_mac=d.gw_vf[(tenant_id, 0)].mac,
                          new_src_mac=d.tenant_vf[(tenant_id, 0)].mac)
        else:
            app.set_route(0, 1, new_dst_mac=d.gw_vf[(tenant_id, 1)].mac,
                          new_src_mac=d.tenant_vf[(tenant_id, 1)].mac)
            app.set_route(1, 0, new_dst_mac=d.gw_vf[(tenant_id, 0)].mac,
                          new_src_mac=d.tenant_vf[(tenant_id, 0)].mac)

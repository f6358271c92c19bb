"""A libvirt-like VM lifecycle API.

The paper's framework drives libvirt/QEMU; this module provides the same
verbs against the simulated server: define a VM from a spec, pin its
vCPUs (dedicated or stacked on the shared vswitch core), back it with
RAM + one 1 GB hugepage, attach SR-IOV VFs, start/stop/undefine.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.errors import ConfigurationError
from repro.host.server import Server
from repro.host.vm import Vm, VmRole, VmState
from repro.sriov.vf import VirtualFunction
from repro.units import GIB


class PinPolicy(Enum):
    """How a VM's vCPUs map onto physical cores."""

    DEDICATED = "dedicated"    # one exclusive physical core per vCPU
    SHARED = "shared"          # stacked onto the shared vswitch core
    HOST = "host"              # runs on the Host OS core (Baseline vswitch)


@dataclass
class VmSpec:
    """Declarative VM definition, libvirt-domain style."""

    name: str
    role: VmRole
    vcpus: int = 1
    memory_bytes: int = 4 * GIB
    hugepages_1g: int = 1
    pin_policy: PinPolicy = PinPolicy.DEDICATED
    tenant_id: Optional[int] = None


class Hypervisor:
    """Creates and tears down VMs on a :class:`Server`."""

    def __init__(self, server: Server) -> None:
        self.server = server

    def define_vm(self, spec: VmSpec) -> Vm:
        """Allocate the VM's resources and register it (state: defined)."""
        if spec.vcpus < 1:
            raise ConfigurationError(f"{spec.name}: vcpus must be >= 1")
        if spec.name in self.server.vms:
            raise ConfigurationError(f"VM {spec.name!r} already defined")

        vm = Vm(name=spec.name, role=spec.role, tenant_id=spec.tenant_id)
        vm.memory = self.server.memory.allocate(
            spec.name, ram_bytes=spec.memory_bytes, hugepages_1g=spec.hugepages_1g
        )
        try:
            for vcpu in range(spec.vcpus):
                consumer = f"{spec.name}.vcpu{vcpu}"
                if spec.pin_policy == PinPolicy.DEDICATED:
                    share = self.server.cores.allocate_dedicated(consumer)
                elif spec.pin_policy == PinPolicy.SHARED:
                    share = self.server.cores.allocate_shared(consumer)
                else:
                    share = self.server.cores.allocate_host_share(consumer)
                vm.compute.append(share)
        except Exception:
            # Roll back partial allocations so a failed define leaves the
            # server clean.
            self._release_resources(vm)
            raise
        self.server.register_vm(vm)
        return vm

    def attach_vf(self, vm: Vm, vf: VirtualFunction, nic_port_index: int) -> None:
        """PCI-passthrough a VF into the VM."""
        port = self.server.nic.port(nic_port_index)
        port.attach_vf(vf, owner=vm.name)
        vm.attach_vf(vf)

    def start(self, vm: Vm) -> None:
        if vm.state == VmState.RUNNING:
            raise ConfigurationError(f"{vm.name} already running")
        vm.state = VmState.RUNNING

    def stop(self, vm: Vm) -> None:
        vm.state = VmState.STOPPED

    def undefine(self, vm: Vm) -> None:
        """Stop the VM and release all its resources."""
        vm.state = VmState.STOPPED
        self._release_resources(vm)
        for vf in vm.vfs:
            vf.attached_to = None
        vm.vfs.clear()
        self.server.unregister_vm(vm.name)

    def _release_resources(self, vm: Vm) -> None:
        for share in vm.compute:
            self.server.cores.release(share.consumer)
        vm.compute.clear()
        if vm.memory is not None:
            self.server.memory.release(vm.name)
            vm.memory = None

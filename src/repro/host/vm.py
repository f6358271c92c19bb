"""Virtual machines: tenant VMs and vswitch VMs.

A VM is a named container of resources: vCPU pins (compute shares),
a memory allocation, attached SR-IOV VFs, and the network application
running inside it (a vswitch bridge, a DPDK l2fwd forwarder, a Linux
bridge, or a workload server).  The VM itself has no dataplane logic;
it is the unit of compartmentalization the MTS security argument is
built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

from repro import obs as _obs
from repro.host.cpu import ComputeShare
from repro.host.memory import MemoryAllocation
from repro.sriov.vf import VirtualFunction


class VmRole(Enum):
    TENANT = "tenant"
    VSWITCH = "vswitch"


class VmState(Enum):
    DEFINED = "defined"
    RUNNING = "running"
    STOPPED = "stopped"


@dataclass
class Vm:
    """One virtual machine on the DUT server."""

    name: str
    role: VmRole
    tenant_id: Optional[int] = None
    state: VmState = VmState.DEFINED
    compute: List[ComputeShare] = field(default_factory=list)
    memory: Optional[MemoryAllocation] = None
    vfs: List[VirtualFunction] = field(default_factory=list)
    apps: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_running(self) -> bool:
        return self.state == VmState.RUNNING

    def attach_vf(self, vf: VirtualFunction) -> None:
        self.vfs.append(vf)
        _obs.REGISTRY.counter(
            "vm_vfs_attached_total", "VFs handed to VMs, by VM role",
            labels=("role",)).labels(role=self.role.value).inc()

    def install_app(self, name: str, app: Any) -> None:
        """Register the application running inside the VM (vswitch,
        l2fwd, workload server...)."""
        if name in self.apps:
            raise ValueError(f"app {name!r} already installed in {self.name}")
        self.apps[name] = app
        _obs.REGISTRY.counter(
            "vm_apps_installed_total", "applications installed, by VM role",
            labels=("role",)).labels(role=self.role.value).inc()

    def app(self, name: str) -> Any:
        return self.apps[name]

    def num_cores(self) -> int:
        """Distinct physical cores this VM's vCPUs are pinned to."""
        return len({share.core.core_id for share in self.compute})

    def describe(self) -> str:
        cores = sorted({s.core.core_id for s in self.compute})
        vfs = ", ".join(vf.name for vf in self.vfs) or "none"
        mem = (f"{self.memory.ram_bytes // 2**30} GiB"
               f" ({self.memory.hugepages_1g} hugepage)") if self.memory else "none"
        return (
            f"{self.name} [{self.role.value}] state={self.state.value} "
            f"cores={cores} mem={mem} vfs=[{vfs}]"
        )

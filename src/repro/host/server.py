"""The physical server (device under test).

Mirrors the paper's DUT: a Xeon E5-2683 v4 @ 2.10 GHz (16 physical
cores), 64 GB RAM, and a dual-port 10G SR-IOV NIC.  The server owns the
core pool, the memory pool and the NIC; the hypervisor carves VMs out of
it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.host.cpu import CorePool, DEFAULT_FREQ_HZ
from repro.host.memory import HostMemory
from repro.host.vm import Vm
from repro.sim.kernel import Simulator
from repro.sriov.nic import SriovNic
from repro.units import GIB


class Server:
    """A physical host with cores, memory and one SR-IOV NIC."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "dut",
        num_cores: int = 16,
        freq_hz: float = DEFAULT_FREQ_HZ,
        memory_bytes: int = 64 * GIB,
        hugepages_1g: int = 16,
        nic: Optional[SriovNic] = None,
        nic_ports: int = 2,
    ) -> None:
        self.sim = sim
        self.name = name
        self.cores = CorePool(num_cores=num_cores, freq_hz=freq_hz)
        self.memory = HostMemory(total_bytes=memory_bytes, hugepages_1g=hugepages_1g)
        self.nic = nic if nic is not None else SriovNic(sim, num_ports=nic_ports)
        self.vms: Dict[str, Vm] = {}

    @property
    def freq_hz(self) -> float:
        return self.cores.cores[0].freq_hz

    def register_vm(self, vm: Vm) -> None:
        if vm.name in self.vms:
            raise ValueError(f"VM name collision: {vm.name}")
        self.vms[vm.name] = vm

    def unregister_vm(self, name: str) -> None:
        self.vms.pop(name, None)

    def vm(self, name: str) -> Vm:
        return self.vms[name]

    def describe(self) -> str:
        lines = [
            f"server {self.name}: {self.cores.num_cores} cores @ "
            f"{self.freq_hz / 1e9:.2f} GHz, "
            f"{self.memory.total_bytes // 2**30} GiB RAM, "
            f"{len(self.nic.ports)}-port SR-IOV NIC",
        ]
        for vm in self.vms.values():
            lines.append("  " + vm.describe())
        return "\n".join(lines)

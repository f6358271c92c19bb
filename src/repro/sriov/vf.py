"""Virtual and physical functions of the SR-IOV NIC.

Only the Host OS driver (the hypervisor, in our model the orchestrator
acting through :class:`repro.sriov.nic.SriovNic`) may configure a VF's
MAC address, VLAN tag or spoof-check bit; the VM attached to a VF gets a
restricted handle that can only send and receive.  This asymmetry is what
lets the NIC act as a reference monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.net.addresses import MacAddress
from repro.net.interfaces import PortPair


class FunctionKind(Enum):
    """Role a function plays in an MTS deployment (paper Fig. 2)."""

    PF = "pf"
    IN_OUT = "in_out"   # vswitch VM <-> external fabric
    GATEWAY = "gw"      # vswitch VM <-> tenant VMs (VLAN-tagged)
    TENANT = "tenant"   # tenant VM's own VF
    UNASSIGNED = "unassigned"


@dataclass
class VfStats:
    rx_frames: int = 0
    tx_frames: int = 0
    rx_bytes: int = 0
    tx_bytes: int = 0
    spoof_drops: int = 0
    filter_drops: int = 0
    rate_limit_drops: int = 0


@dataclass
class VirtualFunction:
    """One SR-IOV function: identity, security config, attachment point.

    ``vlan`` follows VST ("VLAN switch tagging") semantics: frames from
    the VF are tagged with ``vlan`` on NIC ingress and the tag is popped
    on delivery, so the attached VM never sees tags.  ``vlan=None`` puts
    the function in the untagged domain (used for In/Out VFs and the PF).
    """

    index: int
    pf_index: int
    kind: FunctionKind = FunctionKind.UNASSIGNED
    mac: Optional[MacAddress] = None
    vlan: Optional[int] = None
    spoof_check: bool = False
    trusted: bool = False
    #: Hardware ingress rate limit (SR-IOV per-VF QoS; ``ip link set
    #: ... vf N max_tx_rate``).  ``None`` = unlimited.  Enforced by the
    #: NIC as a token bucket at VF ingress.
    max_rate_pps: Optional[float] = None
    attached_to: Optional[str] = None  # VM name, or "host" for the PF
    stats: VfStats = field(default_factory=VfStats)
    port: PortPair = field(init=False)

    def __post_init__(self) -> None:
        # Both name forms are fixed by (pf_index, index); precompute them
        # so the hot-path ``name`` property is a plain attribute pick
        # (it keys the NIC filter memo on every ingress frame).
        self._pf_name = f"pf{self.pf_index}"
        self._vf_name = f"pf{self.pf_index}vf{self.index}"
        self.port = PortPair(self.name)

    @property
    def name(self) -> str:
        if self.kind == FunctionKind.PF:
            return self._pf_name
        return self._vf_name

    @property
    def configured(self) -> bool:
        """A function is usable once it has a MAC and an owner."""
        return self.mac is not None and self.attached_to is not None

    def describe(self) -> str:
        vlan = f" vlan={self.vlan}" if self.vlan is not None else ""
        spoof = " spoofchk" if self.spoof_check else ""
        return (
            f"{self.name} kind={self.kind.value} mac={self.mac}{vlan}{spoof}"
            f" owner={self.attached_to}"
        )

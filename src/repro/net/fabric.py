"""Leaf/ToR/spine fabric switches interconnecting servers.

The paper's chains describe traffic "entering the server through the
NIC fabric port" -- this is the other side of that port: L2 switches
with MAC learning plus controller-installed static entries (the
centralized controller knows every server's In/Out VF MACs, so it
programs them like an EVPN control plane would; In/Out MACs never
appear as frame *sources*, hence cannot be learned).

One :class:`FabricSwitch` is the original single-leaf testbed; the
fabric layer composes several of them into a two-tier ToR/spine tree
via :meth:`FabricSwitch.trunk` (see ``repro.fabric.topology`` for the
capacity model of the same tree).

Ports are wired with :class:`~repro.net.link.Link` objects; frames to
unknown destinations flood.  Every port keeps rx/tx/drop counters so
fabric hot spots are observable (``repro.obs.harvest_fabric`` exports
them through the metrics registry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.net.addresses import MacAddress
from repro.net.interfaces import Port
from repro.net.link import Link
from repro.net.packet import Frame
from repro.sim.kernel import Simulator
from repro.units import GBPS, USEC

#: Store-and-forward latency of a fabric switch.
FABRIC_LATENCY = 0.5 * USEC


@dataclass
class _FabricPort:
    index: int
    link: Optional[Link] = None  # towards the attached device
    rx_frames: int = 0
    tx_frames: int = 0
    #: Frames this port should have transmitted but could not (no link
    #: attached / unwired unicast destination).
    tx_drops: int = 0


class FabricSwitch:
    """An L2 switch with learning + static (controller) entries."""

    def __init__(self, sim: Simulator, num_ports: int = 8,
                 name: str = "leaf0") -> None:
        if num_ports < 2:
            raise ValueError("a fabric switch needs at least two ports")
        self.sim = sim
        self.name = name
        self.ports: List[_FabricPort] = [_FabricPort(i)
                                         for i in range(num_ports)]
        self._static: Dict[MacAddress, int] = {}
        self._learned: Dict[MacAddress, int] = {}
        self.floods = 0
        self.forwarded = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, port_index: int, bandwidth_bps: float = 10 * GBPS):
        """Create the switch side of a port: returns ``(rx_port, set_link)``
        where ``rx_port`` is where the device's link should deliver and
        ``set_link`` attaches the switch's outbound link to the device."""
        port = self.ports[port_index]
        rx = Port(f"{self.name}.p{port_index}",
                  lambda frame, i=port_index: self._ingress(i, frame))

        def set_link(link: Link) -> None:
            port.link = link

        return rx, set_link

    def release(self) -> None:
        """Release every port's outbound link: its far end is a port
        whose handler calls back into the device there -- another
        switch, on a trunk."""
        for port in self.ports:
            if port.link is not None:
                port.link.release()

    def trunk(self, my_port: int, peer: "FabricSwitch", peer_port: int,
              bandwidth_bps: float = 40 * GBPS) -> Tuple[Link, Link]:
        """Interconnect two switches (e.g. a ToR uplink to a spine):
        one link per direction; returns ``(towards_peer, towards_self)``."""
        if peer is self:
            raise ValueError("a switch cannot trunk to itself")
        my_rx, my_set = self.attach(my_port)
        peer_rx, peer_set = peer.attach(peer_port)
        up = Link(self.sim, peer_rx, bandwidth_bps=bandwidth_bps,
                  name=f"trunk.{self.name}.p{my_port}-{peer.name}")
        down = Link(self.sim, my_rx, bandwidth_bps=bandwidth_bps,
                    name=f"trunk.{peer.name}.p{peer_port}-{self.name}")
        my_set(up)
        peer_set(down)
        return up, down

    # -- control plane ----------------------------------------------------

    def install_static(self, mac: MacAddress, port_index: int) -> None:
        """Controller-programmed entry (e.g. a server's In/Out VF MAC)."""
        if not 0 <= port_index < len(self.ports):
            raise ValueError(f"no port {port_index}")
        self._static[mac] = port_index

    # -- observability -----------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Cumulative switch counters, flat and JSON-safe (the delta
        harvest in ``repro.obs`` keys its registry export off these)."""
        totals: Dict[str, float] = {
            "floods": self.floods,
            "forwarded": self.forwarded,
        }
        for port in self.ports:
            totals[f"p{port.index}.rx"] = port.rx_frames
            totals[f"p{port.index}.tx"] = port.tx_frames
            totals[f"p{port.index}.tx_drops"] = port.tx_drops
        return totals

    # -- dataplane ----------------------------------------------------------

    def _ingress(self, in_port: int, frame: Frame) -> None:
        self.ports[in_port].rx_frames += 1
        if not frame.src_mac.is_multicast and frame.src_mac not in self._static:
            self._learned[frame.src_mac] = in_port
        _obs.TRACER.hop(self.name, frame, "fabric.forward", "forwarded",
                        FABRIC_LATENCY)
        self.sim.call_later(FABRIC_LATENCY, self._forward, in_port, frame)

    def _lookup(self, mac: MacAddress) -> Optional[int]:
        if mac in self._static:
            return self._static[mac]
        return self._learned.get(mac)

    def _forward(self, in_port: int, frame: Frame) -> None:
        out = None if frame.dst_mac.is_multicast else self._lookup(frame.dst_mac)
        if out is None:
            self.floods += 1
            targets = [p for p in self.ports
                       if p.index != in_port and p.link is not None]
        elif out == in_port:
            return
        else:
            if self.ports[out].link is None:
                self.ports[out].tx_drops += 1
                return
            targets = [self.ports[out]]
        self.forwarded += 1
        for i, port in enumerate(targets):
            copy = frame if i == len(targets) - 1 else frame.copy()
            port.tx_frames += 1
            port.link.send(copy)

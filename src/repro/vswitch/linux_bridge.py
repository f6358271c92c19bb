"""The in-tenant Linux bridge used by the Baseline.

In the Baseline's p2v/v2v scenarios the tenant VM forwards packets
between its two virtio interfaces with the default Linux bridge (the
paper notes DPDK inside the tenant is not a recommended configuration
without vhost-user backing).  It is a plain learning bridge with a
per-frame kernel cost and interrupt latency, charged to the tenant VM's
cores -- which, with the tenant's two dedicated cores, is never the
bottleneck, but it does add latency versus MTS's in-tenant DPDK l2fwd.

Batches forward in one call: the bridge decides once per burst and
advances every member by the same constant delay.  That matches the
per-frame path, which learns at each arrival and decides at arrival +
delay, as long as no learn changes the table while the burst is in
flight.  A burst whose own learn would change the table
(a new source, or one that moved port) therefore replays its members as
per-frame events, so the change lands exactly when the per-frame path
makes it; ``epoch`` counts the changes, and fused routes that cross the
bridge revalidate on it.  What stays out of reach is a table change
made by *another* port's traffic while a burst already decided in bulk
is in flight: no topology the deployment builder wires sends a tenant
bridge a source MAC that another flow through it uses as destination.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.addresses import MacAddress
from repro.net.interfaces import PortPair
from repro.net.packet import Frame, FrameBatch
from repro.sim.kernel import Simulator
from repro.units import USEC

#: Kernel bridge forwarding cost and latency (netif_rx -> br_forward ->
#: dev_queue_xmit, at low load).
LINUX_BRIDGE_CYCLES = 1500.0
LINUX_BRIDGE_LATENCY = 30.0 * USEC


class LinuxBridge:
    """A learning L2 bridge inside a tenant VM."""

    def __init__(
        self,
        name: str,
        sim: Optional[Simulator] = None,
        freq_hz: float = 2.1e9,
    ) -> None:
        self.name = name
        self.sim = sim
        self.freq_hz = freq_hz
        self._ports: List[PortPair] = []
        self._mac_table: Dict[MacAddress, int] = {}
        #: Bumped whenever a learn changes the MAC table; cached
        #: chain-route decisions elsewhere key their validity on it.
        self.epoch = 0
        #: Ingress-to-forward delay of every frame (one float, so the
        #: batched and per-frame paths add the same value).
        self.delay = LINUX_BRIDGE_LATENCY + LINUX_BRIDGE_CYCLES / freq_hz
        self.forwarded = 0
        self.flooded = 0

    def add_port(self, pair: PortPair) -> int:
        index = len(self._ports)
        self._ports.append(pair)
        pair.rx.connect(lambda frame, i=index: self._ingress(i, frame))
        pair.rx.connect_batch(
            lambda batch, i=index: self._ingress_batch(i, batch))
        return index

    def learns(self, mac: MacAddress, in_index: int) -> bool:
        """Whether a frame from ``mac`` on ``in_index`` changes the table."""
        return not mac.is_multicast and self._mac_table.get(mac) != in_index

    def decide(self, in_index: int,
               dst: MacAddress) -> Tuple[Optional[List[int]], bool]:
        """``(egress ports, flooded)`` for a frame to ``dst`` arriving on
        ``in_index`` now; the ports are None when it is filtered."""
        hit = self._mac_table.get(dst)
        if dst.is_multicast or hit is None:
            return [i for i in range(len(self._ports)) if i != in_index], True
        if hit == in_index:
            return None, False
        return [hit], False

    def _ingress(self, in_index: int, frame: Frame) -> None:
        frame.stamp(f"{self.name}.rx")
        if self.learns(frame.src_mac, in_index):
            self._mac_table[frame.src_mac] = in_index
            self.epoch += 1
        delay = self.delay
        frame.charge("tenant", delay)
        if self.sim is not None:
            self.sim.call_later(delay, self._forward, in_index, frame)
        else:
            self._forward(in_index, frame)

    def _forward(self, in_index: int, frame: Frame) -> None:
        outs, flooded = self.decide(in_index, frame.dst_mac)
        if outs is None:
            return
        if flooded:
            self.flooded += 1
        self.forwarded += 1
        for i, out in enumerate(outs):
            out_frame = frame if i == len(outs) - 1 else frame.copy()
            out_frame.stamp(f"{self.name}.tx")
            self._ports[out].transmit(out_frame)

    def _ingress_batch(self, in_index: int, batch: FrameBatch) -> None:
        """Batched forward: one decision, one constant delay.

        Falls back to per-frame events at the members' own timestamps
        when the learn would change the table or the burst fans out
        (copies draw frame ids, which the per-frame path draws at each
        decision).  An accounting replay of a fused route (see
        :class:`~repro.net.packet.FrameBatch`) never falls back: its
        route was checked against this bridge's ``epoch``.
        """
        frame = batch.frame
        outs, flooded = self.decide(in_index, frame.dst_mac)
        if batch.fused_sink is None and (
                self.learns(frame.src_mac, in_index)
                or (outs is not None and len(outs) > 1)):
            sim = self.sim
            for i, t in enumerate(batch.ts):
                sim.schedule(t, self._ingress, in_index, batch.frame_at(i))
            return
        if outs is None:
            return
        n = len(batch)
        if flooded:
            self.flooded += n
        self.forwarded += n
        batch.advance(self.delay)
        self._ports[outs[0]].transmit_batch(batch, self.sim)

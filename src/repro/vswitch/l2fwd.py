"""The (adapted) DPDK l2fwd application run inside tenant VMs.

Under MTS, tenant VMs forward benchmark traffic with DPDK's l2fwd
sample app, *adapted to rewrite the correct destination MAC address*
(paper section 4, Setup): a frame arriving on one VF is bounced out the
paired VF with the destination MAC set to the vswitch's gateway VF on
that side, so the NIC's VEB carries it back to the vswitch VM.

The app polls with the default drain interval (100 us) and burst size
(32); at the paper's 10 kpps latency-test rate the dominant latency
contribution is the drain wait, which we model as a uniform draw over
the drain interval.  The tenant's two dedicated cores make CPU capacity
a non-issue (that is exactly why the paper gives tenants two cores), so
the app does not charge a compute share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import obs as _obs
from repro.net.addresses import MacAddress
from repro.net.interfaces import PortPair
from repro.net.packet import Frame, FrameBatch
from repro.sim.hashjit import HashJitter
from repro.sim.kernel import Simulator
from repro.units import USEC

#: l2fwd defaults from the paper's setup (DPDK 17.11).
DRAIN_INTERVAL = 100.0 * USEC
BURST_SIZE = 32

#: Per-frame processing cost of the poll-mode forwarder itself.
L2FWD_CYCLES = 180.0


@dataclass
class _Route:
    out_index: int
    new_dst_mac: MacAddress
    new_src_mac: Optional[MacAddress] = None


class L2Fwd:
    """Poll-mode port-to-port forwarder with MAC rewriting."""

    def __init__(
        self,
        name: str,
        sim: Optional[Simulator] = None,
        freq_hz: float = 2.1e9,
        drain_interval: float = DRAIN_INTERVAL,
    ) -> None:
        self.name = name
        self.sim = sim
        self.freq_hz = freq_hz
        #: Drain wait is keyed per frame so the batched path reproduces
        #: the per-frame oracle draw for draw.
        self._jitter = HashJitter.from_name(name)
        self._drain_unit = self._jitter.site_unit(
            HashJitter.SITE_L2FWD_DRAIN)
        self.drain_interval = drain_interval
        self._ports: Dict[int, PortPair] = {}
        self._routes: Dict[int, _Route] = {}
        #: Bumped on every route change; cached chain-route decisions
        #: elsewhere key their validity on it.
        self.epoch = 0
        self.forwarded = 0
        self.unrouted = 0

    def add_port(self, pair: PortPair) -> int:
        index = len(self._ports)
        self._ports[index] = pair
        pair.rx.connect(lambda frame, i=index: self._ingress(i, frame))
        pair.rx.connect_batch(
            lambda batch, i=index: self._ingress_batch(i, batch))
        return index

    def set_route(self, in_index: int, out_index: int,
                  new_dst_mac: MacAddress,
                  new_src_mac: Optional[MacAddress] = None) -> None:
        """Program the adapted l2fwd mapping for one rx port."""
        if in_index not in self._ports or out_index not in self._ports:
            raise KeyError(f"unknown port index in route {in_index}->{out_index}")
        self._routes[in_index] = _Route(out_index, new_dst_mac, new_src_mac)
        self.epoch += 1

    def _ingress(self, in_index: int, frame: Frame) -> None:
        route = self._routes.get(in_index)
        if route is None:
            self.unrouted += 1
            return
        delay = L2FWD_CYCLES / self.freq_hz
        delay += self.drain_interval * self._drain_unit(frame.frame_id)
        _obs.TRACER.hop(self.name, frame, "tenant.forward", "forwarded",
                        delay)
        if self.sim is not None:
            self.sim.call_later(delay, self._forward, route, frame)
        else:
            self._forward(route, frame)

    def _forward(self, route: _Route, frame: Frame) -> None:
        frame.dst_mac = route.new_dst_mac
        if route.new_src_mac is not None:
            frame.src_mac = route.new_src_mac
        self.forwarded += 1
        self._ports[route.out_index].transmit(frame)

    def _ingress_batch(self, in_index: int, batch: FrameBatch) -> None:
        """Batched forward: per-member drain draws (identical to the
        per-frame path -- keyed by frame id, drawn in lanes), one MAC
        rewrite on the exemplar, one downstream hand-off."""
        route = self._routes.get(in_index)
        n = len(batch)
        if route is None:
            self.unrouted += n
            return
        base = L2FWD_CYCLES / self.freq_hz
        drain = self.drain_interval
        units = self._jitter.units(batch.frame_ids,
                                   (HashJitter.SITE_L2FWD_DRAIN,))
        batch.advance_per_member([base + drain * u for u in units])
        frame = batch.frame
        frame.dst_mac = route.new_dst_mac
        if route.new_src_mac is not None:
            frame.src_mac = route.new_src_mac
        self.forwarded += n
        self._ports[route.out_index].transmit_batch(batch, self.sim)

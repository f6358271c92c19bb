"""The SR-IOV NIC device: physical ports, PF/VF pools, timing, security.

One :class:`SriovNic` models a dual-port card like the paper's Mellanox
ConnectX-4 LN: each physical port has one PF, up to 64 VFs, and an
embedded VEB switch.  All configuration goes through the host-side API
(MAC, VLAN, spoof check, filters) -- VMs only ever hold a
:class:`~repro.net.interfaces.PortPair` to send and receive, which is
exactly the privilege split SR-IOV provides in hardware.

Timing: every VF crossing pays a PCIe DMA (see
:class:`~repro.sriov.pcie.PcieBus`) and the VEB adds a small cut-through
latency.  The VEB itself forwards at line rate -- the hardware switch is
never the pps bottleneck at 10G, matching the paper's observation that
the extra NIC round trip costs only microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import billing as _billing
from repro import obs as _obs
from repro.errors import ConfigurationError, VFExhaustedError
from repro.net.addresses import MacAddress
from repro.net.interfaces import Port
from repro.net.link import Link
from repro.net.packet import Frame, FrameBatch
from repro.sim.kernel import Simulator
from repro.sriov.filters import FilterAction, FilterChain, SpoofCheck, WildcardFilter
from repro.sriov.pcie import PcieBus
from repro.sriov.switch import UNTAGGED, UPLINK, VebSwitch
from repro.sriov.vf import FunctionKind, VirtualFunction
from repro.units import USEC

#: Cut-through latency of the embedded hardware switch.
VEB_LATENCY = 0.3 * USEC

#: Per-SR-IOV-standard ceiling the paper cites (Section 3.2).
MAX_VFS_PER_PF = 64


@dataclass
class NicDropStats:
    spoof: int = 0
    filtered: int = 0
    no_destination: int = 0
    unconfigured_vf: int = 0
    rate_limited: int = 0


@dataclass
class _TokenBucket:
    """Per-VF ingress policer (hardware rate limiting)."""

    rate_pps: float
    burst: float = 32.0
    tokens: float = 32.0
    last_refill: float = 0.0

    def allow(self, now: float) -> bool:
        self.tokens = min(self.burst,
                          self.tokens + (now - self.last_refill) * self.rate_pps)
        self.last_refill = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class NicPort:
    """One physical port: a PF, its VFs, a VEB switch and the fabric."""

    def __init__(self, nic: "SriovNic", index: int) -> None:
        self.nic = nic
        self.index = index
        #: Hop label, hoisted: built once instead of per packet.
        self._label = f"nic.p{index}"
        self.veb = VebSwitch(name=f"veb{index}")
        self.pf = VirtualFunction(index=-1, pf_index=index, kind=FunctionKind.PF,
                                  attached_to="host")
        self.vfs: List[VirtualFunction] = []
        self.fabric_rx = Port(f"nic.p{index}.fabric", self._receive_from_fabric)
        self.fabric_rx.connect_batch(self._receive_from_fabric_batch)
        self.fabric_link: Optional[Link] = None
        self.drops = NicDropStats()
        self.frames_switched = 0
        self._functions: Dict[str, VirtualFunction] = {self.pf.name: self.pf}
        self._vf_counter = 0
        self._buckets: Dict[str, _TokenBucket] = {}
        #: Bumped when per-VF policers change; paired with the VEB's
        #: ``epoch`` to revalidate cached flush-margin decisions.
        self.policer_epoch = 0
        self.veb.attach(self.pf)

    # -- host-side configuration API -------------------------------------

    def create_vf(self) -> VirtualFunction:
        """Instantiate a new VF (host privilege)."""
        if len(self.vfs) >= self.nic.max_vfs_per_pf:
            raise VFExhaustedError(
                f"PF {self.index} already has {len(self.vfs)} VFs "
                f"(max {self.nic.max_vfs_per_pf})"
            )
        vf = VirtualFunction(index=self._vf_counter, pf_index=self.index)
        self._vf_counter += 1
        self.vfs.append(vf)
        self._functions[vf.name] = vf
        vf.port.attach_tx(lambda frame, vf=vf: self._receive_from_vf(vf, frame))
        vf.port.attach_tx_batch(
            lambda batch, vf=vf: self._receive_from_vf_batch(vf, batch))
        return vf

    def configure_vf(
        self,
        vf: VirtualFunction,
        mac: MacAddress,
        vlan: Optional[int] = None,
        spoof_check: bool = False,
        kind: FunctionKind = FunctionKind.UNASSIGNED,
    ) -> None:
        """Set a VF's identity; re-configuring re-homes its VLAN domain."""
        if vf.name not in self._functions:
            raise ConfigurationError(f"{vf.name} does not belong to PF {self.index}")
        self.veb.detach(vf)
        vf.mac = mac
        vf.vlan = vlan
        vf.spoof_check = spoof_check
        vf.kind = kind
        self.veb.attach(vf)

    def attach_vf(self, vf: VirtualFunction, owner: str) -> None:
        """Hand the VF to a VM (by name).  The VM keeps ``vf.port``."""
        if vf.attached_to is not None:
            raise ConfigurationError(f"{vf.name} already attached to {vf.attached_to}")
        vf.attached_to = owner

    def set_vf_rate_limit(self, vf: VirtualFunction,
                          max_rate_pps: Optional[float]) -> None:
        """Program the per-VF hardware policer (``ip link set ... vf N
        max_tx_rate`` equivalent); ``None`` removes it."""
        if vf.name not in self._functions:
            raise ConfigurationError(f"{vf.name} does not belong to PF {self.index}")
        vf.max_rate_pps = max_rate_pps
        self.policer_epoch += 1
        if max_rate_pps is None:
            self._buckets.pop(vf.name, None)
        else:
            if max_rate_pps <= 0:
                raise ConfigurationError("rate limit must be positive")
            self._buckets[vf.name] = _TokenBucket(
                rate_pps=max_rate_pps, last_refill=self.nic.sim.now)

    def destroy_vf(self, vf: VirtualFunction) -> None:
        """Remove a single VF (runtime tenant removal/migration)."""
        if vf not in self.vfs:
            raise ConfigurationError(f"{vf.name} not on PF {self.index}")
        self.veb.detach(vf)
        self.vfs.remove(vf)
        del self._functions[vf.name]
        self._buckets.pop(vf.name, None)
        vf.attached_to = None

    def detach_all(self) -> None:
        """Tear down all VFs (deployment teardown)."""
        for vf in self.vfs:
            self.veb.detach(vf)
        self.vfs.clear()
        self._functions = {self.pf.name: self.pf}
        self.veb.attach(self.pf)

    def connect_fabric(self, link: Link) -> None:
        """Attach the outbound wire (towards the load generator / sink)."""
        self.fabric_link = link

    def function(self, name: str) -> VirtualFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise ConfigurationError(f"no function {name!r} on PF {self.index}") from None

    # -- dataplane ---------------------------------------------------------

    def _receive_from_vf(self, vf: VirtualFunction, frame: Frame) -> None:
        """VM transmitted on its VF: security chain, then switch."""
        vf.stats.tx_frames += 1
        vf.stats.tx_bytes += frame.wire_size()
        if vf.mac is None:
            self.drops.unconfigured_vf += 1
            _obs.TRACER.nic_filter(self._label, vf.name, frame,
                                   "unconfigured")
            if _billing.METER.enabled:
                _billing.METER.drop(frame.tenant_id, "nic_unconfigured")
            return
        if not SpoofCheck.permits(vf, frame):
            vf.stats.spoof_drops += 1
            self.drops.spoof += 1
            _obs.TRACER.nic_filter(self._label, vf.name, frame,
                                   "spoof_drop")
            if _billing.METER.enabled:
                _billing.METER.drop(frame.tenant_id, "nic_spoof")
            return
        bucket = self._buckets.get(vf.name)
        if bucket is not None and not bucket.allow(self.nic.sim.now):
            vf.stats.rate_limit_drops += 1
            self.drops.rate_limited += 1
            _obs.TRACER.nic_filter(self._label, vf.name, frame,
                                   "rate_limited")
            if _billing.METER.enabled:
                _billing.METER.drop(frame.tenant_id, "nic_rate_limited")
            return
        if self.nic.filters.evaluate(vf, frame) == FilterAction.DROP:
            vf.stats.filter_drops += 1
            self.drops.filtered += 1
            _obs.TRACER.nic_filter(self._label, vf.name, frame,
                                   "filter_drop")
            if _billing.METER.enabled:
                _billing.METER.drop(frame.tenant_id, "nic_filtered")
            return
        _obs.TRACER.nic_filter(self._label, vf.name, frame, "pass")
        domain = self.veb.domain_of(vf)
        # VM -> NIC DMA has already been paid conceptually by the VM's
        # transmit; we charge the crossing once here (ingress direction).
        delay = (self.nic.pcie.transfer_time(frame.wire_size(),
                                             tenant=frame.tenant_id)
                 + VEB_LATENCY)
        _obs.TRACER.hop(self._label, frame, "nic.in", vf.name, delay)
        _obs.TAP.hop("nic", frame.frame_id, delay)
        self.nic.sim.call_later(delay, self._switch, vf.name, domain, frame)

    def _receive_from_fabric(self, frame: Frame) -> None:
        """Frame arrived from the wire."""
        domain = frame.vlan if frame.vlan is not None else UNTAGGED
        _obs.TRACER.hop(self._label, frame, "nic.in", "fabric", VEB_LATENCY)
        _obs.TAP.hop("nic", frame.frame_id, VEB_LATENCY)
        self.nic.sim.call_later(VEB_LATENCY, self._switch, UPLINK, domain, frame)

    def _switch(self, ingress: str, domain: int, frame: Frame) -> None:
        decision = self.veb.forward(ingress, domain, frame, now=self.nic.sim.now)
        if not decision.destinations:
            self.drops.no_destination += 1
            _obs.TRACER.drop(self._label, frame,
                             "no_destination" if decision.reason != "hairpin"
                             else "hairpin")
            if _billing.METER.enabled:
                _billing.METER.drop(frame.tenant_id, "nic_no_destination")
            return
        self.frames_switched += 1
        for dest in decision.destinations:
            out = frame if len(decision.destinations) == 1 else frame.copy()
            if dest == UPLINK:
                self._to_fabric(domain, out)
            else:
                self._to_function(self._functions[dest], out)

    def _to_fabric(self, domain: int, frame: Frame) -> None:
        if self.fabric_link is None:
            self.drops.no_destination += 1
            _obs.TRACER.drop(self._label, frame, "no_fabric_link")
            return
        # Untagged-domain frames leave untagged; tagged domains keep the
        # 802.1Q tag on the wire.
        if domain != UNTAGGED and frame.vlan is None:
            frame.push_vlan(domain)
        elif domain == UNTAGGED and frame.vlan is not None:
            frame.pop_vlan()
        self.fabric_link.send(frame)

    def _to_function(self, func: VirtualFunction, frame: Frame) -> None:
        """Deliver to the VM behind a VF/PF (access egress: tag popped)."""
        if frame.vlan is not None:
            frame.pop_vlan()
        func.stats.rx_frames += 1
        func.stats.rx_bytes += frame.wire_size()
        delay = self.nic.pcie.transfer_time(frame.wire_size(),
                                            tenant=frame.tenant_id)
        _obs.TRACER.hop(self._label, frame, "nic.out", func.name, delay)
        _obs.TAP.hop("nic", frame.frame_id, delay)
        self.nic.sim.call_later(delay, func.port.rx.receive, frame)

    # -- batched dataplane -------------------------------------------------
    #
    # Same chain, one call per batch: the security verdict, VEB decision
    # and PCIe/VEB delays are identical for every member (same headers,
    # same size), so they are computed once and the member timestamps
    # advanced analytically.  No events are scheduled -- the batch flows
    # inline to the next timestamped admission point (bridge rx ring) or
    # to the fabric link.  Runs only with tracing off: per-hop spans
    # exist only on the per-frame oracle path.  The latency-attribution
    # tap gets each hop's delay once per batch.

    def _receive_from_vf_batch(self, vf: VirtualFunction,
                               batch: FrameBatch) -> None:
        bucket = self._buckets.get(vf.name)
        if bucket is not None:
            # The policer is stateful in arrival time: replay members
            # as individual events at their own timestamps (exact).
            sim = self.nic.sim
            for i, t in enumerate(batch.ts):
                sim.schedule(t, self._receive_from_vf, vf, batch.frame_at(i))
            return
        n = len(batch)
        frame = batch.frame
        wire = frame.wire_size()
        vf.stats.tx_frames += n
        vf.stats.tx_bytes += wire * n
        meter = _billing.METER
        if vf.mac is None:
            self.drops.unconfigured_vf += n
            if meter.enabled:
                meter.drop(frame.tenant_id, "nic_unconfigured", n)
            return
        if not SpoofCheck.permits(vf, frame):
            vf.stats.spoof_drops += n
            self.drops.spoof += n
            if meter.enabled:
                meter.drop(frame.tenant_id, "nic_spoof", n)
            return
        if self.nic.filters.evaluate_batch(vf, frame, n) == FilterAction.DROP:
            vf.stats.filter_drops += n
            self.drops.filtered += n
            if meter.enabled:
                meter.drop(frame.tenant_id, "nic_filtered", n)
            return
        domain = self.veb.domain_of(vf)
        delay = (self.nic.pcie.transfer_time_batch(wire, frame.tenant_id, n)
                 + VEB_LATENCY)
        _obs.TAP.hop_batch("nic", batch, delay)
        batch.advance(delay)
        self._switch_batch(vf.name, domain, batch)

    def _receive_from_fabric_batch(self, batch: FrameBatch) -> None:
        frame = batch.frame
        domain = frame.vlan if frame.vlan is not None else UNTAGGED
        _obs.TAP.hop_batch("nic", batch, VEB_LATENCY)
        batch.advance(VEB_LATENCY)
        self._switch_batch(UPLINK, domain, batch)

    def _switch_batch(self, ingress: str, domain: int,
                      batch: FrameBatch) -> None:
        n = len(batch)
        decision = self.veb.forward_batch(ingress, domain, batch.frame,
                                          now=batch.ts[-1], n=n)
        dests = decision.destinations
        if not dests:
            self.drops.no_destination += n
            if _billing.METER.enabled:
                _billing.METER.drop(batch.frame.tenant_id,
                                    "nic_no_destination", n)
            return
        self.frames_switched += n
        if len(dests) == 1:
            outs = [batch]
        else:
            # The per-frame path copies for *every* destination when
            # there are several (the original is abandoned); mirror its
            # id draws exactly.
            outs = batch.fanout_copies(len(dests))
        for dest, out in zip(dests, outs):
            if dest == UPLINK:
                self._to_fabric_batch(domain, out)
            else:
                self._to_function_batch(self._functions[dest], out)

    def _to_fabric_batch(self, domain: int, batch: FrameBatch) -> None:
        if self.fabric_link is None:
            self.drops.no_destination += len(batch)
            return
        frame = batch.frame
        if domain != UNTAGGED and frame.vlan is None:
            frame.push_vlan(domain)
        elif domain == UNTAGGED and frame.vlan is not None:
            frame.pop_vlan()
        self.fabric_link.send_batch(batch)

    def _to_function_batch(self, func: VirtualFunction,
                           batch: FrameBatch) -> None:
        frame = batch.frame
        if frame.vlan is not None:
            frame.pop_vlan()
        n = len(batch)
        wire = frame.wire_size()
        func.stats.rx_frames += n
        func.stats.rx_bytes += wire * n
        delay = self.nic.pcie.transfer_time_batch(wire, frame.tenant_id, n)
        _obs.TAP.hop_batch("nic", batch, delay)
        batch.advance(delay)
        func.port.rx.receive_batch(batch, self.nic.sim)


class SriovNic:
    """A multi-port SR-IOV NIC with a shared PCIe bus and filter table."""

    def __init__(
        self,
        sim: Simulator,
        num_ports: int = 2,
        max_vfs_per_pf: int = MAX_VFS_PER_PF,
        pcie: Optional[PcieBus] = None,
        name: str = "nic0",
    ) -> None:
        if num_ports < 1:
            raise ConfigurationError("a NIC needs at least one physical port")
        if not 1 <= max_vfs_per_pf <= MAX_VFS_PER_PF:
            raise ConfigurationError(
                f"max_vfs_per_pf must be in [1, {MAX_VFS_PER_PF}]"
            )
        self.sim = sim
        self.name = name
        self.max_vfs_per_pf = max_vfs_per_pf
        self.pcie = pcie if pcie is not None else PcieBus()
        self.filters = FilterChain()
        self.ports = [NicPort(self, i) for i in range(num_ports)]

    def port(self, index: int) -> NicPort:
        return self.ports[index]

    def install_filter(self, flt: WildcardFilter) -> None:
        self.filters.install(flt)

    def total_vfs(self) -> int:
        return sum(len(p.vfs) for p in self.ports)

    def total_drops(self) -> NicDropStats:
        agg = NicDropStats()
        for port in self.ports:
            agg.spoof += port.drops.spoof
            agg.filtered += port.drops.filtered
            agg.no_destination += port.drops.no_destination
            agg.unconfigured_vf += port.drops.unconfigured_vf
            agg.rate_limited += port.drops.rate_limited
        return agg

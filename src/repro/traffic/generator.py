"""The load generator (the paper's dagflood role).

Replays one or more constant-rate UDP flows onto a link.  Each flow is
addressed to a tenant: destination MAC chosen so the NIC delivers it to
the right vswitch compartment, destination IP identifying the tenant VM
(exactly how the paper's streams are built: "4 flows, each to a
respective tenant VM identified by the destination MAC and IP
address").
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import List, Optional

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.link import Link
from repro.net.packet import Frame, FrameBatch, IpProto, next_frame_id
from repro.sim.kernel import Simulator


@dataclass
class FlowConfig:
    """One constant-rate flow."""

    flow_id: int
    dst_mac: MacAddress
    dst_ip: IPv4Address
    src_mac: MacAddress
    src_ip: IPv4Address
    rate_pps: float
    frame_bytes: int = 64
    tenant_id: Optional[int] = None
    proto: IpProto = IpProto.UDP
    tunnel_id: Optional[int] = None
    #: Draw a fresh random source port per packet: every packet then
    #: misses the vswitch's flow cache (the policy-injection DoS
    #: traffic pattern).
    randomize_src_port: bool = False

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ValueError(f"flow {self.flow_id}: rate must be positive")


#: Frames emitted per DES event, matching the DPDK burst=32 model in
#: :mod:`repro.vswitch.datapath`: a PMD hands the wire a vector of
#: frames per poll, with per-frame timestamps spaced analytically at
#: the flow's constant rate.
DEFAULT_BURST = 32

#: Burst used when the harness switches the generator to batched
#: emission.  Emitted timestamps are analytic per frame, so burst size
#: never changes results -- only how many frames ride one DES event.
#: The batched mediation chain amortizes per-batch work, so it pays to
#: hand it wider vectors than the DPDK-faithful per-frame default.
BATCHED_BURST = 128


class LoadGenerator:
    """Emits flows onto a link for a bounded duration.

    The generator fires one DES event per *burst* of ``burst`` frames
    rather than one per frame: the next ``burst`` frames across all
    flows are handed to the link in merged timestamp order, each with
    its analytically computed constant-rate timestamp (the link
    serializes from that timestamp, see
    :meth:`repro.net.link.Link.send`).  The emitted stream is therefore
    timestamp-identical to per-frame scheduling -- including the
    inter-flow interleaving that keeps the wire's serialization chain
    monotone -- at a fraction of the event cost.  ``burst=1`` recovers
    per-frame behaviour.
    """

    def __init__(self, sim: Simulator, link: Link, name: str = "lg",
                 rng: Optional[random.Random] = None,
                 burst: int = DEFAULT_BURST) -> None:
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.sim = sim
        self.link = link
        self.name = name
        self.rng = rng if rng is not None else random.Random(0)
        self.burst = burst
        self.flows: List[FlowConfig] = []
        self.sent = 0
        self._stop_at: Optional[float] = None
        #: Emit bursts as struct-of-arrays :class:`FrameBatch` objects
        #: instead of per-frame sends (the batched fast path).  Set by
        #: the harness; requires every downstream hop the batch reaches
        #: untraced operation, and is ignored for randomized-src-port
        #: flows (each such packet genuinely differs).
        self.batch = False

    def supports_batching(self) -> bool:
        """Batched emission is exact only when every frame of a flow
        shares one header signature."""
        return not any(f.randomize_src_port for f in self.flows)

    def add_flow(self, flow: FlowConfig) -> None:
        self.flows.append(flow)

    @property
    def aggregate_rate_pps(self) -> float:
        return sum(f.rate_pps for f in self.flows)

    def start(self, duration: float, start_at: float = 0.0) -> None:
        """Schedule all flows; emissions stop after ``duration`` seconds.

        Flows are phase-shifted slightly so four same-rate flows do not
        arrive in lockstep bursts.
        """
        if not self.flows:
            raise ValueError("no flows configured")
        self._stop_at = self.sim.now + start_at + duration
        # Min-heap of (next emission time, flow index, flow): bursts pop
        # the globally next frames in merged timestamp order, so the
        # link sees the same arrival sequence per-frame scheduling
        # produced.  The flow index breaks (never-occurring) time ties
        # deterministically.
        self._schedule = []
        for i, flow in enumerate(self.flows):
            phase = (i / max(1, len(self.flows))) / flow.rate_pps
            heapq.heappush(self._schedule,
                           (self.sim.now + start_at + phase, i, flow))
        self.sim.schedule(self._schedule[0][0], self._emit)

    def _emit(self) -> None:
        """Emit the next burst of frames (across all flows, in timestamp
        order) and reschedule at the following frame's timestamp."""
        assert self._stop_at is not None
        if self.batch:
            self._emit_batched()
            return
        schedule = self._schedule
        emitted = 0
        while schedule and emitted < self.burst:
            t, i, flow = schedule[0]
            if t >= self._stop_at:
                heapq.heappop(schedule)
                continue
            src_port = (self.rng.randint(1024, 65535)
                        if flow.randomize_src_port else 0)
            frame = Frame(
                src_mac=flow.src_mac,
                dst_mac=flow.dst_mac,
                src_ip=flow.src_ip,
                dst_ip=flow.dst_ip,
                proto=flow.proto,
                src_port=src_port,
                size_bytes=flow.frame_bytes,
                created_at=t,
                flow_id=flow.flow_id,
                tenant_id=flow.tenant_id,
                tunnel_id=flow.tunnel_id,
            )
            self.link.send(frame, at=t)
            self.sent += 1
            emitted += 1
            heapq.heapreplace(schedule, (t + 1.0 / flow.rate_pps, i, flow))
        if schedule and schedule[0][0] < self._stop_at:
            self.sim.schedule(schedule[0][0], self._emit)

    def _emit_batched(self) -> None:
        """Emit the next burst as one :class:`FrameBatch` per flow.

        The same merged-order pop as :meth:`_emit` decides which frames
        the burst contains, and frame ids are drawn in that merged
        order, so ids (and everything keyed by them -- jitter draws,
        latency pairing) are identical to the per-frame path.  The link
        then busy-chains all members in merged timestamp order via
        :meth:`~repro.net.link.Link.send_interleaved`, which breaks
        timestamp ties by batch position: batches go in flow-index
        order, the per-frame path's tie-break.
        """
        assert self._stop_at is not None
        schedule = self._schedule
        emitted = 0
        per_flow: dict = {}
        while schedule and emitted < self.burst:
            t, i, flow = schedule[0]
            if t >= self._stop_at:
                heapq.heappop(schedule)
                continue
            data = per_flow.get(i)
            if data is None:
                data = (flow, [], [])
                per_flow[i] = data
            data[1].append(next_frame_id())
            data[2].append(t)
            emitted += 1
            heapq.heapreplace(schedule, (t + 1.0 / flow.rate_pps, i, flow))
        if per_flow:
            batches = []
            for i in sorted(per_flow):
                flow, ids, ts = per_flow[i]
                exemplar = Frame(
                    src_mac=flow.src_mac,
                    dst_mac=flow.dst_mac,
                    src_ip=flow.src_ip,
                    dst_ip=flow.dst_ip,
                    proto=flow.proto,
                    src_port=0,
                    size_bytes=flow.frame_bytes,
                    created_at=ts[0],
                    flow_id=flow.flow_id,
                    tenant_id=flow.tenant_id,
                    tunnel_id=flow.tunnel_id,
                    frame_id=ids[0],
                )
                batches.append(FrameBatch(exemplar, ids, ts))
                self.sent += len(ids)
            self.link.send_interleaved(batches)
        if schedule and schedule[0][0] < self._stop_at:
            self.sim.schedule(schedule[0][0], self._emit)

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
from repro.net.packet import Frame, FrameBatch, IpProto, next_frame_ids
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
    #: traffic pattern).  Batched emission carries the ports per member
    #: (``FrameBatch.src_ports``), drawn in the per-frame path's order.
    randomize_src_port: bool = False

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ValueError(f"flow {self.flow_id}: rate must be positive")


#: Frames emitted per DES event, matching the DPDK burst=32 model in
#: :mod:`repro.vswitch.datapath`: a PMD hands the wire a vector of
#: frames per poll, with per-frame timestamps spaced analytically at
#: the flow's constant rate.
DEFAULT_BURST = 32

#: Burst cap used when the harness switches the generator to batched
#: emission.  Emitted timestamps are analytic per frame, so burst size
#: never changes results -- only how many frames ride one DES event.
#: The batched mediation chain amortizes per-batch work, so it pays to
#: hand it wider vectors than the DPDK-faithful per-frame default.
#: Batched bursts ramp up to it from one frame (see
#: :meth:`LoadGenerator._emit_batched`), so a flow's first frames, not
#: a whole wide burst, meet a cold pipeline.
BATCHED_BURST = 1024


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
    per-frame behaviour.  Batched emission ramps its bursts from one
    frame up to ``burst``, doubling per emission event, from each
    :meth:`start`.
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
        #: The next batched emission's burst before the ``burst`` cap.
        self._ramp = 1
        #: Emit bursts as struct-of-arrays :class:`FrameBatch` objects
        #: instead of per-frame sends (the batched fast path).  Set by
        #: the harness; requires every downstream hop the batch reaches
        #: untraced operation.  A randomized-src-port flow's batches
        #: carry one port per member, drawn from :attr:`rng` in the
        #: order per-frame emission draws them.
        self.batch = False

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
        self._ramp = 1
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
        latency pairing) are identical to the per-frame path.  So are
        the source ports of randomized-src-port flows: one
        ``rng.randint`` per member, run by run in merged order.  The link
        then busy-chains all members in merged timestamp order via
        :meth:`~repro.net.link.Link.send_interleaved`, which breaks
        timestamp ties by batch position: batches go in flow-index
        order, the per-frame path's tie-break.

        The k-th emission event of a run carries at most
        ``min(2**k, burst)`` frames.  A bridge picks a plan template and
        a fused route once per batch, when the batch arrives, and a
        batch that meets a cold bridge replays per frame.  The ramp
        lets each flow's first frame walk the pipeline alone, so that
        (unless a backlog holds that frame longer than the ramp takes)
        every pass is warm before wide batches come, which then pay the
        chain's per-batch work once per up to ``burst`` frames.
        """
        assert self._stop_at is not None
        schedule = self._schedule
        stop = self._stop_at
        burst = min(self._ramp, self.burst)
        self._ramp = 2 * burst
        emitted = 0
        per_flow: dict = {}
        # (flow's id list, merged index of the run's first frame and
        # one past its last): ids are drawn per burst, in merged order.
        runs = []
        while schedule and emitted < burst:
            t, i, flow = schedule[0]
            if t >= stop:
                heapq.heappop(schedule)
                continue
            # The flow keeps emitting while its next frame comes before
            # the next flow's head in (time, flow index) order.
            size = len(schedule)
            head_t, head_i = stop, -1
            if size > 1:
                head = schedule[1]
                if size > 2 and schedule[2] < head:
                    head = schedule[2]
                if head[0] < stop:
                    head_t, head_i = head[0], head[1]
            data = per_flow.get(i)
            if data is None:
                data = (flow, [], [], [] if flow.randomize_src_port
                        else None)
                per_flow[i] = data
            ts = data[2]
            gap = 1.0 / flow.rate_pps
            first = emitted
            while True:
                ts.append(t)
                emitted += 1
                t = t + gap
                # head_t <= stop: this also ends the run at the stop.
                if (emitted == burst or t > head_t
                        or (t == head_t and i > head_i)):
                    break
            runs.append((data[1], first, emitted))
            ports = data[3]
            if ports is not None:
                randint = self.rng.randint
                ports.extend([randint(1024, 65535)
                              for _ in range(emitted - first)])
            heapq.heapreplace(schedule, (t, i, flow))
        ids = next_frame_ids(emitted)
        for out, lo, hi in runs:
            out.extend(ids[lo:hi])
        if per_flow:
            batches = []
            for i in sorted(per_flow):
                flow, ids, ts, ports = per_flow[i]
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
                batches.append(FrameBatch(exemplar, ids, ts,
                                          src_ports=ports))
                self.sent += len(ids)
            self.link.send_interleaved(batches)
        if schedule and schedule[0][0] < self._stop_at:
            self.sim.schedule(schedule[0][0], self._emit)

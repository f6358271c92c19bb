"""Frame model: Ethernet + optional 802.1Q tag + IPv4 + L4 summary.

We model frames structurally rather than as byte buffers: the NIC's VEB
switch, the vswitch flow tables and the workload models all match on
header *fields*, and serializing real bytes would only slow the simulator
down.  A frame knows its on-wire size and carries measurement metadata
(creation timestamp, flow id, tenant id).  It keeps no record of its
own journey: the packet tracer (:mod:`repro.obs.trace`) records one
span per hop, keyed by ``frame_id``, and that is what tests read to
assert the exact ingress/egress chains of Fig. 3; the latency breakdown
reads the attribution tap (:mod:`repro.obs.attribution`), whose rows
are keyed by ``frame_id`` too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Optional

from repro.net.addresses import IPv4Address, MacAddress

_frame_ids = itertools.count()


def next_frame_ids(n: int) -> range:
    """Allocate ``n`` consecutive frame ids from the shared counter."""
    global _frame_ids
    first = next(_frame_ids)
    _frame_ids = itertools.count(first + n)
    return range(first, first + n)


def reset_frame_ids() -> None:
    """Restart frame-id allocation at zero.

    Called at the start of every harnessed run so frame ids are a pure
    function of the run itself, not of how many frames earlier runs in
    the same process happened to create.  Per-frame jitter draws are
    keyed by frame id, so this is what keeps runs bit-identical across
    the sequential and process-pool sweep backends.
    """
    global _frame_ids
    _frame_ids = itertools.count()


#: 802.1Q tag size added on the wire when a frame is tagged.
VLAN_TAG_BYTES = 4


class EtherType(IntEnum):
    """EtherTypes the models care about."""

    IPV4 = 0x0800
    ARP = 0x0806
    VLAN = 0x8100


class IpProto(IntEnum):
    """IP protocol numbers the workload models use."""

    ICMP = 1
    TCP = 6
    UDP = 17


@dataclass(slots=True)
class Frame:
    """One Ethernet frame in flight.

    ``size_bytes`` is the untagged L2 frame size including FCS (the way
    the paper quotes packet sizes: 64 B, 512 B, 1500 B, 2048 B).  A VLAN
    tag, when present, adds 4 B on the wire (see :meth:`wire_size`).
    """

    src_mac: MacAddress
    dst_mac: MacAddress
    ethertype: EtherType = EtherType.IPV4
    vlan: Optional[int] = None
    src_ip: Optional[IPv4Address] = None
    dst_ip: Optional[IPv4Address] = None
    proto: IpProto = IpProto.UDP
    src_port: int = 0
    dst_port: int = 0
    tunnel_id: Optional[int] = None
    #: VNI remembered after decapsulation (OVS's tunnel metadata): later
    #: pipeline stages can still key on it, and re-encapsulation is
    #: legal because the frame itself is no longer tunnelled.
    decap_vni: Optional[int] = None
    size_bytes: int = 64
    created_at: float = 0.0
    flow_id: int = 0
    tenant_id: Optional[int] = None
    frame_id: int = field(default_factory=lambda: next(_frame_ids))

    def __post_init__(self) -> None:
        if self.size_bytes < 64:
            raise ValueError(f"Ethernet frame below minimum size: {self.size_bytes}")
        if self.vlan is not None and not 1 <= self.vlan <= 4094:
            raise ValueError(f"VLAN id out of range: {self.vlan}")

    # -- VLAN handling ------------------------------------------------

    def push_vlan(self, vlan: int) -> None:
        """Tag the frame (NIC ingress on a VLAN-assigned VF)."""
        if self.vlan is not None:
            raise ValueError(f"frame already tagged with VLAN {self.vlan}")
        if not 1 <= vlan <= 4094:
            raise ValueError(f"VLAN id out of range: {vlan}")
        self.vlan = vlan

    def pop_vlan(self) -> int:
        """Strip the tag (NIC egress towards an access VF)."""
        if self.vlan is None:
            raise ValueError("frame is untagged")
        vlan, self.vlan = self.vlan, None
        return vlan

    # -- size ----------------------------------------------------------

    def wire_size(self) -> int:
        """Frame size on the wire, including the 802.1Q tag if present."""
        return self.size_bytes + (VLAN_TAG_BYTES if self.vlan is not None else 0)

    # -- copies ---------------------------------------------------------

    def copy(self) -> "Frame":
        """Independent copy with a fresh frame id (a new trace)."""
        clone = self.replica()
        clone.frame_id = next(_frame_ids)
        return clone

    def replica(self) -> "Frame":
        """Copy that *keeps* the frame id.

        Used by the batched fast path when a batch forks: every
        sub-batch needs its own mutable exemplar header, but members
        keep their identity.  Unlike :meth:`copy` this must not draw
        from the frame-id counter -- the oracle path never forks, and
        the two paths have to allocate ids identically.
        """
        return Frame(
            src_mac=self.src_mac,
            dst_mac=self.dst_mac,
            ethertype=self.ethertype,
            vlan=self.vlan,
            src_ip=self.src_ip,
            dst_ip=self.dst_ip,
            proto=self.proto,
            src_port=self.src_port,
            dst_port=self.dst_port,
            tunnel_id=self.tunnel_id,
            decap_vni=self.decap_vni,
            size_bytes=self.size_bytes,
            created_at=self.created_at,
            flow_id=self.flow_id,
            tenant_id=self.tenant_id,
            frame_id=self.frame_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        vlan = f" vlan={self.vlan}" if self.vlan is not None else ""
        ips = ""
        if self.src_ip is not None or self.dst_ip is not None:
            ips = f" {self.src_ip}->{self.dst_ip}"
        return (
            f"<Frame #{self.frame_id} {self.src_mac}->{self.dst_mac}{vlan}"
            f"{ips} {self.size_bytes}B>"
        )


class FrameBatch:
    """A burst of same-flow frames in struct-of-arrays form.

    One mutable *exemplar* :class:`Frame` carries the headers every
    member shares (same flow => same headers; VLAN pushes/pops and MAC
    rewrites apply to the exemplar once instead of N times), plus
    parallel arrays for the only things that differ per member:

    - ``frame_ids`` -- member identities (latency pairing, jitter keys),
    - ``ts`` -- where each member *is* in time: mutated in place as the
      batch advances through analytic hops,
    - ``created_at`` -- original emission times (immutable),
    - ``src_ports`` -- per-member L4 source ports, or None when every
      member has the exemplar's.  Set for randomized-source-port flows
      (the policy-injection traffic), where every member is its own
      microflow; no hop rewrites L4 ports, so the list only follows the
      members through splits, sorts and copies.

    ``ts`` is kept sorted ascending; hops with per-member jitter re-sort
    via :meth:`advance_per_member`.  The batch contract throughout the
    chain: an event handling a batch fires at a time <= ``ts[0]``.

    ``fused_sink``, when set, marks the batch as an *accounting replay*:
    its members' downstream admissions were already registered
    analytically by a fused route, and the receiving bridge must replay
    counters/metering for the traversal and hand the headers to the sink
    instead of dispatching again.
    """

    __slots__ = ("frame", "frame_ids", "ts", "created_at", "src_ports",
                 "fused_sink")

    def __init__(self, frame: Frame, frame_ids: List[int], ts: List[float],
                 created_at: Optional[List[float]] = None,
                 src_ports: Optional[List[int]] = None) -> None:
        self.frame = frame
        self.frame_ids = frame_ids
        self.ts = ts
        self.created_at = created_at if created_at is not None else list(ts)
        self.src_ports = src_ports
        self.fused_sink = None

    def __len__(self) -> int:
        return len(self.frame_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FrameBatch n={len(self.frame_ids)} {self.frame!r} "
                f"ts[0]={self.ts[0] if self.ts else None}>")

    def advance(self, delay: float) -> None:
        """Move every member forward by the same analytic ``delay``."""
        ts = self.ts
        ts[:] = [t + delay for t in ts]

    def advance_per_member(self, delays: List[float]) -> None:
        """Per-member delays (jittered hops): advance and re-sort."""
        ts = self.ts
        for i, d in enumerate(delays):
            ts[i] += d
        if any(ts[i] > ts[i + 1] for i in range(len(ts) - 1)):
            order = sorted(range(len(ts)), key=ts.__getitem__)
            self.ts = [ts[i] for i in order]
            self.frame_ids = [self.frame_ids[i] for i in order]
            self.created_at = [self.created_at[i] for i in order]
            if self.src_ports is not None:
                self.src_ports = [self.src_ports[i] for i in order]

    def run(self, first: int, end: int, ts: List[float]) -> "FrameBatch":
        """Members ``first:end`` at times ``ts``, sharing the exemplar
        (a link's settled run of a held batch)."""
        ports = self.src_ports
        return FrameBatch(self.frame, self.frame_ids[first:end], ts,
                          self.created_at[first:end],
                          None if ports is None else ports[first:end])

    def fanout_copies(self, m: int) -> List["FrameBatch"]:
        """``m`` batch copies with *fresh* member ids (fan-out).

        Ids are allocated frame-major -- member 0's ``m`` copies first,
        then member 1's, and so on -- because that is the order the
        per-frame path's ``Frame.copy()`` loop draws them in (each frame
        copies for every extra egress before the next frame arrives).
        Keeping the draw order identical keeps the shared id counter in
        lockstep, so copies carry oracle-identical ids too.
        """
        n = len(self.frame_ids)
        ids: List[List[int]] = [[0] * n for _ in range(m)]
        for i in range(n):
            for j in range(m):
                ids[j][i] = next(_frame_ids)
        out = []
        ports = self.src_ports
        for j in range(m):
            clone = self.frame.replica()
            clone.frame_id = ids[j][0]
            out.append(FrameBatch(clone, ids[j], list(self.ts),
                                  list(self.created_at),
                                  None if ports is None else list(ports)))
        return out

    def frame_at(self, i: int) -> Frame:
        """Materialize member ``i`` as a standalone :class:`Frame`."""
        clone = self.frame.replica()
        clone.frame_id = self.frame_ids[i]
        clone.created_at = self.created_at[i]
        if self.src_ports is not None:
            clone.src_port = self.src_ports[i]
        return clone

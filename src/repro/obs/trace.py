"""Per-hop packet tracing across the mediation chain.

A frame's journey through the MTS chain (VM -> virtio/VF -> vswitch VM
-> VF -> VEB -> wire, Fig. 3) is recorded as one :class:`Span` per hop:
link enqueue/transmit, flow-table lookup (with hit/miss outcome and
which cache layer answered), bridge pass, VEB forwarding decision, NIC
filter verdict, every timed hop (NIC transit, vhost crossing, tenant
forwarder, fabric switch), and every drop with its reason.  Spans
carry the frame id as trace context (stable along a unicast journey;
:meth:`Frame.copy` on multicast fan-out starts a new trace) plus the
tenant id, so journeys can be grouped per tenant.

This is the simulator's only per-frame record.  Every delay a frame
meets lies in exactly one span, and the spans that add one keep its
exact value (``attrs["delay"]`` of a timed hop; ``wait``, ``queue`` and
``service`` of a bridge pass) for folds that must match the simulator's
arithmetic bit for bit.

The disabled default is :class:`NullTracer`: every hook is the same
shared no-op, so an instrumentation site costs its callers exactly one
attribute load and an empty call -- there are no conditionals in the
hot paths.  :func:`repro.obs.enable_tracing` swaps in a recording
:class:`PacketTracer` bound to the simulation clock.

Span ordering is total and deterministic: every span gets a global
sequence number at record time, so spans sharing one simulated
timestamp (common: a whole cached pipeline pass happens at one instant)
still replay in exact causal order.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    """One hop of one frame's journey."""

    __slots__ = ("trace_id", "seq", "component", "kind", "start", "end",
                 "outcome", "tenant", "attrs")

    def __init__(self, trace_id: int, seq: int, component: str, kind: str,
                 start: float, end: float, outcome: str,
                 tenant: Optional[int], attrs: Optional[dict]) -> None:
        self.trace_id = trace_id
        self.seq = seq
        self.component = component
        self.kind = kind
        self.start = start
        self.end = end
        self.outcome = outcome
        self.tenant = tenant
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        d = {
            "trace_id": self.trace_id,
            "seq": self.seq,
            "component": self.component,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "outcome": self.outcome,
        }
        if self.tenant is not None:
            d["tenant"] = self.tenant
        if self.attrs:
            d["attrs"] = self.attrs
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(d["trace_id"], d["seq"], d["component"], d["kind"],
                   d["start"], d["end"], d.get("outcome", ""),
                   d.get("tenant"), d.get("attrs"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span #{self.seq} trace={self.trace_id} "
                f"{self.component}/{self.kind} [{self.start:.9f}, "
                f"{self.end:.9f}] {self.outcome}>")


def _noop(*args, **kwargs) -> None:
    return None


class NullTracer:
    """The zero-cost disabled tracer: every hook is a shared no-op."""

    enabled = False

    kernel_run = staticmethod(_noop)
    link_send = staticmethod(_noop)
    flow_lookup = staticmethod(_noop)
    bridge_rx = staticmethod(_noop)
    bridge_tx = staticmethod(_noop)
    veb_forward = staticmethod(_noop)
    nic_filter = staticmethod(_noop)
    hop = staticmethod(_noop)
    drop = staticmethod(_noop)


def _span(rec: tuple, seq: int) -> Span:
    """The :class:`Span` of one raw record (see :class:`PacketTracer`),
    whose first field is the span's kind."""
    kind = rec[0]
    if kind == "flowtable.lookup":
        _, fid, name, now, rule, source, in_port, tenant = rec
        attrs = {"source": source, "in_port": in_port}
        if rule is None:
            outcome = "miss"
        else:
            outcome = "hit"
            attrs["cookie"] = rule.cookie
            attrs["priority"] = rule.priority
        return Span(fid, seq, name, kind, now, now, outcome, tenant, attrs)
    if kind == "link.tx":
        _, fid, name, t_start, t_done, t_arrival, tenant, wire = rec
        return Span(fid, seq, name, kind, t_start, t_arrival, "sent", tenant,
                    {"bytes": wire, "serialization": t_done - t_start})
    if kind == "link.enqueue":
        _, fid, name, t_submit, t_start, tenant = rec
        return Span(fid, seq, name, kind, t_submit, t_start, "queued",
                    tenant, None)
    if kind == "vswitch.rx":
        _, fid, name, now, cached, port_no, tenant = rec
        return Span(fid, seq, name, kind, now, now,
                    "plan_cache_hit" if cached else "pipeline", tenant,
                    {"in_port": port_no})
    if kind == "vswitch.tx":
        _, fid, name, t_dispatch, now, port_no, tenant, wait, service = rec
        attrs = {"out_port": port_no}
        if t_dispatch is None:
            t_dispatch = now
        else:  # the time beyond wait and service went to rx-ring queueing
            attrs.update(wait=wait, service=service,
                         queue=max(0.0, now - t_dispatch - wait - service))
        return Span(fid, seq, name, kind, t_dispatch, now, "forwarded",
                    tenant, attrs)
    if kind == "veb.forward":
        _, fid, name, now, ingress, vlan, decision, tenant = rec
        return Span(fid, seq, name, kind, now, now, decision.reason, tenant,
                    {"ingress": ingress, "vlan": vlan,
                     "destinations": list(decision.destinations),
                     "flooded": decision.flooded})
    if kind == "nic.filter":
        _, fid, name, now, vf_name, verdict, tenant = rec
        return Span(fid, seq, name, kind, now, now, verdict, tenant,
                    {"vf": vf_name})
    if kind == "drop":
        _, fid, name, now, reason, tenant = rec
        return Span(fid, seq, name, kind, now, now, reason, tenant, None)
    _, fid, name, now, outcome, delay, tenant = rec  # a timed hop
    return Span(fid, seq, name, kind, now, now + delay, outcome, tenant,
                {"delay": delay})


class PacketTracer:
    """Recording tracer: one :class:`Span` per hook invocation.

    Recording is two-phase to keep the hot-path hook cost near an
    append: each hook pushes one raw argument tuple (values frozen at
    record time where the source object mutates later, deferred
    otherwise) onto ``_raw``, and :class:`Span` objects -- allocation,
    sequence numbers, attrs dicts -- are materialized lazily on the
    first query through :attr:`spans`.  Materialization preserves
    append order, so sequence numbers are identical to eager recording.

    ``capacity`` bounds memory on long runs; once reached, further spans
    are counted in ``spans_dropped`` but not stored (the trace stays a
    valid prefix).
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 capacity: int = 1_000_000, sim=None) -> None:
        self._clock: Callable[[], float] = clock or (lambda: 0.0)
        #: When bound to a Simulator, hooks read ``sim._now`` directly:
        #: one attribute load instead of a closure call plus a property
        #: descriptor per span.
        self._sim = sim
        self.capacity = capacity
        self._raw: List[tuple] = []
        self._spans: List[Span] = []
        #: Total records accepted (raw + materialized): the capacity
        #: check is one int compare instead of two len() calls.
        self._count = 0
        self.spans_dropped = 0
        self._seq = 0
        #: Kernel progress samples: (sim_now, events_fired, heap_depth,
        #: wall_seconds) per ``Simulator.run`` return.
        self.kernel_samples: List[Tuple[float, int, int, float]] = []

    def bind_sim(self, sim) -> None:
        """Bind the hot-path clock to ``sim`` (see ``_sim`` above)."""
        self._sim = sim

    # -- recording core ----------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Recorded spans, materializing any pending raw records."""
        if self._raw:
            self._spans = list(self.iter_spans())
            self._seq += len(self._raw)
            self._raw = []
        return self._spans

    def iter_spans(self) -> Iterator[Span]:
        """Every span in record order, as :attr:`spans` lists them, but
        pending raw records are built one at a time and not kept: a
        one-pass fold over a long run holds one span, not all of them."""
        yield from self._spans
        for seq, rec in enumerate(self._raw, self._seq + 1):
            yield _span(rec, seq)

    # -- hooks (called from the instrumented hot paths) --------------------

    def kernel_run(self, sim_now: float, events_fired: int,
                   heap_depth: int, wall_seconds: float) -> None:
        """One ``Simulator.run`` call completed (wall-vs-sim progress)."""
        self.kernel_samples.append(
            (sim_now, events_fired, heap_depth, wall_seconds))

    def link_send(self, name: str, frame, t_submit: float, t_start: float,
                  t_done: float, t_arrival: float) -> None:
        """A frame was handed to a link: an enqueue span (head-of-line
        wait) when it had to queue, then the transmit span (serialization
        + propagation)."""
        cap = self.capacity
        if t_start > t_submit:
            if self._count < cap:
                self._count += 1
                self._raw.append(("link.enqueue", frame.frame_id, name,
                                  t_submit, t_start, frame.tenant_id))
            else:
                self.spans_dropped += 1
        if self._count < cap:
            self._count += 1
            # wire_size() depends on headers that mutate down the chain,
            # so it is frozen here rather than deferred.
            self._raw.append(("link.tx", frame.frame_id, name, t_start,
                              t_done, t_arrival, frame.tenant_id,
                              frame.wire_size()))
        else:
            self.spans_dropped += 1

    def flow_lookup(self, table_name: str, frame, in_port: int,
                    rule, source: str) -> None:
        """One flow-table lookup; ``source`` names the layer that
        answered: ``emc``, ``tss`` (tuple-space search), ``linear``, or
        ``plan`` (replayed from the bridge's pass-plan cache)."""
        if self._count < self.capacity:
            self._count += 1
            sim = self._sim
            self._raw.append(("flowtable.lookup", frame.frame_id, table_name,
                              sim._now if sim is not None else self._clock(),
                              rule, source, in_port, frame.tenant_id))
        else:
            self.spans_dropped += 1

    def bridge_rx(self, bridge_name: str, frame, port_no: int,
                  plan_cached: bool) -> None:
        if self._count < self.capacity:
            self._count += 1
            sim = self._sim
            self._raw.append(("vswitch.rx", frame.frame_id, bridge_name,
                              sim._now if sim is not None else self._clock(),
                              plan_cached, port_no, frame.tenant_id))
        else:
            self.spans_dropped += 1

    def bridge_tx(self, bridge_name: str, frame, port_no: int,
                  t_dispatch: Optional[float] = None, wait: float = 0.0,
                  service: float = 0.0) -> None:
        """A bridge pass handed ``frame`` to ``port_no``.  A timed pass
        spans from its dispatch at ``t_dispatch`` to now: ``wait``
        (pass jitter), rx-ring queueing and ``service``."""
        if self._count < self.capacity:
            self._count += 1
            sim = self._sim
            self._raw.append(("vswitch.tx", frame.frame_id, bridge_name,
                              t_dispatch,
                              sim._now if sim is not None else self._clock(),
                              port_no, frame.tenant_id, wait, service))
        else:
            self.spans_dropped += 1

    def veb_forward(self, veb_name: str, frame, ingress: str, vlan: int,
                    decision) -> None:
        """The NIC's embedded switch decided egress for a frame.
        ``decision`` is immutable after return, so its fields are read
        lazily at materialization."""
        if self._count < self.capacity:
            self._count += 1
            sim = self._sim
            self._raw.append(("veb.forward", frame.frame_id, veb_name,
                              sim._now if sim is not None else self._clock(),
                              ingress, vlan, decision, frame.tenant_id))
        else:
            self.spans_dropped += 1

    def nic_filter(self, nic_port: str, vf_name: str, frame,
                   verdict: str) -> None:
        """Ingress security chain verdict on a VF transmit (``pass``,
        ``spoof_drop``, ``filter_drop``, ``rate_limited``,
        ``unconfigured``)."""
        if self._count < self.capacity:
            self._count += 1
            sim = self._sim
            self._raw.append(("nic.filter", frame.frame_id, nic_port,
                              sim._now if sim is not None else self._clock(),
                              vf_name, verdict, frame.tenant_id))
        else:
            self.spans_dropped += 1

    def hop(self, component: str, frame, kind: str, outcome: str,
            delay: float) -> None:
        """A timed hop: ``frame`` spends ``delay`` in ``component`` from
        now on (NIC transit, vhost crossing, tenant forwarder, fabric
        switch).  ``attrs["delay"]`` keeps the exact value, which the
        span's end minus its start may miss in the last bit."""
        if self._count < self.capacity:
            self._count += 1
            sim = self._sim
            self._raw.append((kind, frame.frame_id, component,
                              sim._now if sim is not None else self._clock(),
                              outcome, delay, frame.tenant_id))
        else:
            self.spans_dropped += 1

    def drop(self, component: str, frame, reason: str) -> None:
        """A frame left the chain: where and why."""
        if self._count < self.capacity:
            self._count += 1
            sim = self._sim
            self._raw.append(("drop", frame.frame_id, component,
                              sim._now if sim is not None else self._clock(),
                              reason, frame.tenant_id))
        else:
            self.spans_dropped += 1

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def trace_ids(self) -> List[int]:
        seen: Dict[int, None] = {}
        for span in self.spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def journey(self, trace_id: int) -> List[Span]:
        """All spans of one frame in causal order.  Sorting key is
        ``(start, seq)``: sim timestamps first, with the record sequence
        breaking the (frequent) equal-timestamp ties deterministically."""
        spans = [s for s in self.spans if s.trace_id == trace_id]
        spans.sort(key=lambda s: (s.start, s.seq))
        return spans

    def breakdown(self, trace_id: int) -> Dict[str, float]:
        """Per-stage latency of one frame: summed span durations keyed by
        span kind (instantaneous decision spans contribute 0).  For a
        delivered frame they sum to its whole journey."""
        totals: Dict[str, float] = {}
        for span in self.journey(trace_id):
            totals[span.kind] = totals.get(span.kind, 0.0) + span.duration
        return totals

    def drops(self) -> List[Span]:
        return [s for s in self.spans
                if s.kind == "drop" or s.outcome.endswith("_drop")]

    # -- export ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per span, one span per line."""
        return "\n".join(json.dumps(s.to_dict(), sort_keys=True)
                         for s in self.spans)

    def clear(self) -> None:
        self._raw.clear()
        self._spans.clear()
        self._count = 0
        self.kernel_samples.clear()
        self.spans_dropped = 0


def journeys_from_jsonl(text: str) -> Dict[int, List[Span]]:
    """Reconstruct per-packet journeys from a JSON-lines span dump."""
    by_trace: Dict[int, List[Span]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        span = Span.from_dict(json.loads(line))
        by_trace.setdefault(span.trace_id, []).append(span)
    for spans in by_trace.values():
        spans.sort(key=lambda s: (s.start, s.seq))
    return by_trace

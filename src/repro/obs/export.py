"""Exporters: JSON-lines span dumps, Prometheus text, summary tables.

Three consumers, three formats:

- **JSON-lines** span dumps are the raw material for offline journey
  reconstruction (:func:`repro.obs.trace.journeys_from_jsonl`) -- one
  span per line, greppable, streamable;
- the **Prometheus text snapshot** is what a real deployment would
  scrape; here it goes to a file or stdout;
- the **summary tables** reuse :class:`repro.measure.reporting.Table`
  so the per-tenant, per-component run summary renders exactly like the
  paper-style experiment tables it prints next to.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.measure.reporting import Series, Table
from repro.obs.journal import write_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import PacketTracer, Span
from repro.units import USEC


def write_spans_jsonl(tracer: PacketTracer, path: str) -> int:
    """Dump all recorded spans as JSON-lines; returns the span count."""
    text = tracer.to_jsonl()
    with open(path, "w") as handle:
        handle.write(text)
        if text:
            handle.write("\n")
    return len(tracer.spans)


def write_prometheus(registry: MetricsRegistry, path: str) -> None:
    """Write a Prometheus exposition-format snapshot."""
    with open(path, "w") as handle:
        handle.write(registry.prometheus_text())


def _write_dicts_jsonl(items, path: str) -> int:
    return write_jsonl((item.to_dict() if hasattr(item, "to_dict") else item
                        for item in items), path)


def write_usage_jsonl(records, path: str) -> int:
    """Dump usage records (``UsageRecord`` objects or their dicts) as
    JSON-lines, one window-tenant entry per line; returns the count."""
    return _write_dicts_jsonl(records, path)


def write_invoices_jsonl(invoices, path: str) -> int:
    """Dump per-tenant invoices as JSON-lines; returns the count."""
    return _write_dicts_jsonl(invoices, path)


def _tenant_label(tenant: Optional[int]) -> str:
    return f"tenant{tenant}" if tenant is not None else "untagged"


def tenant_latency_table(tracer: PacketTracer,
                         title: str = "Per-tenant per-stage latency "
                                      "(mean over traced spans)") -> Table:
    """Rows: tenants; columns: span kinds with nonzero duration; cells:
    mean span duration in microseconds."""
    sums: Dict[Tuple[str, str], float] = {}
    counts: Dict[Tuple[str, str], int] = {}
    for span in tracer.spans:
        if span.duration <= 0:
            continue
        key = (_tenant_label(span.tenant), span.kind)
        sums[key] = sums.get(key, 0.0) + span.duration
        counts[key] = counts.get(key, 0) + 1
    table = Table(title=title, unit="us", fmt=lambda v: f"{v:.2f}")
    tenants = sorted({t for t, _ in sums})
    kinds = sorted({k for _, k in sums})
    for tenant in tenants:
        series = Series(label=tenant)
        for kind in kinds:
            if (tenant, kind) in sums:
                series.add(kind,
                           sums[(tenant, kind)] / counts[(tenant, kind)] / USEC)
        table.add_series(series)
    return table


def tenant_hop_table(tracer: PacketTracer,
                     title: str = "Per-tenant hop counts "
                                  "(spans by component kind)") -> Table:
    """Rows: tenants; columns: span kinds; cells: span counts (drops and
    filter verdicts included, so mediation gaps are visible per tenant)."""
    counts: Dict[Tuple[str, str], int] = {}
    for span in tracer.spans:
        key = (_tenant_label(span.tenant), span.kind)
        counts[key] = counts.get(key, 0) + 1
    table = Table(title=title, unit="spans", fmt=lambda v: f"{v:.0f}")
    tenants = sorted({t for t, _ in counts})
    kinds = sorted({k for _, k in counts})
    for tenant in tenants:
        series = Series(label=tenant)
        for kind in kinds:
            if (tenant, kind) in counts:
                series.add(kind, counts[(tenant, kind)])
        table.add_series(series)
    return table


def drop_report(tracer: PacketTracer) -> List[str]:
    """Human-readable drop lines: component, reason, count, tenants hit."""
    agg: Dict[Tuple[str, str], List[Optional[int]]] = {}
    for span in tracer.drops():
        agg.setdefault((span.component, span.outcome), []).append(span.tenant)
    lines = []
    for (component, reason), tenants in sorted(agg.items()):
        affected = sorted({t for t in tenants if t is not None})
        suffix = f" (tenants {affected})" if affected else ""
        lines.append(f"{component}: {len(tenants)} x {reason}{suffix}")
    return lines


def journey_report(spans: List[Span]) -> str:
    """Render one packet's journey, one hop per line, with cumulative
    sim time and per-hop duration."""
    if not spans:
        return "(no spans)"
    t0 = spans[0].start
    lines = [f"trace {spans[0].trace_id}"
             + (f" (tenant {spans[0].tenant})" if spans[0].tenant is not None
                else "")]
    for span in spans:
        dur = (f" +{span.duration / USEC:8.2f}us" if span.duration > 0
               else " " * 12)
        lines.append(
            f"  t={(span.start - t0) / USEC:10.2f}us{dur}  "
            f"{span.component:<24} {span.kind:<18} {span.outcome}")
    return "\n".join(lines)

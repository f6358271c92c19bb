"""Unified telemetry: sim-time metrics registry, per-hop packet tracing
and per-component latency attribution.

The observability layer has five moving parts:

- :mod:`repro.obs.metrics` -- named counters/gauges/histograms with
  labels, recorded against *simulated* time;
- :mod:`repro.obs.trace` -- the packet tracer: one span per hop through
  the mediation chain, reconstructable into per-packet journeys;
- :mod:`repro.obs.attribution` -- the latency-attribution tap: one
  typed column per latency component, indexed by frame id, fed by the
  per-frame and the batched data plane alike;
- :mod:`repro.obs.journal` -- the event journal: one flat
  ``{"t", "layer", "kind", ...}`` record per fault or lifecycle
  transition, and its JSON-lines exporter;
- :mod:`repro.obs.export` -- JSON-lines span dumps, Prometheus text
  snapshots, and paper-style summary tables.

Three module-level globals are the integration surface the dataplane
uses:

``TRACER``
    The active tracer.  By default a :class:`NullTracer` whose hooks
    are shared no-ops, so instrumentation sites cost one attribute load
    and an empty call when tracing is off.  Hot paths call it as
    ``_obs.TRACER.hook(...)`` -- always through the module attribute,
    never a cached local, so :func:`enable_tracing` takes effect
    everywhere at once.  Its spans exist only on the per-frame path: a
    recording tracer holds the "tracer" oracle mark on every live
    deployment, and it is the only thing that holds that mark.

``TAP``
    The active latency-attribution tap, a :class:`NullTap` unless an
    :func:`attributing` block runs.  The per-frame hook sites feed it
    next to the tracer, and the batched chain's hops feed it through
    batch twins, so it holds no oracle mark.

``REGISTRY``
    The process-wide :class:`MetricsRegistry`.  Control-plane events
    write it directly; hot-path cache stats are *pulled* in by
    :func:`repro.obs.integrate.harvest` after each harness run.

Typical use (also what ``repro obs`` does)::

    from repro import obs
    deployment = build_deployment(spec, scenario)
    tracer = obs.enable_tracing(deployment.sim)
    ... run traffic ...
    journey = tracer.journey(frame.frame_id)
    print(obs.REGISTRY.prometheus_text())
    obs.disable_tracing()
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.attribution import COMPONENTS, LatencyTap, NullTap
from repro.obs.trace import NullTracer, PacketTracer, Span, journeys_from_jsonl
from repro.obs import integrate as _integrate

#: The active tracer; swapped by enable_tracing()/disable_tracing().
TRACER = NullTracer()

#: The active latency-attribution tap; swapped by attributing().
TAP = NullTap()

#: The process-wide metrics registry.
REGISTRY = MetricsRegistry()

#: When true, TestbedHarness.run prints the per-tenant per-component
#: summary tables after every run (set by the ``repro obs`` CLI).
PRINT_RUN_SUMMARY = False

#: Every live built deployment.  The tracer is process-wide, so it
#: touches all of them: while it records, each holds a "tracer" oracle
#: mark (its per-hop spans exist only on the per-frame path).
_DEPLOYMENTS: "weakref.WeakSet" = weakref.WeakSet()


def enable_tracing(sim=None, capacity: int = 1_000_000) -> PacketTracer:
    """Swap in a recording tracer, bound to ``sim``'s clock when given.
    Returns the tracer (also reachable as ``repro.obs.TRACER``)."""
    global TRACER
    if not TRACER.enabled:
        for deployment in list(_DEPLOYMENTS):
            deployment.hold_oracle("tracer")
    tracer = PacketTracer(capacity=capacity, sim=sim)
    TRACER = tracer
    if sim is not None:
        REGISTRY.set_clock(lambda: sim.now)
    return tracer


def disable_tracing() -> None:
    """Restore the zero-cost no-op tracer."""
    global TRACER
    if TRACER.enabled:
        for deployment in list(_DEPLOYMENTS):
            deployment.release_oracle("tracer")
    TRACER = NullTracer()


@contextmanager
def tracing(sim=None, capacity: int = 1_000_000) -> Iterator[PacketTracer]:
    """Record into a fresh tracer for the ``with`` block, then put back
    the tracer that was active before it (the no-op one, or an outer
    recording tracer, which the block's spans do not reach)."""
    global TRACER
    previous = TRACER
    tracer = enable_tracing(sim, capacity)
    try:
        yield tracer
    finally:
        if not previous.enabled:
            disable_tracing()  # releases the deployments' marks
        TRACER = previous


@contextmanager
def attributing(egress_link: str, since: float = 0.0
                ) -> Iterator[LatencyTap]:
    """Attribute latency into a fresh :class:`LatencyTap` for the
    ``with`` block: it captures the frames whose transmit on the link
    named ``egress_link`` starts at or after ``since``.

    The block's frames reach the tap alone.  Span recording is
    suspended for it, as :func:`tracing` keeps its spans from an outer
    tracer, and the tracer active before comes back after it.  A
    deployment that a tracer marked keeps its mark, so its runs still
    take the oracle; the tap reads the same values there."""
    global TAP, TRACER
    previous_tap, previous_tracer = TAP, TRACER
    TRACER = NullTracer()
    TAP = tap = LatencyTap(egress_link, since)
    try:
        yield tap
    finally:
        TAP = previous_tap
        if TRACER.enabled:
            disable_tracing()  # enabled inside the block: its marks go
        TRACER = previous_tracer


def tracing_enabled() -> bool:
    return TRACER.enabled


def set_print_run_summary(on: bool) -> None:
    global PRINT_RUN_SUMMARY
    PRINT_RUN_SUMMARY = on


def on_deployment_built(deployment) -> None:
    """Bind the registry (and an active tracer) to a new deployment's
    simulation clock.  Called by ``build_deployment``; with several live
    deployments the most recently built one owns the clock."""
    _DEPLOYMENTS.add(deployment)
    sim = deployment.sim
    REGISTRY.set_clock(lambda: sim.now)
    if TRACER.enabled:
        TRACER.bind_sim(sim)
        deployment.hold_oracle("tracer")


def on_run_complete(harness, result) -> None:
    """Called by ``TestbedHarness.run`` after every run: harvest cache
    stats into the registry and (when enabled) print the per-tenant
    per-component summary tables."""
    _integrate.harvest(harness.deployment, REGISTRY)
    if PRINT_RUN_SUMMARY and TRACER.enabled:
        from repro.obs.export import tenant_hop_table, tenant_latency_table
        print(tenant_latency_table(TRACER).render())
        print()
        print(tenant_hop_table(TRACER).render())


# Re-exported integration helpers (the documented public surface).
harvest = _integrate.harvest
harvest_fabric = _integrate.harvest_fabric
fabric_gauges = _integrate.fabric_gauges
cache_efficacy_line = _integrate.cache_efficacy_line
deployment_metrics = _integrate.deployment_metrics

__all__ = [
    "COMPONENTS",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "LatencyTap",
    "MetricsRegistry",
    "NullTap",
    "NullTracer",
    "PacketTracer",
    "Span",
    "journeys_from_jsonl",
    "TRACER",
    "TAP",
    "REGISTRY",
    "attributing",
    "enable_tracing",
    "tracing",
    "disable_tracing",
    "tracing_enabled",
    "set_print_run_summary",
    "on_deployment_built",
    "on_run_complete",
    "harvest",
    "harvest_fabric",
    "fabric_gauges",
    "cache_efficacy_line",
    "deployment_metrics",
]

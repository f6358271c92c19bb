"""Layer spans for the benchmark's traced run, installed from outside.

The simulator has no span hooks of its own at the granularity the
benchmark needs, so this module wraps the entry points of each layer
module at class (or module-function) level: every call records a span
(layer, start, end, parent) and folds its *self* time -- duration minus
the time covered by child spans -- into a per-layer total.  Wall time
not covered by any root span is the ``other`` remainder, so per-layer
self times plus ``other`` add up to the traced wall exactly.

Wrappers must be installed before any deployment is built: objects
capture bound methods (port callbacks, station hooks) at construction.

Two pieces are separate because the untraced run needs the first:

- :class:`FrameCounter` counts frames sent/delivered per harness run
  (``sim_pps`` and the delivered <= sent check) and attaches the counts
  and the sampled machine speed (``clock.py``) to every
  ``ScenarioResult``, so pool workers forked after it was installed
  report theirs back through ``result.metrics``;
- :class:`SpanTracer` adds the spans and layer counters.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import clock

#: ``ScenarioResult.metrics`` keys carrying the frame counts back from
#: pool workers (not engine counter families, so the engine ignores
#: them when folding worker metrics).
SENT_KEY = "perfbench_frames_sent"
DELIVERED_KEY = "perfbench_frames_delivered"
FASTPATH_KEY = "perfbench_frames_fastpath"
SPEED_SUM_KEY = "perfbench_speed_sum"
SPEED_N_KEY = "perfbench_speed_samples"


_MISSING = object()


class Patches:
    """Attribute replacements that :meth:`restore` undoes, newest
    first (the tests install and remove wrappers in one process)."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def replace_function(self, module_name: str, name: str,
                         make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function everywhere it was imported
        by name (``from x import f`` copies the reference)."""
        original = getattr(importlib.import_module(module_name), name)
        wrapper = make(original)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, name, None) is original):
                self.set(module, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


class FrameCounter:
    """Frames sent and delivered by every ``TestbedHarness.run``, also
    attached per scenario (with the machine speed sampled during it) to
    each ``ScenarioResult``.  Pool workers restart the sampler."""

    def __init__(self) -> None:
        self.patches = Patches()
        self.sent = 0
        self.delivered = 0
        self.fastpath = 0
        self.runs: List[Tuple[int, int]] = []
        #: In-process engine scenarios and their summed elapsed seconds.
        self.scenarios = 0
        self.scenario_seconds = 0.0

    def install(self) -> None:
        from repro.traffic.harness import TestbedHarness

        counter = self
        run = TestbedHarness.run

        @functools.wraps(run)
        def counted_run(harness, *args, **kwargs):
            result = run(harness, *args, **kwargs)
            counter.sent += result.sent
            counter.delivered += result.delivered
            if harness.lg.batch:
                counter.fastpath += result.sent
            counter.runs.append((result.sent, result.delivered))
            return result

        self.patches.set(TestbedHarness, "run", counted_run)

        def make(run_scenario):
            @functools.wraps(run_scenario)
            def counted_scenario(*args, **kwargs):
                sent, delivered, fast = (counter.sent, counter.delivered,
                                         counter.fastpath)
                sampler = clock.ACTIVE
                mark = sampler.mark() if sampler is not None else 0
                result = run_scenario(*args, **kwargs)
                if sampler is not None:
                    speeds = sampler.speeds[mark:]
                    result.metrics[SPEED_SUM_KEY] = sum(speeds)
                    result.metrics[SPEED_N_KEY] = len(speeds)
                counter.scenarios += 1
                counter.scenario_seconds += result.elapsed
                result.metrics[SENT_KEY] = counter.sent - sent
                result.metrics[DELIVERED_KEY] = counter.delivered - delivered
                result.metrics[FASTPATH_KEY] = counter.fastpath - fast
                return result
            return counted_scenario

        self.patches.replace_function("repro.scenario.engine",
                                      "run_scenario", make)

        from repro.scenario import engine
        warm_worker = engine._warm_worker

        @functools.wraps(warm_worker)
        def sampling_worker(*args, **kwargs):
            # A forked worker inherits the sampler but not its timer.
            if clock.ACTIVE is not None:
                clock.ACTIVE.start()
            return warm_worker(*args, **kwargs)

        self.patches.set(engine, "_warm_worker", sampling_worker)


#: (layer, module, owner, attribute): the wrapped entry points.  The
#: owner is a class name, or None for a module-level function.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("traffic.generator", "repro.traffic.generator", "LoadGenerator", "_emit"),
    ("traffic.generator", "repro.traffic.generator", "LoadGenerator",
     "_emit_batched"),
    ("net.link", "repro.net.link", "Link", "send"),
    ("net.link", "repro.net.link", "Link", "send_batch"),
    ("net.link", "repro.net.link", "Link", "send_interleaved"),
    ("net.link", "repro.net.link", "Link", "_deliver_batch"),
    ("sriov.nic", "repro.sriov.nic", "NicPort", "_receive_from_fabric"),
    ("sriov.nic", "repro.sriov.nic", "NicPort", "_receive_from_fabric_batch"),
    ("sriov.nic", "repro.sriov.nic", "NicPort", "_receive_from_vf"),
    ("sriov.nic", "repro.sriov.nic", "NicPort", "_receive_from_vf_batch"),
    ("sriov.nic", "repro.sriov.nic", "NicPort", "_to_function"),
    ("sriov.nic", "repro.sriov.nic", "NicPort", "_to_function_batch"),
    ("sriov.nic", "repro.sriov.nic", "NicPort", "_to_fabric"),
    ("sriov.nic", "repro.sriov.nic", "NicPort", "_to_fabric_batch"),
    ("sriov.switch", "repro.sriov.switch", "VebSwitch", "forward"),
    ("sriov.switch", "repro.sriov.switch", "VebSwitch", "forward_batch"),
    ("sriov.filters", "repro.sriov.filters", "FilterChain", "evaluate"),
    ("sriov.filters", "repro.sriov.filters", "FilterChain", "evaluate_batch"),
    ("sriov.pcie", "repro.sriov.pcie", "PcieBus", "transfer_time"),
    ("sriov.pcie", "repro.sriov.pcie", "PcieBus", "transfer_time_batch"),
    ("vswitch.ovs", "repro.vswitch.ovs", "OvsBridge", "_ingress"),
    ("vswitch.ovs", "repro.vswitch.ovs", "OvsBridge", "_ingress_batch"),
    ("vswitch.ovs", "repro.vswitch.ovs", "OvsBridge", "_submit"),
    ("vswitch.ovs", "repro.vswitch.ovs", "OvsBridge", "_execute"),
    ("vswitch.ovs", "repro.vswitch.ovs", "OvsBridge", "_execute_batch"),
    ("vswitch.flowtable", "repro.vswitch.flowtable", "FlowTable", "lookup"),
    ("vswitch.megaflow", "repro.vswitch.megaflow", "MegaflowCache",
     "lookup_cost"),
    ("vswitch.megaflow", "repro.vswitch.megaflow", "MegaflowCache",
     "lookup_cost_batch"),
    ("sim.resources", "repro.sim.resources", "BatchFairStation", "_wake"),
    ("sim.resources", "repro.sim.resources", "BatchFairStation",
     "submit_group"),
    ("sim.resources", "repro.sim.resources", "BatchFairStation",
     "submit_member"),
    ("sim.resources", "repro.sim.resources", "FairServiceStation", "submit"),
    ("sim.resources", "repro.sim.resources", "FairServiceStation", "_finish"),
    ("sim.resources", "repro.sim.resources", "ServiceStation", "submit"),
    ("sim.resources", "repro.sim.resources", "ServiceStation", "_finish"),
    ("sim.kernel", "repro.sim.kernel", "Simulator", "run"),
    ("host.virtio", "repro.host.virtio", "VhostPath", "_to_guest"),
    ("host.virtio", "repro.host.virtio", "VhostPath", "_to_host"),
    ("traffic.sink", "repro.traffic.sink", "Sink", "_on_frame"),
    ("traffic.sink", "repro.traffic.sink", "Sink", "_on_batch"),
    ("traffic.monitor", "repro.traffic.sink", "LatencyMonitor", "_on_ingress"),
    ("traffic.monitor", "repro.traffic.sink", "LatencyMonitor", "_on_egress"),
    ("traffic.monitor", "repro.traffic.sink", "LatencyMonitor",
     "_on_ingress_batch"),
    ("traffic.monitor", "repro.traffic.sink", "LatencyMonitor",
     "_on_egress_batch"),
    ("traffic.harness", "repro.traffic.harness", "TestbedHarness", "run"),
    ("core.deployment", "repro.core.deployment", None, "build_deployment"),
    ("scenario.engine", "repro.scenario.engine", "Engine", "run"),
    ("billing.meter", "repro.billing.meter", "TenantMeter", "cpu"),
    ("billing.meter", "repro.billing.meter", "TenantMeter", "pcie"),
    ("billing.meter", "repro.billing.meter", "TenantMeter", "drop"),
    ("billing.meter", "repro.billing.meter", "TenantMeter", "fault_drop"),
    ("fabric.hybrid", "repro.fabric.hybrid", "FabricDeployment",
     "run_hybrid"),
    ("fabric.hybrid", "repro.fabric.hybrid", "FabricDeployment",
     "run_pure_des"),
    ("perfmodel.capacity", "repro.perfmodel.capacity", None, "solve"),
    ("perfmodel.capacity", "repro.perfmodel.capacity", None,
     "solve_with_background"),
    ("controlplane.service", "repro.controlplane.service", "ControlPlane",
     "run"),
)

#: Every layer a span can belong to, plus ``experiments`` (the plan's
#: thunks, wrapped by the workload) and the ``other`` remainder.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for layer, _, _, _ in ENTRY_POINTS] + ["experiments", "other"]))

#: Spans kept verbatim for :meth:`SpanTracer.write`; every later call
#: is still folded into the per-layer totals.
KEEP_SPANS = 200_000

#: Layers whose *inclusive* time (children included) is also summed.
INCLUSIVE = ("core.deployment", "fabric.hybrid", "perfmodel.capacity",
             "controlplane.service")


class SpanTracer:
    """In-memory spans with exact per-layer self time.

    Every call is folded into ``self_time``/``calls``; the first
    :data:`KEEP_SPANS` spans are also kept verbatim as (id, layer, start, end,
    parent id; 0 for a root) and written out by :meth:`write`.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.root_time = 0.0
        self.patches = Patches()
        self._stack: List[list] = []  # [child seconds, span id]
        self._next_id = 1

    # -- spans --------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with a span of ``layer`` around every call."""
        perf = time.perf_counter
        stack = self._stack
        self_time, calls, spans = self.self_time, self.calls, self.spans
        inclusive = self.inclusive if layer in INCLUSIVE else None
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, sid]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self_time[layer] += duration - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.root_time += duration
                if inclusive is not None:
                    inclusive[layer] += duration
                if len(spans) < KEEP_SPANS:
                    spans.append((sid, layer, start, end, parent))
        return spanned

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`.  Counter
        probes go on first, so each span (outermost) also covers the
        probe of its own layer."""
        self._install_counters()
        for layer, module_name, owner, attr in ENTRY_POINTS:
            if owner is None:
                self.patches.replace_function(
                    module_name, attr, lambda fn, l=layer: self.wrap(l, fn))
            else:
                cls = getattr(importlib.import_module(module_name), owner)
                self.patches.set(cls, attr,
                                 self.wrap(layer, getattr(cls, attr)))

    # -- counters -----------------------------------------------------------

    def _probe(self, cls, attr: str,
               count: Callable[[object, tuple, object, object], None],
               before: Optional[Callable[[object, tuple], object]] = None
               ) -> None:
        """Wrap ``cls.attr`` with a counter probe:
        ``count(self, args, result, before(self, args))``."""
        fn = getattr(cls, attr)

        @functools.wraps(fn)
        def probed(obj, *args, **kwargs):
            pre = before(obj, args) if before is not None else None
            result = fn(obj, *args, **kwargs)
            count(obj, args, result, pre)
            return result

        self.patches.set(cls, attr, probed)

    def _install_counters(self) -> None:
        from repro.sim.kernel import Simulator
        from repro.sim.resources import (BatchFairStation,
                                         FairServiceStation, ServiceStation)
        from repro.vswitch.flowtable import FlowTable
        from repro.vswitch.megaflow import MegaflowCache
        from repro.vswitch.ovs import OvsBridge

        c = self.counts

        def plan(bridge, args, result, pre):
            hits, rx = pre
            c["ovs.plan_hits"] += bridge.plan_cache_hits - hits
            c["ovs.plan_lookups"] += args[0].rx_frames - rx

        def plan_stats(bridge, args):
            return bridge.plan_cache_hits, args[0].rx_frames

        self._probe(OvsBridge, "_ingress", plan, plan_stats)
        self._probe(OvsBridge, "_ingress_batch", plan, plan_stats)

        def lookup(table, args, result, hits):
            c["flowtable.lookups"] += 1
            if table.fastpath:
                c["flowtable.emc_lookups"] += 1
                c["flowtable.emc_hits"] += table.emc_stats.hits - hits

        self._probe(FlowTable, "lookup", lookup,
                    lambda table, args: table.emc_stats.hits)

        def megaflow(cache, args, result, pre):
            hits, misses = pre
            c["megaflow.hits"] += cache.stats.hits - hits
            c["megaflow.lookups"] += (cache.stats.hits - hits
                                      + cache.stats.misses - misses)

        def cache_stats(cache, args):
            return cache.stats.hits, cache.stats.misses

        self._probe(MegaflowCache, "lookup_cost", megaflow, cache_stats)
        self._probe(MegaflowCache, "lookup_cost_batch", megaflow, cache_stats)

        def kernel(sim, args, result, fired):
            c["kernel.events"] += sim.events_fired - fired

        self._probe(Simulator, "run", kernel,
                    lambda sim, args: sim.events_fired)

        def wake(station, args, result, dropped):
            c["resources.wakes"] += 1
            c["resources.drops"] += station.dropped() - dropped

        self._probe(BatchFairStation, "_wake", wake,
                    lambda station, args: station.dropped())

        def admit_group(station, args, result, members):
            c["resources.admissions"] += members

        self._probe(BatchFairStation, "submit_group", admit_group,
                    lambda station, args: len(args[0].sub_ts))

        def admit_one(station, args, result, pre):
            c["resources.admissions"] += 1
            if result is False:
                c["resources.drops"] += 1

        def finish(station, args, result, pre):
            c["resources.wakes"] += 1

        self._probe(BatchFairStation, "submit_member", admit_one)
        for cls in (FairServiceStation, ServiceStation):
            self._probe(cls, "submit", admit_one)
            self._probe(cls, "_finish", finish)

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """The kept spans as JSON lines (id, layer, start, end, parent)."""
        with open(path, "w") as handle:
            for sid, layer, start, end, parent in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "layer": layer, "start": start, "end": end,
                     "parent": parent}) + "\n")

"""The scenario engine: pluggable execution over frozen specs.

Layering::

    ScenarioSpec list --> Engine --> backend --> measurement function
                            |
                            +--> ResultStore (content-addressed cache)

The **engine** owns policy: result-cache lookups, within-run
deduplication of identical specs, and order preservation (results come
back in input order no matter how the backend schedules).  The
**backend** owns mechanics only; two are provided:

- :class:`SequentialBackend` -- in-process, in-order; the default, and
  the reference implementation of the contract;
- :class:`ProcessPoolBackend` -- a **persistent warm-worker pool**
  around :class:`concurrent.futures.ProcessPoolExecutor`: workers are
  created once per backend and reused across ``run()`` calls, an
  initializer pre-imports the simulation stack and pre-binds the
  calibration, and specs travel in pickled batches (adaptive chunk
  size) rather than one future per scenario.  Results come back as
  pickled batches too; each batch's obs metric deltas are folded into
  the parent registry once.

Backend contract: given the same spec list, every backend must return
value-identical results in the same order.  Backends introduce **no
randomness** -- every seed is already pinned inside the specs (sweep
grids derive per-scenario seeds from the master seed via
:meth:`RngStreams.fork <repro.sim.rng.RngStreams.fork>` at
grid-construction time), which is what makes sequential and parallel
runs bit-identical.
"""

from __future__ import annotations

import math
import os
import re
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    as_completed,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ScenarioTimeoutError, ValidationError
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.scenario import context
from repro.scenario.registry import resolve
from repro.scenario.spec import (
    ScenarioResult,
    ScenarioSpec,
    calibration_ref,
)

#: Counter families shipped from workers and folded into the parent
#: registry (the obs cache/drop counters harvested per harness run,
#: plus the chaos layer's fault-lifecycle counters).
SHIPPED_COUNTERS = (
    "cache_hits_total",
    "cache_lookups_total",
    "cache_evictions_total",
    "plan_invalidations_total",
    "drops_total",
    "faults_injected_total",
    "fault_detections_total",
    "fault_recoveries_total",
    "fault_restart_attempts_total",
    "fault_giveups_total",
    "fault_circuit_open_total",
    "fault_noop_operations_total",
    # All billing_* families (cpu/io/pcie/passes/drops/windows).
    "billing_",
    # Fabric-switch flood/forward/per-port counters (fabric workloads).
    "fabric_",
    # Control-plane lifecycle/autoscale counters (controlplane.churn).
    # Enumerated (not the bare prefix) because the controlplane family
    # also has gauges and histograms, which must not fold as counters.
    "controlplane_transitions_total",
    "controlplane_illegal_transitions_total",
    "controlplane_invariant_violations_total",
    "controlplane_arrivals_total",
    "controlplane_rejections_total",
    "controlplane_placements_total",
    "controlplane_placement_retries_total",
    "controlplane_departures_total",
    "controlplane_evictions_total",
    "controlplane_crashes_total",
    "controlplane_detections_total",
    "controlplane_repairs_total",
    "controlplane_migrations_total",
    "controlplane_migrations_completed_total",
    "controlplane_scale_events_total",
)

_KEY_RE = re.compile(r"^(?P<name>\w+)(?:\{(?P<labels>.*)\})?$")
_LABEL_RE = re.compile(r'(\w+)="([^"]*)"')


def run_scenario(spec: ScenarioSpec,
                 calibration: Calibration = DEFAULT_CALIBRATION
                 ) -> ScenarioResult:
    """Execute one scenario in-process and capture its obs deltas."""
    if spec.calibration_ref != calibration_ref(calibration):
        raise ValidationError(
            f"scenario {spec.content_hash()[:12]} was built against "
            f"calibration {spec.calibration_ref}, engine runs "
            f"{calibration_ref(calibration)}")
    fn = resolve(spec.workload)
    before = obs.REGISTRY.snapshot()
    start = time.perf_counter()
    ctx = context.activate(
        spec.faults, spec.seed,
        metering=spec.param("metering", False),
        metering_interval=float(spec.param("metering_interval", 0.0)))
    try:
        values = fn(spec, calibration)
        events, usage = ctx.drain()
    finally:
        context.deactivate(ctx)
        ctx.release()
    elapsed = time.perf_counter() - start
    after = obs.REGISTRY.snapshot()
    metrics = {}
    for key, value in after.items():
        if key.startswith(SHIPPED_COUNTERS):
            delta = value - before.get(key, 0.0)
            if delta:
                metrics[key] = delta
    return ScenarioResult(
        spec_hash=spec.content_hash(),
        workload=spec.workload,
        label=spec.display_label,
        traffic=spec.traffic.value,
        # Sorted so fresh, pooled and cached results (JSON round-trips
        # sort keys) agree on column order everywhere downstream.
        values=dict(sorted(values.items())),
        metrics=metrics,
        elapsed=elapsed,
        events=events,
        usage=usage,
    )


def fold_metrics(registry, metrics: Dict[str, float]) -> None:
    """Fold shipped counter deltas (flat ``name{k="v"}`` keys) into a
    registry, so parallel runs report cache efficacy like local ones."""
    for key, delta in metrics.items():
        if delta <= 0:
            continue
        match = _KEY_RE.match(key)
        if not match or not match.group("name").startswith(SHIPPED_COUNTERS):
            continue
        labels = dict(_LABEL_RE.findall(match.group("labels") or ""))
        family = registry.counter(match.group("name"),
                                 labels=tuple(labels))
        family.labels(**labels).inc(delta)


class SequentialBackend:
    """In-process, in-order execution (the reference backend)."""

    name = "sequential"

    def run(self, specs: Sequence[ScenarioSpec],
            calibration: Calibration = DEFAULT_CALIBRATION
            ) -> List[ScenarioResult]:
        return [run_scenario(spec, calibration) for spec in specs]


def default_worker_count() -> int:
    """Cores actually available to this process: the cgroup/affinity
    mask when the platform exposes one (CI runners routinely pin jobs
    to a subset of the machine), else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


#: Batches submitted per worker by the adaptive chunk size: enough
#: slack for stragglers to rebalance, few enough that dispatch cost
#: amortizes across the batch.
OVERSUBSCRIBE = 4

#: Calibration pre-bound into each worker by the pool initializer, so
#: batches carry only specs (the calibration would otherwise be
#: re-pickled with every task).
_WORKER_CALIBRATION: Optional[Calibration] = None


def _warm_worker(calibration: Calibration, workloads: Sequence[str]) -> None:
    """Pool initializer: runs once per worker process.  Binds the
    calibration (priming its memoized ref) and pre-imports the
    measurement stack for the run's workloads, so per-batch cost is
    pure simulation."""
    global _WORKER_CALIBRATION
    _WORKER_CALIBRATION = calibration
    calibration_ref(calibration)
    from repro.scenario.registry import preload
    preload(workloads)


def _batch_worker(specs: Sequence[ScenarioSpec]
                  ) -> Tuple[int, List[ScenarioResult]]:
    """Run one pickled spec batch against the worker's bound
    calibration; results return as one pickled batch, with the
    worker's pid (the parent totals each worker's busy time)."""
    calibration = _WORKER_CALIBRATION or DEFAULT_CALIBRATION
    return os.getpid(), [run_scenario(spec, calibration) for spec in specs]


def worker_busy_line(registry) -> Optional[str]:
    """One line for the last pool run: its makespan and each worker's
    busy seconds (the summed ``elapsed`` of the batches it ran), or
    None before any pool run.  A wall change splits into per-spec cost
    (the busy sum) and chunk order (the makespan against the busiest
    worker)."""
    if "scenario_pool_makespan_seconds" not in registry:
        return None
    makespan = registry.family("scenario_pool_makespan_seconds")
    busy = registry.family("scenario_pool_worker_busy_seconds")
    workers = ", ".join(f"{pid} {child.value:.3f} s"
                        for (pid,), child in sorted(busy.children()))
    return (f"pool: makespan {makespan.labels().value:.3f} s; "
            f"busy per worker (pid): {workers}")


class ProcessPoolBackend:
    """Parallel execution across a persistent warm worker pool.

    Results return in input order and are value-identical to the
    sequential backend's because the specs pin every seed.  Worker obs
    metrics ship back inside the results and are folded into this
    process's registry once per batch.

    **Worker lifecycle.**  The ``ProcessPoolExecutor`` is created
    lazily on first use and *reused across ``run()`` calls*: process
    spawn, interpreter start, simulation-stack imports and calibration
    transfer are paid once per backend, not once per sweep chunk.  The
    pool is rebuilt only when the calibration changes (workers pre-bind
    it) or after a breakdown/timeout.  ``close()`` (or ``with``)
    releases the workers.

    **Batched dispatch.**  Specs are split into contiguous chunks --
    adaptive size ``ceil(len(specs) / (workers * OVERSUBSCRIBE))``,
    overridable via ``chunk`` -- and travel as pickled batches, not
    one JSON-dict future per scenario.  Collection uses
    ``as_completed`` under a wall-clock deadline, so a slow batch never
    head-of-line blocks the finished ones.

    Crash tolerance: a worker dying (OOM kill, segfault) breaks the
    executor and poisons every batch still pending, but results
    collected before the break are intact -- so instead of aborting the
    sweep, the backend discards the broken pool and reruns the poisoned
    specs sequentially in this process.  Breakdowns and retried specs
    are counted (``scenario_pool_breaks_total`` /
    ``scenario_pool_retries_total``) so a flaky fleet is observable.

    A worker that *hangs* is different: silently rerunning it would
    hang the parent too, so ``timeout`` (wall-clock seconds per
    scenario result) bounds the whole collection -- the deadline is
    ``timeout x chunk x rounds``, the worst-case serial depth per
    worker -- kills the pool and raises
    :class:`~repro.errors.ScenarioTimeoutError` naming the scenarios
    that never finished (everything else was already collected).
    """

    name = "process-pool"

    def __init__(self, max_workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 chunk: Optional[int] = None) -> None:
        self.max_workers = max_workers or default_worker_count()
        self.timeout = timeout
        self.chunk = chunk
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_cal_ref: Optional[str] = None

    # -- pool lifecycle ---------------------------------------------------

    def _ensure_pool(self, calibration: Calibration,
                     workloads: Sequence[str]) -> ProcessPoolExecutor:
        ref = calibration_ref(calibration)
        if self._pool is not None and self._pool_cal_ref == ref:
            return self._pool
        self.close()
        self._pool = ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_warm_worker,
            initargs=(calibration, tuple(workloads)))
        self._pool_cal_ref = ref
        return self._pool

    def _discard_pool(self, terminate: bool = False) -> None:
        """Drop the pool (broken, wedged, or closing); the next run
        builds a fresh one."""
        pool, self._pool, self._pool_cal_ref = self._pool, None, None
        if pool is None:
            return
        if terminate:
            # A wedged worker would make shutdown() join forever.
            for proc in list(pool._processes.values()):
                proc.terminate()
        pool.shutdown(wait=True, cancel_futures=True)

    def close(self) -> None:
        """Release the warm workers (idempotent)."""
        self._discard_pool()

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- scheduling -------------------------------------------------------

    def chunk_size(self, n: int) -> int:
        """Specs per batch: the explicit ``chunk`` if given, else
        adaptive from ``len(specs) / workers`` with ``OVERSUBSCRIBE``
        batches per worker for straggler rebalancing."""
        if self.chunk:
            return max(1, int(self.chunk))
        return max(1, math.ceil(n / (self.max_workers * OVERSUBSCRIBE)))

    def run(self, specs: Sequence[ScenarioSpec],
            calibration: Calibration = DEFAULT_CALIBRATION
            ) -> List[ScenarioResult]:
        if not specs:
            return []
        # Export the configured width even when the run degenerates to
        # sequential (1 worker / 1 spec): dashboards on single-core
        # containers otherwise never see the gauge at all.
        obs.REGISTRY.gauge(
            "scenario_pool_workers",
            "worker processes of the warm scenario pool",
        ).set(self.max_workers)
        if min(self.max_workers, len(specs)) <= 1:
            return SequentialBackend().run(specs, calibration)
        chunk = self.chunk_size(len(specs))
        batches = [range(start, min(start + chunk, len(specs)))
                   for start in range(0, len(specs), chunk)]
        pool = self._ensure_pool(
            calibration, sorted({s.workload for s in specs}))
        start = time.perf_counter()
        #: pid -> summed elapsed of the scenarios that process ran.
        busy: Dict[int, float] = {}

        results: List[Optional[ScenarioResult]] = [None] * len(specs)
        poisoned: List[int] = []
        broke = False
        futures = {}
        for idxs in batches:
            try:
                future = pool.submit(
                    _batch_worker, [specs[i] for i in idxs])
            except BrokenExecutor:  # died mid-submission
                broke = True
                poisoned.extend(idxs)
                continue
            futures[future] = idxs

        # Worst-case serial depth per worker bounds the wall clock.
        rounds = math.ceil(len(batches) / self.max_workers)
        budget = (None if self.timeout is None
                  else self.timeout * chunk * rounds)
        try:
            for future in as_completed(futures, timeout=budget):
                idxs = futures[future]
                try:
                    pid, batch = future.result()
                except BrokenExecutor:
                    broke = True
                    poisoned.extend(idxs)
                    continue
                busy[pid] = busy.get(pid, 0.0) + sum(r.elapsed
                                                     for r in batch)
                merged: Dict[str, float] = {}
                for i, result in zip(idxs, batch):
                    results[i] = result
                    for key, delta in result.metrics.items():
                        merged[key] = merged.get(key, 0.0) + delta
                fold_metrics(obs.REGISTRY, merged)  # once per batch
        except FuturesTimeoutError:
            pending = sorted(i for f, idxs in futures.items()
                             if not f.done() for i in idxs)
            completed = sum(1 for r in results if r is not None)
            self._discard_pool(terminate=True)
            names = ", ".join(
                f"{specs[i].content_hash()[:12]} ({specs[i].display_label})"
                for i in pending[:4])
            if len(pending) > 4:
                names += f", ... ({len(pending) - 4} more)"
            raise ScenarioTimeoutError(
                f"{len(pending)} scenario(s) produced no result within "
                f"the {budget:.1f}s deadline ({self.timeout}s/scenario): "
                f"{names}; {completed} finished result(s) were collected",
                pending=[specs[i].display_label for i in pending],
                completed=completed)
        except BaseException:
            # A workload raised (or the caller interrupted): drop the
            # still-queued batches so the warm pool drains, then
            # propagate like the sequential backend would.
            for future in futures:
                future.cancel()
            raise

        if broke:
            self._discard_pool()
            obs.REGISTRY.counter(
                "scenario_pool_breaks_total",
                "process-pool breakdowns survived by sequential fallback",
            ).inc()
            retries = obs.REGISTRY.counter(
                "scenario_pool_retries_total",
                "scenarios rerun in-process after a pool breakdown")
            for i in sorted(poisoned):
                retries.inc()
                # In-process rerun hits the parent registry directly;
                # no metrics fold (that would double-count).
                results[i] = run_scenario(specs[i], calibration)
                busy[os.getpid()] = (busy.get(os.getpid(), 0.0)
                                     + results[i].elapsed)
        self._record_busy(busy, time.perf_counter() - start)
        return results

    @staticmethod
    def _record_busy(busy: Dict[int, float], makespan: float) -> None:
        """Export the run's per-worker busy seconds (by pid; specs rerun
        in this process after a breakdown count under its own pid) and
        its makespan, from the first submission to the last result."""
        family = obs.REGISTRY.gauge(
            "scenario_pool_worker_busy_seconds",
            "summed scenario time each process ran in the last pool run",
            labels=("worker",))
        family.clear()
        for pid, seconds in busy.items():
            family.labels(worker=pid).set(seconds)
        obs.REGISTRY.gauge(
            "scenario_pool_makespan_seconds",
            "wall time of the last pool run, submission to last result",
        ).set(makespan)


class Engine:
    """Cache-aware scenario execution with a pluggable backend."""

    def __init__(self, backend=None, store=None,
                 calibration: Calibration = DEFAULT_CALIBRATION) -> None:
        self.backend = backend or SequentialBackend()
        self.store = store  # None = no caching
        self.calibration = calibration

    def run(self, specs: Sequence[ScenarioSpec]) -> List[ScenarioResult]:
        """Run ``specs``, serving store hits and deduplicating identical
        specs within the batch; results in input order.  The store is
        probed and filled through its batched ``get_many``/``put_many``
        entry points -- one store round per run, not one per spec."""
        results: List[Optional[ScenarioResult]] = [None] * len(specs)
        unique: List[int] = []
        first_of: Dict[str, int] = {}
        dupes: List[tuple] = []  # (index, first-index)

        for i, spec in enumerate(specs):
            key = spec.content_hash()
            if key in first_of:
                dupes.append((i, first_of[key]))
                continue
            first_of[key] = i
            unique.append(i)

        if self.store is not None and unique:
            hits = self.store.get_many([specs[i] for i in unique])
        else:
            hits = [None] * len(unique)

        pending: List[ScenarioSpec] = []
        pending_idx: List[int] = []
        for i, hit in zip(unique, hits):
            if hit is not None:
                results[i] = hit.relabeled(specs[i], cached=True)
            else:
                pending.append(specs[i])
                pending_idx.append(i)

        fresh = self.backend.run(pending, self.calibration)
        for i, result in zip(pending_idx, fresh):
            results[i] = result
        if self.store is not None and fresh:
            self.store.put_many(zip(pending, fresh))

        for i, j in dupes:
            results[i] = results[j].relabeled(specs[i], cached=True)
        return results

    def run_one(self, spec: ScenarioSpec) -> ScenarioResult:
        return self.run([spec])[0]

"""The metrics registry: named counters, gauges and histograms.

Every metric is recorded against *simulated* time (the registry holds a
clock callable, normally bound to ``Simulator.now``), so rates derived
from counters are physically meaningful packet/event rates, not
wall-clock artifacts of how fast the DES happened to run.

Metrics are organized as **families**: a family has a name, a help
string and a fixed label schema (e.g. ``("tenant", "component")``); the
family's :meth:`MetricFamily.labels` call returns the child holding one
label-value combination.  A family declared with no labels acts as its
own single child, so ``registry.counter("x").inc()`` just works.

Hot-path components do **not** write into the registry per packet --
they keep their cheap local counters (``FlowTable.emc_stats``,
``OvsBridge.plan_cache_hits``, ...) and register a *collector*: a
callback the registry runs at snapshot/export time to pull those values
in.  That keeps the instrumented fast paths at zero registry cost while
still giving one unified surface for export.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.measure.stats import SummaryStats, summarize

#: Default histogram buckets: latency-shaped, in seconds (500 ns .. 1 s).
DEFAULT_BUCKETS = (
    5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4, 1e-3, 1e-2, 1e-1, 1.0,
)


def _zero_clock() -> float:
    return 0.0


def _label_str(schema: Sequence[str], values: Tuple) -> str:
    if not schema:
        return ""
    pairs = ",".join(f'{k}="{v}"' for k, v in zip(schema, values))
    return "{" + pairs + "}"


class Counter:
    """A monotonically increasing count with first/last update times."""

    __slots__ = ("value", "first_t", "last_t", "_clock")

    def __init__(self, clock: Callable[[], float]) -> None:
        self.value = 0.0
        self.first_t: Optional[float] = None
        self.last_t: Optional[float] = None
        self._clock = clock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        now = self._clock()
        if self.first_t is None:
            self.first_t = now
        self.last_t = now
        self.value += amount

    def rate(self) -> float:
        """Mean rate per simulated second over the counter's active span."""
        if self.first_t is None or self.last_t is None:
            return 0.0
        span = self.last_t - self.first_t
        return self.value / span if span > 0 else 0.0


class Gauge:
    """A value that can go up and down; remembers when it was last set."""

    __slots__ = ("value", "last_t", "_clock")

    def __init__(self, clock: Callable[[], float]) -> None:
        self.value = 0.0
        self.last_t: Optional[float] = None
        self._clock = clock

    def set(self, value: float) -> None:
        self.value = value
        self.last_t = self._clock()

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)


class Histogram:
    """Fixed-bucket histogram that also retains raw samples.

    The buckets give the Prometheus-style cumulative export; the raw
    samples feed :func:`repro.measure.stats.summarize`, so percentile
    math lives in exactly one place (the module the paper-style tables
    already use) instead of being re-derived from bucket bounds.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "_samples",
                 "_clock", "last_t")

    def __init__(self, clock: Callable[[], float],
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +inf bucket
        self.count = 0
        self.sum = 0.0
        self._samples: List[float] = []
        self._clock = clock
        self.last_t: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self._samples.append(value)
        self.last_t = self._clock()
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def summary(self) -> SummaryStats:
        """Summary statistics of the raw samples (empty-safe)."""
        return summarize(self._samples, empty_ok=True)

    def samples(self) -> List[float]:
        return list(self._samples)

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper-bound, cumulative count) pairs, ending at +inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out


class MetricFamily:
    """One named metric with a fixed label schema and typed children."""

    def __init__(self, name: str, kind: str, help: str,
                 label_names: Sequence[str],
                 child_factory: Callable[[], object]) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self._children: Dict[Tuple, object] = {}
        self._factory = child_factory
        if not self.label_names:
            # Label-less family: materialize the single child eagerly so
            # the family itself can proxy inc/set/observe.
            self._children[()] = child_factory()

    def labels(self, **kv) -> object:
        if set(kv) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(kv))}")
        key = tuple(str(kv[k]) for k in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._factory()
            self._children[key] = child
        return child

    def children(self) -> Iterable[Tuple[Tuple, object]]:
        return self._children.items()

    def clear(self) -> None:
        """Drop every labelled child (a gauge family that describes
        only the latest run)."""
        if self.label_names:
            self._children.clear()

    # -- label-less convenience proxies ----------------------------------

    def _only(self):
        if self.label_names:
            raise ValueError(f"{self.name} has labels {self.label_names}; "
                             "use .labels(...)")
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._only().inc(amount)

    def set(self, value: float) -> None:
        self._only().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._only().dec(amount)

    def observe(self, value: float) -> None:
        self._only().observe(value)


class MetricsRegistry:
    """All metric families plus the pull-time collectors."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock: Callable[[], float] = clock or _zero_clock
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- clock -----------------------------------------------------------

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Bind the registry to a simulation clock (``sim's now`` getter).
        Existing metric instances keep recording against the new clock."""
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    def _tick(self) -> float:
        return self._clock()

    # -- family constructors ---------------------------------------------

    def _family(self, name: str, kind: str, help: str,
                labels: Sequence[str], factory) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} re-registered with a different "
                    f"type/label schema")
            return family
        family = MetricFamily(name, kind, help, labels, factory)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labels,
                            lambda: Counter(self._tick))

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labels,
                            lambda: Gauge(self._tick))

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> MetricFamily:
        return self._family(name, "histogram", help, labels,
                            lambda: Histogram(self._tick, buckets))

    def family(self, name: str) -> MetricFamily:
        return self._families[name]

    def families(self) -> List[MetricFamily]:
        return list(self._families.values())

    def __contains__(self, name: str) -> bool:
        return name in self._families

    # -- collectors -------------------------------------------------------

    def register_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """``fn(registry)`` runs on every :meth:`collect` to pull
        component-local counters (cache stats etc.) into the registry."""
        self._collectors.append(fn)

    def collect(self) -> None:
        for fn in list(self._collectors):
            fn(self)

    # -- snapshots & export ------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flattened ``name{label="v",...}`` -> value map (collectors run
        first).  Histograms contribute ``_count`` and ``_sum``."""
        self.collect()
        out: Dict[str, float] = {}
        for family in self._families.values():
            for values, child in family.children():
                suffix = _label_str(family.label_names, values)
                if family.kind == "histogram":
                    out[f"{family.name}_count{suffix}"] = child.count
                    out[f"{family.name}_sum{suffix}"] = child.sum
                else:
                    out[f"{family.name}{suffix}"] = child.value
        return out

    def prometheus_text(self) -> str:
        """Prometheus exposition-format snapshot (text, version 0.0.4)."""
        self.collect()
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for values, child in sorted(family.children()):
                suffix = _label_str(family.label_names, values)
                if family.kind == "histogram":
                    for bound, running in child.cumulative_buckets():
                        le = "+Inf" if math.isinf(bound) else repr(bound)
                        if family.label_names:
                            pairs = ",".join(
                                f'{k}="{v}"'
                                for k, v in zip(family.label_names, values))
                            lines.append(
                                f'{name}_bucket{{{pairs},le="{le}"}} {running}')
                        else:
                            lines.append(f'{name}_bucket{{le="{le}"}} {running}')
                    lines.append(f"{name}_sum{suffix} {child.sum}")
                    lines.append(f"{name}_count{suffix} {child.count}")
                else:
                    lines.append(f"{name}{suffix} {child.value}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop all metric state and collectors (tests, fresh runs)."""
        self._families.clear()
        self._collectors.clear()

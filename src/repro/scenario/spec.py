"""Frozen, content-addressed scenario specifications.

A :class:`ScenarioSpec` is the unit of work of the scenario engine: it
names *what* to run (a workload from the registry), *on what* (a
:class:`~repro.core.spec.DeploymentSpec` plus traffic scenario), and
*how* (duration, warmup, master seed, free-form workload parameters,
and the calibration the numbers are valid against).  Two properties
make it the backbone of caching and parallel execution:

- **JSON round-trip**: ``from_dict(to_dict(s)) == s``, so specs cross
  process boundaries and live in result files unchanged;
- **stable content hash**: :meth:`content_hash` is the SHA-256 of the
  spec's canonical JSON (sorted keys, no whitespace), *excluding* the
  cosmetic presentation fields (``label``, ``eval_mode``) and
  *including* the calibration ref -- so the hash is exactly the
  result-cache key: same hash, same numbers.

:class:`ScenarioResult` is the matching output record: the measured
values (a flat name -> float map), the obs metrics harvested during the
run, and bookkeeping (wall-clock elapsed, cache provenance) that is
deliberately excluded from :meth:`ScenarioResult.result_hash`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.errors import ValidationError
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION


def _jsonable(obj: Any) -> Any:
    """Recursively reduce dataclasses/enums/tuples to JSON-safe values
    (dict keys become strings, enum keys by their value)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return _jsonable(obj.value)
    if isinstance(obj, dict):
        return {str(_jsonable(k)): _jsonable(v)
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def canonical_json(data: Any) -> str:
    """Whitespace-free, key-sorted JSON -- the hashing wire format."""
    return json.dumps(_jsonable(data), sort_keys=True,
                      separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def calibration_ref(calibration: Calibration) -> str:
    """A short content ref of a calibration: hash of every constant.

    Any change to any empirical constant changes the ref, which changes
    every scenario hash built against it -- stale cached results can
    never be served against fresh constants.

    The ref is memoized on the calibration instance (an attribute, not
    a dataclass field, so it never leaks into serialization and
    ``dataclasses.replace`` copies never inherit it): the engine
    re-derives it once per scenario, and serializing ~40 constants per
    run is pure overhead.  Mutating a constant on a live calibration
    object after its ref was taken is unsupported -- build a new object
    (ablations already do).
    """
    cached = getattr(calibration, "_repro_cal_ref", None)
    if cached is None:
        cached = sha256_hex(canonical_json(calibration))[:16]
        try:
            object.__setattr__(calibration, "_repro_cal_ref", cached)
        except (AttributeError, TypeError):
            pass  # slotted/frozen stand-ins just recompute
    return cached


#: The ref every spec gets unless an ablation supplies its own.
DEFAULT_CALIBRATION_REF = calibration_ref(DEFAULT_CALIBRATION)

#: Parameter values allowed in ``ScenarioSpec.params``.
ParamValue = Union[str, int, float, bool]


@dataclass(frozen=True)
class ScenarioSpec:
    """One self-contained, executable measurement scenario."""

    #: Registry name of the measurement ("fig5.latency", ...).
    workload: str
    #: The deployment under test.
    deployment: DeploymentSpec
    #: Traffic pattern (Fig. 4's p2p / p2v / v2v).
    traffic: TrafficScenario = TrafficScenario.P2V
    #: DES send window in simulated seconds (0 for analytic workloads).
    duration: float = 0.0
    #: Measurement-window start inside the send window.
    warmup: float = 0.0
    #: Master seed for this scenario's RNG streams.
    seed: int = 0
    #: Presentation only: which figure row this point belongs to.
    #: Excluded from the content hash.
    eval_mode: str = ""
    #: Presentation only: the figure's bar/curve label ("L2(4)", ...).
    #: Excluded from the content hash.
    label: str = ""
    #: Free-form workload parameters, stored sorted for hash stability.
    params: Tuple[Tuple[str, ParamValue], ...] = ()
    #: Ref of the calibration the numbers are valid against.
    calibration_ref: str = DEFAULT_CALIBRATION_REF
    #: Optional fault campaign injected during the run.  ``None`` (the
    #: common case) serializes to *nothing* so pre-chaos spec hashes --
    #: and every cached result keyed by them -- stay valid.
    faults: Optional["FaultPlan"] = None

    def __post_init__(self) -> None:
        params = self.params
        if isinstance(params, Mapping):
            params = tuple(params.items())
        object.__setattr__(self, "params", tuple(sorted(params)))
        if isinstance(self.faults, Mapping):
            from repro.faults.plan import FaultPlan
            object.__setattr__(self, "faults",
                               FaultPlan.from_dict(self.faults))
        self.deployment.validate_scenario(self.traffic)
        if self.duration < 0:
            raise ValueError(f"negative duration: {self.duration}")
        if self.duration > 0 and not 0.0 <= self.warmup < self.duration:
            raise ValueError(
                f"need 0 <= warmup < duration, got warmup={self.warmup} "
                f"and duration={self.duration}")
        metering = self.param("metering", False)
        if not isinstance(metering, bool):
            raise ValidationError(
                f"metering must be a bool, got {metering!r}")
        interval = self.param("metering_interval", 0.0)
        if (isinstance(interval, bool)
                or not isinstance(interval, (int, float))
                or not math.isfinite(interval) or interval < 0):
            raise ValidationError(
                f"metering_interval must be a finite number >= 0, "
                f"got {interval!r}")

    # -- accessors --------------------------------------------------------

    def param(self, name: str, default: Optional[ParamValue] = None
              ) -> Optional[ParamValue]:
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def display_label(self) -> str:
        return self.label or f"{self.deployment.label}/{self.traffic.value}"

    # -- (de)serialization ------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "workload": self.workload,
            "deployment": self.deployment.to_dict(),
            "traffic": self.traffic.value,
            "duration": self.duration,
            "warmup": self.warmup,
            "seed": self.seed,
            "eval_mode": self.eval_mode,
            "label": self.label,
            "params": dict(self.params),
            "calibration_ref": self.calibration_ref,
        }
        if self.faults is not None:
            data["faults"] = self.faults.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        known = {"workload", "deployment", "traffic", "duration", "warmup",
                 "seed", "eval_mode", "label", "params", "calibration_ref",
                 "faults"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(
                f"unknown scenario fields: {sorted(unknown)}")
        kwargs = dict(data)
        kwargs["deployment"] = DeploymentSpec.from_dict(kwargs["deployment"])
        kwargs["traffic"] = TrafficScenario(kwargs["traffic"])
        if "params" in kwargs:
            kwargs["params"] = tuple(sorted(kwargs["params"].items()))
        if kwargs.get("faults") is not None:
            from repro.faults.plan import FaultPlan
            kwargs["faults"] = FaultPlan.from_dict(kwargs["faults"])
        return cls(**kwargs)

    # -- hashing ----------------------------------------------------------

    def content_dict(self) -> dict:
        """The hashed subset of :meth:`to_dict`: everything that can
        change the measured numbers.  ``label`` and ``eval_mode`` are
        presentation-only and excluded, so e.g. the Apache throughput
        and response-time rows share one cached point."""
        data = self.to_dict()
        del data["label"]
        del data["eval_mode"]
        return data

    def content_hash(self) -> str:
        """The stable SHA-256 identity -- also the result-cache key.

        Memoized on first call: the spec is frozen, so the hash can
        never go stale, while the engine/store/result path asks for it
        repeatedly (dedup key, cache probe, cache write, result record).
        The cache lives in ``__dict__`` rather than a dataclass field,
        so equality, ``repr`` and serialization are untouched -- and it
        rides along in pickles, sparing pool workers the recompute.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            cached = sha256_hex(canonical_json(self.content_dict()))
            object.__setattr__(self, "_content_hash", cached)
        return cached


@dataclass
class ScenarioResult:
    """The measured output of one scenario run."""

    #: ``content_hash()`` of the spec that produced this result.
    spec_hash: str
    workload: str
    label: str
    traffic: str
    #: The measurement: flat name -> value.
    values: Dict[str, float] = field(default_factory=dict)
    #: Obs counter deltas harvested during the run (cache hit/lookup
    #: totals, drops); shipped back from worker processes and folded
    #: into the parent registry.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: True when served from the result store (or deduplicated within a
    #: run) instead of executed.  Not part of the result hash.
    cached: bool = False
    #: Wall-clock seconds the measurement took.  Not part of the hash.
    elapsed: float = 0.0
    #: Journal events the run published (:mod:`repro.obs.journal`:
    #: ``{"t", "layer", "kind", ...}`` dicts) -- a chaos session's fault
    #: transitions, a churn run's lifecycle; empty otherwise.
    #: Deterministic given the spec, but kept out of the result hash
    #: like the other provenance.
    events: list = field(default_factory=list)
    #: Windowed usage records + billing summary dicts when the spec
    #: asked for metering (``("metering", True)`` param); empty
    #: otherwise.  Same treatment as ``events``: travels through
    #: workers and the result store, stays out of the result hash.
    usage: list = field(default_factory=list)

    def result_hash(self) -> str:
        """Hash of the *measured content* only: identical numbers from
        any backend, cached or fresh, hash identically."""
        return sha256_hex(canonical_json(
            {"spec": self.spec_hash, "values": self.values}))

    def to_dict(self) -> dict:
        return {
            "spec_hash": self.spec_hash,
            "workload": self.workload,
            "label": self.label,
            "traffic": self.traffic,
            "values": dict(self.values),
            "metrics": dict(self.metrics),
            "cached": self.cached,
            "elapsed": self.elapsed,
            "events": [dict(e) for e in self.events],
            "usage": [dict(u) for u in self.usage],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioResult":
        return cls(**data)

    def relabeled(self, spec: ScenarioSpec, cached: bool) -> "ScenarioResult":
        """A copy presented under ``spec``'s labels (cache hits may have
        been recorded under a different figure row's label)."""
        return dataclasses.replace(
            self, label=spec.display_label, traffic=spec.traffic.value,
            cached=cached, metrics=dict(self.metrics),
            values=dict(self.values), events=[dict(e) for e in self.events],
            usage=[dict(u) for u in self.usage])

"""Declarative fault campaigns: what breaks, when, and how healing works.

A :class:`FaultPlan` is to the chaos layer what a
:class:`~repro.scenario.spec.ScenarioSpec` is to the scenario engine: a
frozen, JSON-round-trippable description of *what to inject*, carried as
an optional field on the scenario spec so that the spec's content hash
-- and therefore the result cache -- distinguishes a run under failure
load from the same run without it.

Two scheduling styles per :class:`FaultSpec`:

- **scripted** (``at`` set): the fault fires at a fixed simulated time.
  With ``duration`` set the fault condition clears itself at
  ``at + duration`` (an operator-scripted repair, the legacy
  ``fault_isolation`` shape); with ``duration=None`` the component
  stays down until the supervisor heals it.
- **stochastic** (``mtbf``/``mttr`` set): failure times are exponential
  draws off a named :class:`~repro.sim.rng.RngStreams` stream, so the
  whole campaign is a pure function of the scenario seed.

Nothing in this module touches a deployment; it is imported by
``scenario.spec`` for (de)serialization and must stay dependency-light.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Tuple

from repro.errors import ValidationError


class FaultKind(Enum):
    """The fault taxonomy of the chaos layer."""

    #: A vswitch VM dies: every bridge port blackholes (frames DMA'd to
    #: its VFs land in dead rings) until repair.
    VSWITCH_CRASH = "vswitch-crash"
    #: An SR-IOV function resets: its rx ring drops frames until the
    #: function comes back.
    VF_RESET = "vf-reset"
    #: A physical link goes dark (optics pulled, switch port bounce).
    LINK_FLAP = "link-flap"
    #: A lossy burst: each frame on the target link is dropped with
    #: probability ``severity`` for ``duration`` seconds.
    PACKET_LOSS = "packet-loss"
    #: A corruption burst: frames are damaged in flight and fail the
    #: receiver's CRC check (counted separately from loss).
    PACKET_CORRUPT = "packet-corrupt"
    #: The SDN controller is unreachable: recovery re-sync stalls until
    #: the partition heals.
    CONTROLLER_PARTITION = "controller-partition"


#: Kinds that take a component *down* (watchdog-detectable outages), as
#: opposed to degradation bursts the heartbeat cannot see.
OUTAGE_KINDS = frozenset({
    FaultKind.VSWITCH_CRASH,
    FaultKind.VF_RESET,
    FaultKind.LINK_FLAP,
})

#: Kinds that act on a link's ``send``.
LINK_KINDS = frozenset({
    FaultKind.LINK_FLAP,
    FaultKind.PACKET_LOSS,
    FaultKind.PACKET_CORRUPT,
})

#: Kinds that act on the wire or a VF, upstream of every batch station:
#: they swap per-frame handlers the batched chain never calls, so a plan
#: holding one runs on the per-frame oracle.  A vswitch crash is a
#: catch-up point of the batched chain instead, and a controller
#: partition touches no frame.
UPSTREAM_KINDS = LINK_KINDS | {FaultKind.VF_RESET}


@dataclass(frozen=True)
class FaultSpec:
    """One fault: kind, target, schedule, and (optional) self-clearing.

    ``target`` is a string address resolved against the deployment at
    injection time: ``"compartment:K"`` (bridge / vswitch VM ``K``),
    ``"link:ingress"`` / ``"link:egress"`` (the harness wires),
    ``"vf:<name>"`` (an SR-IOV function by name), or ``"controller"``.
    """

    kind: FaultKind
    target: str = "compartment:0"
    #: Scripted injection time (simulated seconds from arming).
    at: Optional[float] = None
    #: Scripted clearance: the condition ends at ``at + duration``.
    #: ``None`` on an outage kind means the supervisor must heal it.
    duration: Optional[float] = None
    #: Stochastic: mean time between failures (exponential draws).
    mtbf: Optional[float] = None
    #: Stochastic: mean time to (operator-scripted) repair.  ``None``
    #: on an outage kind hands each occurrence to the supervisor.
    mttr: Optional[float] = None
    #: Drop/corruption probability for burst kinds, in (0, 1].
    severity: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.kind, str):
            object.__setattr__(self, "kind", FaultKind(self.kind))
        if (self.at is None) == (self.mtbf is None):
            raise ValidationError(
                f"fault {self.kind.value} on {self.target}: exactly one "
                "of 'at' (scripted) or 'mtbf' (stochastic) must be set")
        if self.at is not None and self.at < 0:
            raise ValidationError("fault time 'at' must be >= 0")
        if self.duration is not None and self.duration <= 0:
            raise ValidationError("fault duration must be positive")
        if self.mtbf is not None and self.mtbf <= 0:
            raise ValidationError("mtbf must be positive")
        if self.mttr is not None and self.mttr <= 0:
            raise ValidationError("mttr must be positive")
        if not 0.0 < self.severity <= 1.0:
            raise ValidationError(
                f"severity must be in (0, 1], got {self.severity}")
        if self.kind not in OUTAGE_KINDS and self.self_heal:
            raise ValidationError(
                f"{self.kind.value} is a degradation burst the watchdog "
                "cannot detect; it needs an explicit duration (scripted) "
                "or mttr (stochastic)")

    @property
    def scripted(self) -> bool:
        return self.at is not None

    @property
    def self_heal(self) -> bool:
        """True when the supervisor (not the script) must repair it."""
        if self.scripted:
            return self.duration is None
        return self.mttr is None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "target": self.target,
            "at": self.at,
            "duration": self.duration,
            "mtbf": self.mtbf,
            "mttr": self.mttr,
            "severity": self.severity,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        known = {"kind", "target", "at", "duration", "mtbf", "mttr",
                 "severity"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown fault fields: {sorted(unknown)}")
        return cls(**dict(data))


@dataclass(frozen=True)
class RestartPolicySpec:
    """Supervisor knobs: backoff, budget, breaker, recovery costs.

    All times are simulated seconds.  The supervisor models a hot
    respawn from a pre-booted image, not a full VM reboot.
    """

    #: First-restart delay; attempt ``k`` waits ``base * factor**(k-1)``.
    backoff_base: float = 0.005
    backoff_factor: float = 2.0
    #: Uniform jitter fraction on each backoff (+-jitter * delay).
    backoff_jitter: float = 0.2
    #: Total restarts the supervisor may spend per target.
    max_restarts: int = 5
    #: Process/VM respawn time once the backoff expires.
    restart_latency: float = 0.02
    #: Flow-table re-sync: per installed rule.
    resync_per_rule: float = 0.0001
    #: ARP re-learning: per tenant entry re-announced.
    arp_relearn_per_entry: float = 0.0002
    #: Warm-standby switchover time (Level-2 compartments).
    failover_latency: float = 0.005
    #: Consecutive quick re-failures before the breaker opens.
    circuit_threshold: int = 3
    #: A re-failure within this window of a recovery counts as "quick".
    circuit_window: float = 0.02

    def to_dict(self) -> dict:
        return {
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_jitter": self.backoff_jitter,
            "max_restarts": self.max_restarts,
            "restart_latency": self.restart_latency,
            "resync_per_rule": self.resync_per_rule,
            "arp_relearn_per_entry": self.arp_relearn_per_entry,
            "failover_latency": self.failover_latency,
            "circuit_threshold": self.circuit_threshold,
            "circuit_window": self.circuit_window,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RestartPolicySpec":
        known = set(cls().to_dict())
        unknown = set(data) - known
        if unknown:
            raise ValidationError(
                f"unknown restart-policy fields: {sorted(unknown)}")
        return cls(**dict(data))


@dataclass(frozen=True)
class FaultPlan:
    """A whole campaign: the faults plus detection/healing parameters."""

    faults: Tuple[FaultSpec, ...] = ()
    #: Watchdog probe interval (detection latency is bounded by this).
    heartbeat: float = 0.005
    policy: RestartPolicySpec = field(default_factory=RestartPolicySpec)
    #: Level-2 compartments fail over to a warm standby instead of a
    #: cold restart (the per-tenant availability upgrade of §3.2).
    warm_standby: bool = False
    #: Stop stochastic injection after this long; ``None`` = the run's
    #: duration, supplied when the session arms.
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        faults = tuple(
            f if isinstance(f, FaultSpec) else FaultSpec.from_dict(f)
            for f in self.faults)
        object.__setattr__(self, "faults", faults)
        if isinstance(self.policy, Mapping):
            object.__setattr__(
                self, "policy", RestartPolicySpec.from_dict(self.policy))
        if self.heartbeat <= 0:
            raise ValidationError("heartbeat must be positive")

    def to_dict(self) -> dict:
        return {
            "faults": [f.to_dict() for f in self.faults],
            "heartbeat": self.heartbeat,
            "policy": self.policy.to_dict(),
            "warm_standby": self.warm_standby,
            "horizon": self.horizon,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        known = {"faults", "heartbeat", "policy", "warm_standby", "horizon"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown plan fields: {sorted(unknown)}")
        kwargs = dict(data)
        kwargs["faults"] = tuple(
            FaultSpec.from_dict(f) for f in kwargs.get("faults", ()))
        if "policy" in kwargs:
            kwargs["policy"] = RestartPolicySpec.from_dict(kwargs["policy"])
        return cls(**kwargs)


def scripted_crash(compartment: int = 0, at: float = 0.05,
                   duration: Optional[float] = None,
                   **plan_kwargs) -> FaultPlan:
    """The canonical single-crash campaign: compartment ``compartment``
    dies at ``at``; scripted repair after ``duration``, or
    supervisor-healed when ``duration`` is ``None``."""
    return FaultPlan(faults=(FaultSpec(
        kind=FaultKind.VSWITCH_CRASH, target=f"compartment:{compartment}",
        at=at, duration=duration),), **plan_kwargs)

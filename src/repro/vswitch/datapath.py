"""Datapath cost and timing models: kernel OVS vs OVS-DPDK.

Whether a vswitch keeps up with the offered load is decided by cycles:
each forwarding *pass* (one traversal of the switch, rx -> lookup ->
actions -> tx) costs

    base + rx_cost(in-port class) + tx_cost(out-port class)
         + rewrite (if the matched rule rewrites headers)
         + poll tax (DPDK: cycles wasted polling every attached port)

and a core supplies ``effective_hz`` cycles per second (a full core, or
a 1/K share in the paper's *shared* resource mode).  The same numbers
drive both the analytic capacity solver and the discrete-event latency
simulation, so the two views cannot drift apart.

Latency extras are datapath-specific:

- the kernel path pays interrupt/softirq wakeup latency per pass,
- the DPDK path pays a poll/drain wait (the l2fwd/OVS-DPDK drain
  interval is 100 us in the paper's setup), and multi-queue ports at
  very low per-queue rates exhibit the ~1 ms drain anomaly the paper
  reports for the Baseline at 10 kpps,
- compartments time-sharing a core see scheduling jitter proportional
  to the number of sharers (the latency-variance effect of Fig. 5(b)).

Concrete constants live in :mod:`repro.perfmodel.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Optional, Tuple

from repro.sim.hashjit import HashJitter
from repro.units import USEC

_SITE_FIXED = HashJitter.SITE_FIXED_WAIT
_SITE_SCHED = HashJitter.SITE_SCHED_WAIT
_SITE_DRAIN = HashJitter.SITE_DRAIN_WAIT
_SITE_ANOMALY = HashJitter.SITE_DRAIN_ANOMALY


class DatapathMode(Enum):
    KERNEL = "kernel"
    DPDK = "dpdk"


class PortClass(Enum):
    """What a bridge port is plugged into; picks the rx/tx cost row."""

    PHYSICAL = "physical"        # host-attached physical NIC port
    VF = "vf"                    # SR-IOV VF passed into the vswitch VM
    VHOST = "vhost"              # kernel vhost/virtio tenant port (Baseline)
    DPDK_VHOST_CLIENT = "dpdkvhostuserclient"  # Baseline L3 tenant port


@dataclass
class PassCosts:
    """Per-pass cycle costs and latency parameters of one datapath mode."""

    base_cycles: float
    rx_cycles: Dict[PortClass, float]
    tx_cycles: Dict[PortClass, float]
    rewrite_cycles: float = 0.0
    poll_tax_cycles_per_port: float = 0.0
    #: Fixed per-pass latency (kernel: interrupt + softirq wakeup).
    fixed_latency: float = 0.0
    #: Upper bound of the uniform poll/drain wait (DPDK only).
    drain_jitter: float = 0.0
    #: Scheduling timeslice used for shared-core jitter (a packet may
    #: find the core running another compartment for up to
    #: (sharers-1) x slice; vhost/KVM halt-polling keeps slices short).
    sched_slice: float = 30.0 * USEC
    #: Per-queue offered rate below which a multi-queue DPDK port shows
    #: the ~1 ms drain anomaly (paper section 4.2).
    drain_anomaly_threshold_pps: float = 25_000.0
    #: Mean of the anomaly wait.
    drain_anomaly_wait: float = 1000.0 * USEC

    def pass_cycles(
        self,
        in_class: PortClass,
        out_class: PortClass,
        rewrites: bool,
        num_ports: int = 2,
    ) -> float:
        """Cycles one forwarding pass costs."""
        cycles = (
            self.base_cycles
            + self.rx_cycles[in_class]
            + self.tx_cycles[out_class]
            + self.poll_tax_cycles_per_port * num_ports
        )
        if rewrites:
            cycles += self.rewrite_cycles
        return cycles


@dataclass
class DatapathTiming:
    """Latency of one pass through a datapath.

    ``service`` occupies the core; ``wait`` (interrupt/softirq, drain
    and scheduling waits, summed) does not: it is pure latency before
    the pass reaches the core's rx ring, overlappable across packets.
    """

    service: float
    wait: float = 0.0


class DatapathModel:
    """Computes per-pass cycles and latency for one bridge.

    The bridge owns one of these; ``mode`` selects kernel vs DPDK
    behaviour and ``costs`` carries the calibrated constants.
    """

    def __init__(self, mode: DatapathMode, costs: PassCosts) -> None:
        self.mode = mode
        self.costs = costs
        #: Set by experiments so the DES can reproduce rate-dependent
        #: effects (the DPDK multi-queue drain anomaly) without modelling
        #: every empty poll iteration.
        self.offered_rate_hint_pps: Optional[float] = None
        self._pass_waits: Dict[tuple, Callable[[int], float]] = {}

    def pass_cycles(self, in_class: PortClass, out_class: PortClass,
                    rewrites: bool, num_ports: int) -> float:
        return self.costs.pass_cycles(in_class, out_class, rewrites, num_ports)

    def wait_form(self, sharers: int, num_queues: int
                  ) -> Tuple[Tuple[int, ...], Callable[..., float]]:
        """The wait of a pass on a core share with ``sharers`` tenants
        and the datapath spread over ``num_queues`` queues, as a
        function of its draws: ``(sites, wait)``, where ``wait`` takes
        one uniform draw per site, in ``sites`` order.

        The kernel path waits for interrupt + softirq wakeup (mean
        1.125x the nominal figure); the DPDK path for the poll/drain
        interval, plus the multi-queue drain anomaly where it applies.
        While K compartments time-share a core, a pass may also find
        the core scheduled elsewhere for up to (K-1) timeslices.  This
        is the only place the wait is summed: the per-member
        (:meth:`pass_wait`) and lane (:meth:`timing_batch`) paths both
        call ``wait``, so they add the same terms in the same order.
        """
        costs = self.costs
        span = (sharers - 1) * costs.sched_slice if sharers > 1 else 0.0
        if self.mode == DatapathMode.KERNEL:
            fixed = costs.fixed_latency
            if span:
                return ((_SITE_FIXED, _SITE_SCHED),
                        lambda f, s: fixed * (1.0 + 0.25 * f) + span * s)
            return (_SITE_FIXED,), lambda f: fixed * (1.0 + 0.25 * f)
        drain = costs.drain_jitter
        anomaly = self._anomaly_scale(num_queues)
        if anomaly and span:
            return ((_SITE_DRAIN, _SITE_ANOMALY, _SITE_SCHED),
                    lambda d, a, s: (drain * d + anomaly * (0.6 + 0.8 * a)
                                     + span * s))
        if anomaly:
            return ((_SITE_DRAIN, _SITE_ANOMALY),
                    lambda d, a: drain * d + anomaly * (0.6 + 0.8 * a))
        if span:
            return (_SITE_DRAIN, _SITE_SCHED), lambda d, s: drain * d + span * s
        return (_SITE_DRAIN,), lambda d: drain * d

    def pass_wait(self, jitter: HashJitter, sharers: int, num_queues: int,
                  shift: int = 0, tag: int = 0) -> Callable[[int], float]:
        """The wait of one pass (see :meth:`wait_form`) as a function
        of ``k``, for the jitter key ``(k << shift) | tag``.

        Every draw is keyed (``jitter.unit(key, site)``): a pure
        per-frame function, identical no matter how passes are
        interleaved, which is what lets the batched paths reproduce the
        per-frame oracle bit for bit.  Made once per distinct argument
        set (and rate hint), as the per-frame oracle asks for it at
        every pass.
        """
        memo = (jitter, sharers, num_queues, shift, tag,
                self.offered_rate_hint_pps)
        wait_of_key = self._pass_waits.get(memo)
        if wait_of_key is not None:
            return wait_of_key
        sites, wait = self.wait_form(sharers, num_queues)
        draws = [jitter.site_unit(site, shift, tag) for site in sites]
        if len(draws) == 1:
            (d0,) = draws
            wait_of_key = lambda k: wait(d0(k))
        elif len(draws) == 2:
            d0, d1 = draws
            wait_of_key = lambda k: wait(d0(k), d1(k))
        else:
            d0, d1, d2 = draws
            wait_of_key = lambda k: wait(d0(k), d1(k), d2(k))
        self._pass_waits[memo] = wait_of_key
        return wait_of_key

    def timing(
        self,
        cycles: float,
        effective_hz: float,
        sharers: int,
        num_queues: int,
        jitter: HashJitter,
        key: int,
    ) -> DatapathTiming:
        """Latency of one pass (see :meth:`wait_form`) keyed by ``key``
        (the frame id, with the ingress port mixed in)."""
        return DatapathTiming(
            service=cycles / effective_hz,
            wait=self.pass_wait(jitter, sharers, num_queues)(key))

    def timing_batch(
        self,
        cycles: float,
        effective_hz: float,
        sharers: int,
        num_queues: int,
        jitter: HashJitter,
        keys: "list[int]",
        key_shift_or: int,
    ) -> "tuple[list[float], list[float]]":
        """Vectorized :meth:`timing` for a same-flow burst.

        Returns parallel ``(service, wait)`` lists.  Draw-for-draw
        identical to per-member :meth:`timing` calls with
        ``key=(k << 6) | key_shift_or`` (``key_shift_or`` packs the
        ingress-port mask): the burst's draws come from one
        :meth:`HashJitter.units` call, in lanes.
        """
        svc = [cycles / effective_hz] * len(keys)
        sites, wait = self.wait_form(sharers, num_queues)
        # One pass over the key-major draws, len(sites) at a time.
        draws = iter(jitter.units(keys, sites, 6, key_shift_or))
        return svc, list(map(wait, *[draws] * len(sites)))

    def _anomaly_scale(self, num_queues: int) -> float:
        """Mean wait of the ~1 ms Baseline multi-queue effect at low
        per-queue rates (0 when the anomaly does not apply)."""
        if num_queues < 2 or self.offered_rate_hint_pps is None:
            return 0.0
        per_queue = self.offered_rate_hint_pps / num_queues
        if per_queue >= self.costs.drain_anomaly_threshold_pps:
            return 0.0
        return self.costs.drain_anomaly_wait

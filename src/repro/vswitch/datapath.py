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
from typing import Callable, Dict, Optional

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

    def pass_cycles(self, in_class: PortClass, out_class: PortClass,
                    rewrites: bool, num_ports: int) -> float:
        return self.costs.pass_cycles(in_class, out_class, rewrites, num_ports)

    def pass_wait(self, jitter: HashJitter, sharers: int,
                  num_queues: int) -> Callable[[int], float]:
        """The wait of a pass on a core share with ``sharers`` tenants
        and the datapath spread over ``num_queues`` queues, as a
        function of the pass's jitter key.

        The kernel path waits for interrupt + softirq wakeup (mean
        1.125x the nominal figure); the DPDK path for the poll/drain
        interval, plus the multi-queue drain anomaly where it applies.
        While K compartments time-share a core, a pass may also find
        the core scheduled elsewhere for up to (K-1) timeslices.  Every
        draw is keyed (``jitter.unit(key, site)``): a pure per-frame
        function, identical no matter how passes are interleaved, which
        is what lets the batched paths reproduce the per-frame oracle
        bit for bit.  Per-frame, batched and fused passes all take
        their waits from here, so the draws and the order of the sum
        are the same everywhere.
        """
        unit = jitter.unit
        costs = self.costs
        kernel = self.mode == DatapathMode.KERNEL
        fixed = costs.fixed_latency
        drain = costs.drain_jitter
        anomaly = 0.0 if kernel else self._anomaly_scale(num_queues)
        span = (sharers - 1) * costs.sched_slice if sharers > 1 else 0.0

        def wait(key: int) -> float:
            if kernel:
                total = fixed * (1.0 + 0.25 * unit(key, _SITE_FIXED))
            else:
                total = drain * unit(key, _SITE_DRAIN)
                if anomaly:
                    total += anomaly * (0.6 + 0.8 * unit(key, _SITE_ANOMALY))
            if span:
                total += span * unit(key, _SITE_SCHED)
            return total

        return wait

    def timing(
        self,
        cycles: float,
        effective_hz: float,
        sharers: int,
        num_queues: int,
        jitter: HashJitter,
        key: int,
    ) -> DatapathTiming:
        """Latency of one pass (see :meth:`pass_wait`) keyed by ``key``
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
        ``key=(k << 6) | mask`` (``key_shift_or`` packs the
        ingress-port mask).
        """
        svc = [cycles / effective_hz] * len(keys)
        wait = self.pass_wait(jitter, sharers, num_queues)
        return svc, [wait((k << 6) | key_shift_or) for k in keys]

    def _anomaly_scale(self, num_queues: int) -> float:
        """Mean wait of the ~1 ms Baseline multi-queue effect at low
        per-queue rates (0 when the anomaly does not apply)."""
        if num_queues < 2 or self.offered_rate_hint_pps is None:
            return 0.0
        per_queue = self.offered_rate_hint_pps / num_queues
        if per_queue >= self.costs.drain_anomaly_threshold_pps:
            return 0.0
        return self.costs.drain_anomaly_wait

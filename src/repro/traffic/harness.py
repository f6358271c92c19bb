"""The measurement harness: LG -> (tap) -> DUT -> (tap) -> sink.

``TestbedHarness`` reproduces the paper's two-server setup around a
built deployment: the load generator feeds the DUT's ingress NIC port
over a 10G link, the DUT's egress port feeds the sink, and passive taps
on both links drive the latency monitor.  One-port deployments (the
Fig. 6 workload topology) hairpin: ingress and egress share port 0.

Runs take the batched data plane by default: bursts cross the
mediation chain as struct-of-arrays batches, bit-identical to the
per-frame oracle in every delivered frame, drop and latency sample
(``tests/test_fastpath_fuzz.py``).  A run falls back to the oracle,
and says why in ``HarnessResult.oracle_reason``, when the batched path
could not reproduce it:

- ``"batch=False"``: the caller asked for the oracle (tests);
- ``"tracer"``, ``"chaos"``, ``"lifecycle"``: the deployment holds an
  oracle mark (:meth:`~repro.core.deployment.Deployment.hold_oracle`)
  -- a recording packet tracer (the span tracer alone: the
  latency-attribution tap of :func:`repro.obs.attributing` holds no
  mark, since both paths feed it), an armed chaos session with a link,
  VF or loss fault (vswitch crashes run batched: each instant is a
  catch-up point), or a pending tenant migration or removal;
- ``"unpaired tap observer"``: a tap observer without a batch twin,
  which expects frames in wire order.  A batched link notifies its tap
  one run per batch per settle, so across interleaved batches the
  timestamps go backwards (:meth:`~repro.net.link.OpticalTap.observe`);
- ``"untimed deployment"``: no timed bridge, so nothing to batch.

Cache-busting flows (randomized source ports, the policy-injection
traffic) run batched: members carry their own ports and each is
charged the microflow miss its per-frame twin would take.

A harness owns its run's objects: :meth:`TestbedHarness.release`
disconnects its links, taps and sink and releases the deployment
(:meth:`~repro.core.deployment.Deployment.release`), so all of them go
by reference counting.  Use it as a context manager, or call
``release()`` after the last run; the scenario engine releases the
harnesses a workload built once the workload has returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import obs as _obs
from repro.core.deployment import Deployment
from repro.errors import SimulationError
from repro.measure.stats import SummaryStats, summarize
from repro.net.addresses import MacAddress
from repro.net.link import Link, OpticalTap
from repro.net import packet
from repro.net.packet import IpProto
from repro.traffic.generator import (BATCHED_BURST, DEFAULT_BURST,
                                     FlowConfig, LoadGenerator)
from repro.traffic.sink import LatencyMonitor, Sink
from repro.units import GBPS


@dataclass
class HarnessResult:
    """Windowed measurements of one run."""

    offered_pps: float
    delivered_pps: float
    sent: int
    delivered: int
    latencies: List[float]
    window: tuple
    #: Why the run took the per-frame oracle path (see the module
    #: docstring); None when it ran batched.
    oracle_reason: Optional[str] = None

    @property
    def path(self) -> str:
        """The data-plane path the run took: "batched" or "oracle"."""
        return "batched" if self.oracle_reason is None else "oracle"

    @property
    def loss_fraction(self) -> float:
        if self.sent == 0:
            return 0.0
        return max(0.0, 1.0 - self.delivered / self.sent)

    def latency_stats(self) -> SummaryStats:
        return summarize(self.latencies, empty_ok=True)


class TestbedHarness:
    """LG, DUT and sink wired together for one deployment."""

    __test__ = False  # not a pytest test class, despite the name

    def __init__(self, deployment: Deployment,
                 link_bandwidth_bps: float = 10 * GBPS,
                 batch: bool = True) -> None:
        # Frame ids restart per harnessed run: per-frame jitter draws
        # are keyed by them, and runs must not depend on how many
        # frames earlier runs in this process created.
        packet.reset_frame_ids()
        self.deployment = deployment
        #: False selects the per-frame oracle (differential tests).
        #: Otherwise :meth:`run` takes the batched path unless one of
        #: the module docstring's conditions forces the oracle.
        self.batch = batch
        #: Oracle reason of the last :meth:`run` (None: it ran batched).
        self.oracle_reason: Optional[str] = None
        self.sim = deployment.sim
        self.ingress_tap = OpticalTap("tap.lg-dut")
        self.egress_tap = OpticalTap("tap.dut-sink")
        self.sink = Sink()
        self.monitor = LatencyMonitor(self.ingress_tap, self.egress_tap)

        ingress_port = 0
        egress_port = deployment.egress_port_index()
        self.ingress_link = Link(
            self.sim,
            dst=deployment.external_ingress(ingress_port),
            bandwidth_bps=link_bandwidth_bps,
            propagation_delay=deployment.calibration.wire_propagation,
            tap=self.ingress_tap,
            name="link.lg-dut",
        )
        self.egress_link = Link(
            self.sim,
            dst=self.sink.port,
            bandwidth_bps=link_bandwidth_bps,
            propagation_delay=deployment.calibration.wire_propagation,
            tap=self.egress_tap,
            name="link.dut-sink",
        )
        deployment.connect_egress(egress_port, self.egress_link)

        self.lg = LoadGenerator(self.sim, self.ingress_link)
        self._lg_mac = MacAddress.parse("02:1b:00:00:00:01")
        #: True once :meth:`release` ran; the harness runs no more.
        self.released = False
        from repro.scenario import context
        context.own(self)

    def release(self) -> None:
        """Free the harness and its deployment by reference counting:
        disconnect the links, taps and sink, then release the
        deployment.  Read every result first.  Idempotent."""
        if self.released:
            return
        self.released = True
        for link in (self.ingress_link, self.egress_link):
            link.release()
        for tap in (self.ingress_tap, self.egress_tap):
            tap.release()
        self.sink.port.release()
        self.deployment.release()

    def __enter__(self) -> "TestbedHarness":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def add_tenant_flow(self, tenant: int, rate_pps: float,
                        frame_bytes: int = 64,
                        randomize_src_port: bool = False) -> None:
        """One flow towards ``tenant`` at an arbitrary rate (asymmetric
        loads, e.g. the noisy-neighbor experiment).
        ``randomize_src_port`` makes every packet a fresh microflow --
        the flow-cache-busting pattern of the policy-injection DoS."""
        d = self.deployment
        plan = d.plan
        tunnel_id = plan.vni(tenant) if d.spec.tunneling else None
        self.lg.add_flow(FlowConfig(
            flow_id=tenant,
            dst_mac=d.ingress_dmac_for_tenant(tenant, port_index=0),
            dst_ip=plan.tenant_ip(tenant),
            src_mac=self._lg_mac,
            src_ip=plan.external_ip(tenant),
            rate_pps=rate_pps,
            frame_bytes=frame_bytes,
            tenant_id=tenant,
            proto=IpProto.UDP,
            tunnel_id=tunnel_id,
            randomize_src_port=randomize_src_port,
        ))

    def configure_tenant_flows(self, rate_per_flow_pps: float,
                               frame_bytes: int = 64,
                               tenants: Optional[List[int]] = None) -> None:
        """One flow per tenant, addressed exactly as the paper does."""
        if tenants is None:
            tenants = list(range(self.deployment.spec.num_tenants))
        for tenant in tenants:
            self.add_tenant_flow(tenant, rate_per_flow_pps, frame_bytes)

    def _pick_oracle_reason(self) -> Optional[str]:
        """Why a run started now must take the per-frame oracle path
        (None: it can run batched).  See the module docstring."""
        if not self.batch:
            return "batch=False"
        reason = self.deployment.oracle_reason()
        if reason is not None:
            return reason
        if self.ingress_tap.unpaired or self.egress_tap.unpaired:
            return "unpaired tap observer"
        if not self.deployment.supports_batched_fastpath():
            return "untimed deployment"
        return None

    def run(self, duration: float, warmup: float = 0.0,
            cooldown: float = 0.05) -> HarnessResult:
        """Send for ``duration`` seconds from now; measure the window
        after ``warmup``.  ``cooldown`` lets in-flight frames land.  The
        result counts this run's frames alone, also on a harness that
        ran before."""
        if self.released:
            raise SimulationError(
                f"TestbedHarness of {self.deployment.spec.label} "
                f"({self.deployment.scenario.value}) was released; build "
                "a new deployment and harness to run again")
        if not 0.0 <= warmup < duration:
            raise ValueError(
                f"need 0 <= warmup < duration, got warmup={warmup} and "
                f"duration={duration}")
        offered = self.lg.aggregate_rate_pps
        self.deployment.set_offered_rate_hint(offered)
        start = self.sim.now
        sent, delivered = self.lg.sent, self.sink.total
        end = start + duration + cooldown
        # The running scenario's fault plan attaches here, so any
        # harness-based workload is chaos-capable without changes.
        # Arming it marks the deployment, so it comes before the path.
        from repro.scenario import context
        ctx = context.active()
        chaos_session = (ctx.attach_chaos(self, horizon=duration)
                         if ctx is not None else None)
        reason = self.oracle_reason = self._pick_oracle_reason()
        if reason is None:
            self.deployment.enable_batched_fastpath()
            self.lg.batch = True
            # Wider bursts amortize per-batch work; timestamps are
            # analytic per frame, so results are burst-invariant.  The
            # generator ramps up to this cap from one frame, so each
            # flow's first frame warms the pipeline alone.  A
            # caller-customized burst (tests pinning batch shapes) is
            # left alone, and caps the ramp.
            if self.lg.burst == DEFAULT_BURST:
                self.lg.burst = BATCHED_BURST
            # Sub-batches reach the egress wire out of ready-time order;
            # the hold serializes them in order (see Link.hold).
            self.egress_link.hold(self.deployment.batch_watermark)
            # Unbounded-margin groups hold until their burst completes;
            # bursts cut short by the end of traffic need a sweep while
            # the simulation is still running, and members served by
            # the end of the run from bursts a busy core never finished
            # (a backlog longer than the cooldown) a last one.
            self.sim.call_later(duration + cooldown * 0.5,
                                self.deployment.drain_batches)
            self.sim.schedule(end, self.deployment.drain_batches)
        else:
            # A batched run before this one may have left a hold.
            self.egress_link.hold(None)
        # Likewise for metering: a spec that asked for billing gets a
        # session that windows usage while this run executes.  It comes
        # after the path: it snapshots the stations the fast path swaps.
        meter_session = (ctx.attach_metering(self, horizon=duration)
                         if ctx is not None else None)
        self.lg.start(duration)
        self.sim.run(until=end)
        # Settle what the egress hold keeps back and the per-frame path
        # has sent by now; what it has not stays held.
        if reason is None:
            self.egress_link.settle(end)
        t0, t1 = start + warmup, start + duration
        result = HarnessResult(
            offered_pps=offered,
            delivered_pps=(self.monitor.delivered_in_window(t0, t1)
                           / (t1 - t0)),
            sent=self.lg.sent - sent,
            delivered=self.sink.total - delivered,
            latencies=self.monitor.latencies_in_window(t0, t1),
            window=(t0, t1),
            oracle_reason=reason,
        )
        _obs.on_run_complete(self, result)
        if chaos_session is not None:
            chaos_session.finish()
        if meter_session is not None:
            meter_session.finish()
        return result

"""One metered harness run: windows, attribution, fault charges, audit.

A :class:`MeteringSession` is armed just before traffic starts (by
:meth:`repro.scenario.context.RunContext.attach_metering`, or directly
by a test).  It owns three instruments:

- a :class:`~repro.billing.meter.TenantMeter` tap installed as the
  process-global ``billing.METER`` -- per-packet exact CPU, PCIe bytes
  and classified drops straight from the dataplane;
- a *window* :class:`~repro.core.accounting.NetworkingMeter` snapshot/
  read-cycled at every ``interval`` tick of simulated time -- the
  billable (provider-computable) attribution;
- a *truth* ``NetworkingMeter`` spanning the whole run -- the ground
  truth the reconciliation auditor compares against.

``finish()`` closes the tail window, charges fault-recovery work to
the tenants of crashed compartments (composing with the run's
:class:`~repro.faults.session.ChaosSession`), audits conservation, and
publishes the usage records plus a summary to the run context so
scenario results carry them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import billing as _billing
from repro import obs as _obs
from repro.billing import attribution
from repro.billing.audit import reconcile
from repro.billing.meter import TenantMeter, UsageRecord
from repro.core.accounting import NetworkingMeter
from repro.scenario import context


class MeteringSession:
    """Meter one harness run on ``deployment``."""

    def __init__(self, deployment, harness, interval: float = 0.0,
                 seed: int = 0, chaos=None) -> None:
        self.deployment = deployment
        self.harness = harness
        self.interval = float(interval)
        self.seed = seed
        self.chaos = chaos
        self.records: List[UsageRecord] = []
        self._tap = TenantMeter()
        self._window = NetworkingMeter(deployment)
        self._truth = NetworkingMeter(deployment)
        self._tap_prev: Dict[str, dict] = self._tap.totals()
        self._win_t0 = 0.0
        self._ticker = None
        self._finished = False
        self._summary: Optional[dict] = None

    # -- lifecycle ---------------------------------------------------------

    def arm(self, horizon: float) -> None:
        """Install the tap and start windowing for ``horizon`` seconds."""
        sim = self.deployment.sim
        self._win_t0 = sim.now
        self._window.snapshot()
        self._truth.snapshot()
        _billing.install(self._tap)
        if self.interval > 0:
            self._ticker = sim.every(self.interval, self._close_window,
                                     until=sim.now + horizon)

    def finish(self) -> dict:
        """Close the books: tail window, fault charges, audit, publish."""
        if self._finished:
            return self._summary or {}
        self._finished = True
        if self._ticker is not None:
            self._ticker.cancel()
        self._close_window()
        _billing.uninstall(self._tap)

        fault_payers = self._charge_faults()

        truth = self._truth.read()
        report = reconcile(self.records, truth, self.deployment.spec)

        billed_cpu: Dict[int, float] = {}
        exact_cpu: Dict[int, float] = {}
        for rec in self.records:
            billed_cpu[rec.tenant_id] = (billed_cpu.get(rec.tenant_id, 0.0)
                                         + rec.cpu_seconds)
            exact_cpu[rec.tenant_id] = (exact_cpu.get(rec.tenant_id, 0.0)
                                        + rec.cpu_seconds_exact)
        score = attribution.misattribution_score(exact_cpu, billed_cpu)

        summary = {
            "kind": "summary",
            "windows": len({(r.t0, r.t1) for r in self.records}),
            "reconciled": report.ok,
            "failures": list(report.failures),
            "misattribution_score": score,
            "billed_cpu_seconds": sum(billed_cpu.values()),
            "exact_cpu_seconds": sum(exact_cpu.values()),
            "billed_io_bytes": sum(r.io_bytes for r in self.records),
            "billed_pcie_bytes": sum(r.pcie_bytes for r in self.records),
            "fault_seconds_total": sum(fault_payers.values()),
            "fault_payers": {str(t): s for t, s in sorted(fault_payers.items())},
            "fault_drops": {
                str(t): n for t, n in sorted(self._tap.fault_drops.items())
            },
            "tenant_cpu_skew": {
                str(t): s for t, s in sorted(report.tenant_cpu_skew.items())
            },
        }
        context.publish(usage=[rec.to_dict() for rec in self.records]
                        + [summary])
        self._summary = summary
        return summary

    # -- windowing ---------------------------------------------------------

    def _close_window(self) -> None:
        """Harvest one window: accounting usages + tap deltas."""
        d = self.deployment
        # Busy time and the tap's counters must include every service
        # step up to the window's end, replayed or not.
        d.catch_up_batches()
        t0, t1 = self._win_t0, d.sim.now
        usages = self._window.read()
        if not usages:
            if t1 > t0:
                # A deployment with zero tenants still advances time.
                self._rotate(t1)
            return

        tap_now = self._tap.totals()
        cpu_d = self._delta(tap_now["cpu"], self._tap_prev["cpu"])
        passes_d = self._delta(tap_now["passes"], self._tap_prev["passes"])
        pcie_d = self._delta(tap_now["pcie"], self._tap_prev["pcie"])
        drops_d = self._delta(tap_now["drops"], self._tap_prev["drops"])
        self._tap_prev = tap_now

        spec = d.spec
        covered = set()
        for usage in usages:
            t = usage.tenant_id
            covered.add(t)
            if spec.level.is_mts:
                k = spec.compartment_of_tenant(t)
            else:
                k = 0
            cpu = usage.vswitch_cpu_seconds
            shares = d.bridges[k].compute_shares if k < len(d.bridges) else ()
            core = shares[0].physical_seconds(cpu) if shares else cpu
            self.records.append(UsageRecord(
                tenant_id=t,
                compartment=k,
                t0=t0,
                t1=t1,
                cpu_seconds=cpu,
                cpu_seconds_exact=cpu_d.get(t, 0.0),
                core_seconds=core,
                io_bytes=usage.io_bytes,
                pcie_bytes=pcie_d.get(t, 0),
                passes=passes_d.get(t, 0),
                drops={reason: n for (dt, reason), n in drops_d.items()
                       if dt == t},
                memory_byte_seconds=usage.vswitch_memory_byte_seconds,
                quality=usage.quality.value,
            ))
        # Dataplane work the load generator did not label (tenant -1)
        # still shows up so the books close.
        extra = ({t for t in cpu_d} | {t for t in pcie_d}
                 | {dt for (dt, _r) in drops_d}) - covered
        for t in sorted(extra):
            self.records.append(UsageRecord(
                tenant_id=t, compartment=-1, t0=t0, t1=t1,
                cpu_seconds_exact=cpu_d.get(t, 0.0),
                pcie_bytes=pcie_d.get(t, 0),
                passes=passes_d.get(t, 0),
                drops={reason: n for (dt, reason), n in drops_d.items()
                       if dt == t},
                quality="estimated",
            ))
        self._export_window(cpu_d, pcie_d, passes_d, drops_d, usages)
        self._rotate(t1)

    def _rotate(self, t1: float) -> None:
        self._window.snapshot()
        self._win_t0 = t1

    @staticmethod
    def _delta(now: dict, prev: dict) -> dict:
        out = {}
        for key, value in now.items():
            change = value - prev.get(key, 0)
            if change:
                out[key] = change
        return out

    def _export_window(self, cpu_d, pcie_d, passes_d, drops_d,
                       usages) -> None:
        """Fold the window into the obs registry (ships from workers)."""
        reg = _obs.REGISTRY
        reg.counter("billing_windows_total",
                    "accounting windows closed").inc()
        cpu_c = reg.counter("billing_cpu_seconds_total",
                            "billable vswitch CPU", labels=("tenant",))
        io_c = reg.counter("billing_io_bytes_total",
                           "billable NIC bytes", labels=("tenant",))
        for usage in usages:
            label = str(usage.tenant_id)
            if usage.vswitch_cpu_seconds > 0:
                cpu_c.labels(tenant=label).inc(usage.vswitch_cpu_seconds)
            if usage.io_bytes > 0:
                io_c.labels(tenant=label).inc(usage.io_bytes)
        pcie_c = reg.counter("billing_pcie_bytes_total",
                             "per-tenant PCIe DMA bytes", labels=("tenant",))
        for t, v in pcie_d.items():
            pcie_c.labels(tenant=str(t)).inc(v)
        passes_c = reg.counter("billing_passes_total",
                               "vswitch passes executed", labels=("tenant",))
        for t, v in passes_d.items():
            passes_c.labels(tenant=str(t)).inc(v)
        drops_c = reg.counter("billing_drops_total",
                              "metered drops", labels=("tenant", "reason"))
        for (t, reason), v in drops_d.items():
            drops_c.labels(tenant=str(t), reason=reason).inc(v)

    # -- fault attribution -------------------------------------------------

    def _charge_faults(self) -> Dict[int, float]:
        """Charge recovery work to the crashed compartment's tenants.

        Composes with the run's ChaosSession: every recovered outage of
        a compartment costs its resync (flow re-install + ARP re-learn)
        time, split evenly among that compartment's tenants -- *they*
        chose (or were placed in) the faulty compartment, and under
        per-tenant compartments the blast radius is exactly one payer.
        Warm-standby failovers are pre-synced and cost nothing.  Frames
        blackholed by the fault are attached from the tap.
        """
        charges: Dict[int, float] = {}
        chaos = self.chaos
        spec = self.deployment.spec
        if chaos is not None:
            for outage in chaos.outages:
                if outage.get("recovered_at") is None:
                    continue
                if outage.get("mode") == "standby":
                    continue
                state = chaos.states.get(outage["target"])
                if state is None or not state.is_compartment:
                    continue
                k = int(state.name.split(":", 1)[1])
                tenants = spec.tenants_of_compartment(k)
                for t, cost in attribution.even_split(
                        chaos.resync_cost(state), tenants).items():
                    charges[t] = charges.get(t, 0.0) + cost

        last: Dict[int, UsageRecord] = {}
        for rec in self.records:
            last[rec.tenant_id] = rec
        for t, cost in charges.items():
            if t in last:
                last[t].fault_seconds += cost
        for t, n in self._tap.fault_drops.items():
            if t in last:
                last[t].fault_drops += n
        return charges

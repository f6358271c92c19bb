"""Churn scripting against a live testbed deployment.

:class:`ChurnScript` is the bridge between the control plane's idea of
churn and the packet-level testbed: it schedules real
:class:`~repro.core.orchestrator.MtsOrchestrator` lifecycle operations
(live migrations, tenant removals) at simulated times on a deployment
that a :class:`~repro.traffic.harness.TestbedHarness` is about to
drive.

The script participates in the oracle-forcing gate: each scheduled
operation marks the deployment (``hold_oracle("lifecycle")``) the
moment it is armed, so a harness that starts afterwards sees pending
churn and takes the per-frame oracle path -- mid-run mutations and the
batched fast path do not compose, and the differential fuzz suite
proves the oracle path byte-identical instead.  The mark is released
when the operation fires (the orchestrator holds its own for the
migration window); :meth:`close` releases anything still armed, so an
aborted run cannot leak the mark.
"""

from __future__ import annotations

from typing import List

from repro.core.orchestrator import MtsOrchestrator


class ChurnScript:
    """Scripted lifecycle churn on a live deployment."""

    def __init__(self, deployment) -> None:
        self.deployment = deployment
        self.orchestrator = MtsOrchestrator(deployment)
        self.sim = deployment.sim
        self._armed = 0
        self.completed: List[dict] = []

    def schedule_migration(self, at: float, tenant_id: int,
                           target: int) -> None:
        """Arm a live migration of ``tenant_id`` to compartment
        ``target`` at simulated time ``at``."""
        self.deployment.hold_oracle("lifecycle")
        self._armed += 1
        self.sim.schedule(at, self._fire_migration, tenant_id, target)

    def schedule_removal(self, at: float, tenant_id: int) -> None:
        """Arm a graceful tenant removal at simulated time ``at``."""
        self.deployment.hold_oracle("lifecycle")
        self._armed += 1
        self.sim.schedule(at, self._fire_removal, tenant_id)

    def _release(self) -> None:
        if self._armed > 0:
            self._armed -= 1
            self.deployment.release_oracle("lifecycle")

    def _fire_migration(self, tenant_id: int, target: int) -> None:
        try:
            record = self.orchestrator.migrate_tenant(tenant_id, target)
            self.completed.append({
                "kind": "migrate", "t": self.sim.now,
                "tenant": tenant_id, "source": record.source,
                "target": target})
        finally:
            # The orchestrator holds its own gate for the migration
            # window; the armed hold has done its job.
            self._release()

    def _fire_removal(self, tenant_id: int) -> None:
        try:
            self.orchestrator.remove_tenant(tenant_id)
            self.completed.append({
                "kind": "remove", "t": self.sim.now, "tenant": tenant_id})
        finally:
            self._release()

    def close(self) -> None:
        """Release any holds still armed (leak-safety for aborted runs)."""
        while self._armed > 0:
            self._release()

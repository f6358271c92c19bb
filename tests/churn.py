"""Scripted lifecycle churn against a live testbed deployment.

:class:`ChurnScript` schedules real
:class:`~repro.core.orchestrator.MtsOrchestrator` live migrations at
simulated times on a deployment that a
:class:`~repro.traffic.harness.TestbedHarness` is about to drive.  No
workload migrates a tenant while packets flow; the tests use it to pin
the "lifecycle" oracle mark and the per-frame oracle's behaviour across
a migration.

Each scheduled migration marks the deployment
(``hold_oracle("lifecycle")``) the moment it is armed, so a harness that
starts afterwards takes the per-frame oracle path.  The mark is released
when the migration fires (the orchestrator holds its own for the
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

    def close(self) -> None:
        """Release any holds still armed (leak-safety for aborted runs)."""
        while self._armed > 0:
            self._release()

"""Billing reports: cost tables, misattribution and fault-payer views.

Pure formatting over :class:`~repro.billing.meter.UsageRecord` dicts
and :class:`~repro.billing.invoice.TenantInvoice`\\ s -- the `repro
billing` CLI assembles these from scenario results.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.billing.invoice import TenantInvoice
from repro.measure.reporting import Series, Table


def cost_table(invoices_by_deployment: Mapping[str, Sequence[TenantInvoice]],
               title: str = "Per-tenant virtual networking cost") -> Table:
    """Tenants as rows, deployments as columns, invoice totals as cells."""
    table = Table(title=title, unit="USD", fmt=lambda v: f"{v:.3e}")
    tenants: List[int] = sorted({
        inv.tenant_id
        for invoices in invoices_by_deployment.values()
        for inv in invoices
    })
    for t in tenants:
        series = Series(label=f"tenant {t}")
        for label, invoices in invoices_by_deployment.items():
            for inv in invoices:
                if inv.tenant_id == t:
                    series.add(label, inv.total)
        table.add_series(series)
    total = Series(label="total")
    for label, invoices in invoices_by_deployment.items():
        total.add(label, sum(inv.total for inv in invoices))
    table.add_series(total)
    return table


def misattribution_table(scores_by_deployment: Mapping[str, float]) -> Table:
    """One row: the CPU misattribution score per deployment."""
    table = Table(
        title="CPU misattribution (0 = bill matches per-packet truth)",
        fmt=lambda v: f"{v:.4f}",
    )
    series = Series(label="score")
    for label, score in scores_by_deployment.items():
        series.add(label, score)
    table.add_series(series)
    return table


def fault_payer_table(payers_by_deployment: Mapping[str, Mapping[str, float]],
                      title: str = "Who pays for the fault?") -> Table:
    """Tenants as rows, deployments as columns, fault-recovery seconds
    charged as cells -- the blast radius of an outage, in billing terms."""
    table = Table(title=title, unit="s charged", fmt=lambda v: f"{v:.4f}")
    tenants = sorted({
        int(t)
        for payers in payers_by_deployment.values()
        for t in payers
    })
    for t in tenants:
        series = Series(label=f"tenant {t}")
        for label, payers in payers_by_deployment.items():
            series.add(label, float(payers.get(str(t), 0.0)))
        table.add_series(series)
    return table

"""Per-tenant metering and billing for MTS deployments.

The billing layer answers the question the obs layer leaves open: not
*what happened* but *who pays for it*.  It rides the PR 2 telemetry
plumbing -- a process-global tap (`METER`, mirroring `obs.TRACER`)
that hot-path sites consult behind an ``enabled`` guard, a
:class:`~repro.billing.session.MeteringSession` that harvests the tap
plus the :class:`~repro.core.accounting.NetworkingMeter` counters into
windowed :class:`~repro.billing.meter.UsageRecord`\\ s, an attribution
engine comparing per-packet exact CPU against the proportional-share
estimate, invoices priced with :class:`~repro.core.accounting.PricingModel`,
and a reconciliation auditor asserting the metered totals equal the
accounting ground truth.

Like ``obs``, the default is off: ``METER`` is a :class:`NullMeter`
whose ``enabled`` is ``False``, so un-metered runs pay only a branch
per tap site.  Heavy machinery (sessions, audits, reports) is imported
lazily by the run context (:mod:`repro.scenario.context`) so this
package stays safe to import from the dataplane modules.
"""

from __future__ import annotations

from repro.billing.meter import UNATTRIBUTED, NullMeter, TenantMeter, UsageRecord

#: The process-global metering tap.  Dataplane modules access it via
#: the module attribute (``_billing.METER``) so installs are visible
#: everywhere immediately.
METER = NullMeter()


def install(meter: TenantMeter) -> None:
    """Make ``meter`` the active tap."""
    global METER
    METER = meter


def uninstall(meter: TenantMeter) -> None:
    """Remove ``meter`` if it is still the active tap."""
    global METER
    if METER is meter:
        METER = NullMeter()


def metering_enabled() -> bool:
    return METER.enabled


__all__ = [
    "METER",
    "UNATTRIBUTED",
    "NullMeter",
    "TenantMeter",
    "UsageRecord",
    "install",
    "uninstall",
    "metering_enabled",
]

#!/usr/bin/env python3
"""A two-server MTS datacenter: fabric, migration, metering, billing.

The paper evaluates one server; its architecture is a datacenter
design.  This example runs the extensions end to end:

1. two servers, each running Level-2 MTS, behind a leaf switch, with
   the centralized controller programming cross-server connectivity
   (and VXLAN-style tunnels);
2. a hop-by-hop trace of one tenant-to-tenant frame across the fabric;
3. runtime orchestration: hot-adding a tenant and migrating another
   between compartments, with measured downtime;
4. per-tenant metering and invoicing of virtual networking (§6's
   billing discussion).

Run:  python examples/datacenter_fabric.py
"""

from repro import obs
from repro.core import (
    DeploymentSpec,
    MtsOrchestrator,
    MultiServerCloud,
    NetworkingMeter,
    SecurityLevel,
    TrafficScenario,
    bill,
    build_deployment,
)
from repro.obs.export import journey_report
from repro.traffic import TestbedHarness
from repro.units import fmt_time


def fabric_demo() -> None:
    print("=== Two servers behind a leaf switch (VXLAN overlay) ===\n")
    spec = DeploymentSpec(level=SecurityLevel.LEVEL_2, num_tenants=4,
                          num_vswitch_vms=2, nic_ports=1, tunneling=True)
    cloud = MultiServerCloud(spec, num_servers=2)
    print(cloud.describe())

    received = cloud.attach_sink(6)  # tenant 6 = server 1, local 2
    with obs.tracing(cloud.sim) as tracer:
        frame = cloud.send_between_tenants(0, 6, size_bytes=114)
        cloud.run()
    print(f"\ntenant 0 -> tenant 6: delivered={len(received)}")
    print("the frame's journey:")
    print(journey_report(tracer.journey(frame.frame_id)))
    print(f"(encapsulated with the target's VNI on egress, decapped by "
          f"the remote ingress chain; fabric floods: {cloud.fabric.floods})")
    cloud.release()  # every server's deployment with it


def orchestration_demo() -> None:
    print("\n=== Runtime orchestration on a live server ===\n")
    spec = DeploymentSpec(level=SecurityLevel.LEVEL_2, num_tenants=4,
                          num_vswitch_vms=2)
    d = build_deployment(spec, TrafficScenario.P2V)
    with TestbedHarness(d):
        orch = MtsOrchestrator(d)
        new = orch.add_tenant()
        print(f"hot-added tenant {new} into compartment "
              f"{orch.compartment_of(new)} "
              f"(VFs now on the NIC: {d.server.nic.total_vfs()})")
        record = orch.migrate_tenant(0, target=1)
        d.sim.run(until=record.completed_at + 1e-6)
        print(f"migrated tenant 0: compartment {record.source} -> "
              f"{record.target}, downtime {fmt_time(record.downtime)} "
              f"(SR-IOV has no live migration; gateway VFs and rules "
              f"moved)")
        orch.remove_tenant(2)
        print(f"removed tenant 2 (VFs back to "
              f"{d.server.nic.total_vfs()}, free cores: "
              f"{d.server.cores.available()})")


def billing_demo() -> None:
    print("\n=== Metering and billing virtual networking (§6) ===\n")
    spec = DeploymentSpec(level=SecurityLevel.LEVEL_2, num_tenants=4,
                          num_vswitch_vms=4)
    d = build_deployment(spec, TrafficScenario.P2V)
    with TestbedHarness(d) as harness:
        meter = NetworkingMeter(d)
        meter.snapshot()
        # Tenant 0 is five times as chatty as the rest.
        harness.add_tenant_flow(0, 10_000)
        for tenant in (1, 2, 3):
            harness.add_tenant_flow(tenant, 2_000)
        harness.run(duration=0.2)
        usages = meter.read()
    invoices = bill(d, usages)
    print(f"{'tenant':>6} {'vswitch CPU (ms)':>17} {'I/O (KB)':>10} "
          f"{'invoice ($)':>12} {'attribution':>14}")
    for usage, invoice in zip(usages, invoices):
        print(f"{usage.tenant_id:>6} "
              f"{usage.vswitch_cpu_seconds * 1e3:>17.2f} "
              f"{usage.io_bytes / 1e3:>10.1f} "
              f"{invoice.total:>12.6f} {invoice.quality.value:>14}")
    print("\n(per-tenant compartments meter CPU with hypervisor-grade "
          "accuracy -- the Baseline could only self-report from inside "
          "the shared, tenant-exposed vswitch)")


def main() -> None:
    fabric_demo()
    orchestration_demo()
    billing_demo()


if __name__ == "__main__":
    main()

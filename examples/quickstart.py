#!/usr/bin/env python3
"""Quickstart: build an MTS deployment, push packets, inspect it.

Builds the paper's Level-2 configuration (two vswitch VMs, four
tenants, shared resource mode), runs live traffic through the
simulated SR-IOV dataplane, and prints what got built, what the
packets did, and what it cost.

Run:  python examples/quickstart.py
"""

from repro.core import (
    DeploymentSpec,
    ResourceMode,
    SecurityLevel,
    TrafficScenario,
    build_deployment,
)
from repro.security import assess_compromise, score_principles
from repro.traffic import TestbedHarness
from repro.units import fmt_time


def main() -> None:
    # 1. Declare the configuration: Level-2 security (one vswitch VM per
    #    two tenants), all compartments sharing one physical core.
    spec = DeploymentSpec(
        level=SecurityLevel.LEVEL_2,
        num_tenants=4,
        num_vswitch_vms=2,
        resource_mode=ResourceMode.SHARED,
    )

    # 2. Build it: VMs, SR-IOV VFs with per-tenant VLANs, bridges, flow
    #    rules, ARP entries and NIC security filters.
    deployment = build_deployment(spec, TrafficScenario.P2V)
    print(deployment.describe())
    print()

    # 3. Wire the measurement harness (load generator, taps, sink) and
    #    send 0.2 s of traffic at 10 kpps.  On leaving the block the
    #    harness releases the run: the data plane is disconnected, so
    #    the objects go as soon as nothing refers to them.  What was
    #    built and counted stays readable.
    with TestbedHarness(deployment) as harness:
        harness.configure_tenant_flows(rate_per_flow_pps=2500)
        result = harness.run(duration=0.2)

    stats = result.latency_stats()
    print(f"sent {result.sent} frames, delivered {result.delivered} "
          f"(loss {result.loss_fraction:.1%})")
    print(f"one-way latency: median {fmt_time(stats.median)}, "
          f"p99 {fmt_time(stats.p99)}")
    print("per-tenant deliveries:", dict(harness.sink.per_flow))
    print()

    # 4. What did the security posture buy?
    print(score_principles(deployment).row())
    assessment = assess_compromise(deployment)
    print(f"exploits needed to reach the host: "
          f"{assessment.exploits_to_host}")
    print(f"tenants exposed if tenant 0's vswitch is compromised: "
          f"{assessment.vswitch_blast_radius}")
    print()

    # 5. And what did it cost?
    print(deployment.resource_report().row())

    # 6. Everything is reversible: the orchestrator undefines the VMs
    #    and frees the VFs (recorded in the oplog).
    deployment.teardown()
    print("\ntorn down:", len(deployment.server.vms), "VMs remain")


if __name__ == "__main__":
    main()

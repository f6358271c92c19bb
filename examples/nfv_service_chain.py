#!/usr/bin/env python3
"""NFV service chaining: the v2v scenario.

The paper's v2v topology "emulates service chains in network function
virtualization": traffic enters a tenant VM (say, a firewall VNF),
returns to the vswitch, passes through a second VM (say, a DPI VNF),
and leaves.  This example compares chained forwarding under the
Baseline and under MTS, in both throughput (capacity model) and
latency (packet-level discrete-event simulation), and prints the chain
one packet actually took.

Run:  python examples/nfv_service_chain.py
"""

from repro import obs
from repro.core import (
    DeploymentSpec,
    ResourceMode,
    SecurityLevel,
    TrafficScenario,
    build_deployment,
)
from repro.net import Frame, MacAddress
from repro.obs.export import journey_report
from repro.perfmodel.paths import throughput
from repro.traffic import TestbedHarness
from repro.units import MPPS, fmt_time


def build(level, **kwargs):
    spec = DeploymentSpec(level=level, num_tenants=4, **kwargs)
    return build_deployment(spec, TrafficScenario.V2V)


def show_chain(deployment) -> None:
    """Trace one packet through the chain, hop by hop."""
    frame = Frame(
        src_mac=MacAddress.parse("02:1b:00:00:00:01"),
        dst_mac=deployment.ingress_dmac_for_tenant(0, 0),
        src_ip=deployment.plan.external_ip(0),
        dst_ip=deployment.plan.tenant_ip(0),
        flow_id=0,
    )
    # The harness wires the egress link.
    with TestbedHarness(deployment), obs.tracing(deployment.sim) as tracer:
        deployment.external_ingress(0).receive(frame)
        deployment.sim.run(until=deployment.sim.now + 1.0)
    print(f"  chain for {deployment.spec.label}:")
    print(journey_report(tracer.journey(frame.frame_id)))


def measure(level, label, **kwargs) -> None:
    # Throughput at saturation (64 B frames).
    d = build(level, **kwargs)
    capacity = throughput(d, TrafficScenario.V2V)
    print(f"{label}: aggregate v2v throughput "
          f"{capacity.aggregate_pps / MPPS:.2f} Mpps "
          f"(bottleneck: {sorted(set(capacity.bottleneck_of.values()))})")

    # Latency at 10 kpps through the DES.
    d2 = build(level, **kwargs)
    with TestbedHarness(d2) as harness:
        harness.configure_tenant_flows(rate_per_flow_pps=2500)
        result = harness.run(duration=0.1)
    stats = result.latency_stats()
    print(f"{label}: chain latency median {fmt_time(stats.median)} "
          f"(IQR {fmt_time(stats.iqr)})")


def main() -> None:
    print("=== NFV service chaining (v2v): Baseline vs MTS ===\n")
    measure(SecurityLevel.BASELINE, "Baseline        ")
    measure(SecurityLevel.LEVEL_2, "MTS L2(2) shared", num_vswitch_vms=2)
    measure(SecurityLevel.LEVEL_2, "MTS L2(2) isolated",
            num_vswitch_vms=2, resource_mode=ResourceMode.ISOLATED)
    print()

    print("One packet's journey through the MTS chain "
          "(tenant0 -> tenant1, each bounce mediated by the NIC):")
    show_chain(build(SecurityLevel.LEVEL_2, num_vswitch_vms=2))

    print("\nWhy the paper could not run v2v with per-tenant "
          "compartments:")
    try:
        build(SecurityLevel.LEVEL_2, num_vswitch_vms=4)
    except Exception as exc:
        print(f"  {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()

"""End-to-end dataplane integration: the Fig. 3 chains, isolation,
and the NIC's enforcement, all at packet level through the DES."""

import pytest

from repro import obs
from repro.core import (
    ResourceMode,
    SecurityLevel,
    TrafficScenario,
    build_deployment,
)
from repro.net import Frame, MacAddress
from repro.sriov.switch import UPLINK
from repro.traffic import TestbedHarness
from tests.conftest import make_spec

LG_MAC = MacAddress.parse("02:1b:00:00:00:01")


def run_one_frame(deployment, tenant=0):
    """Inject one frame for a tenant and run the sim to completion.
    Returns the frame and its traced journey."""
    frame = Frame(
        src_mac=LG_MAC,
        dst_mac=deployment.ingress_dmac_for_tenant(tenant, 0),
        src_ip=deployment.plan.external_ip(0),
        dst_ip=deployment.plan.tenant_ip(tenant),
        flow_id=tenant,
        tenant_id=tenant,
    )
    with obs.tracing(deployment.sim) as tracer:
        deployment.external_ingress(0).receive(frame)
        deployment.sim.run(until=deployment.sim.now + 1.0)
    return frame, tracer.journey(frame.frame_id)


def hops(journey):
    """(component, kind, outcome) of every span, in journey order."""
    return [(s.component, s.kind, s.outcome) for s in journey]


class TestIngressEgressChains:
    """The step-by-step chains of Fig. 3, asserted on traced journeys."""

    def test_p2v_chain_visits_every_station(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        _, journey = run_one_frame(d)
        chain = hops(journey)
        # (1)-(2) in through the NIC to the vswitch's In/Out VF
        assert chain[0] == ("nic.p0", "nic.in", "fabric")
        assert ("nic.p0", "nic.out", "pf0vf0") in chain  # In/Out VF delivery
        # (3) the vswitch forwards to the gateway VF
        rx = [i for i, (c, k, _) in enumerate(chain)
              if c == "vsw0.br0" and k == "vswitch.rx"]
        assert rx
        # (4)-(5) NIC delivers to the tenant VF; tenant l2fwd bounces it
        # back into the NIC
        tenant = [i for i, (c, k, _) in enumerate(chain)
                  if (c, k) == ("tenant0.l2fwd", "tenant.forward")]
        assert len(tenant) == 1
        assert rx[0] < tenant[0]
        assert chain[tenant[0] - 1][:2] == ("nic.p0", "nic.out")
        assert chain[tenant[0] + 1][:2] == ("nic.p1", "nic.filter")
        assert chain[tenant[0] + 2][:2] == ("nic.p1", "nic.in")
        # (6)-(10) egress through port 1's VEB to the wire
        assert chain[-1] == ("link.dut-sink", "link.tx", "sent")
        assert chain[-2][:2] == ("veb1", "veb.forward")
        assert journey[-2].attrs["destinations"] == [UPLINK]
        assert h.sink.total == 1

    def test_p2v_frame_delivered_to_sink_with_external_gw_mac(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        frame, _ = run_one_frame(d)
        assert h.sink.per_flow[0] == 1
        assert frame.dst_mac == d.plan.external_gw_mac

    def test_tenant_never_sees_vlan_tag(self):
        """VST semantics: tags exist only inside the NIC."""
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        TestbedHarness(d)
        seen = []
        app = d.tenant_vms[0].app("l2fwd")
        original = app._ingress

        def spy(index, frame):
            seen.append(frame.vlan)
            original(index, frame)

        app._ingress = spy
        for i, pair in enumerate([d.tenant_vf[(0, 0)].port,
                                  d.tenant_vf[(0, 1)].port]):
            pair.rx.connect(lambda f, i=i: spy(i, f))
        run_one_frame(d)
        assert seen and all(v is None for v in seen)

    def test_p2p_bypasses_tenants(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2P)
        h = TestbedHarness(d)
        _, journey = run_one_frame(d)
        assert h.sink.total == 1
        assert not any("l2fwd" in s.component for s in journey)
        assert all(s.kind != "tenant.forward" for s in journey)

    def test_v2v_chains_two_tenants(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.V2V)
        h = TestbedHarness(d)
        _, journey = run_one_frame(d, tenant=0)
        assert h.sink.total == 1
        forwarders = [s.component for s in journey
                      if s.kind == "tenant.forward"]
        assert forwarders == ["tenant0.l2fwd", "tenant1.l2fwd"]

    def test_all_four_tenants_reachable(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_2, vms=2),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        for t in range(4):
            run_one_frame(d, tenant=t)
        assert dict(h.sink.per_flow) == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_baseline_p2v_through_vhost_and_linux_bridge(self):
        d = build_deployment(make_spec(level=SecurityLevel.BASELINE),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        _, journey = run_one_frame(d)
        assert h.sink.total == 1
        timed = [(c, k, o) for c, k, o in hops(journey)
                 if k in ("vhost.crossing", "tenant.forward")]
        assert timed == [("vhost-t0-0", "vhost.crossing", "h2g"),
                         ("tenant0.br0", "tenant.forward", "forwarded"),
                         ("vhost-t0-1", "vhost.crossing", "g2h")]

    def test_baseline_v2v(self):
        d = build_deployment(make_spec(level=SecurityLevel.BASELINE),
                             TrafficScenario.V2V)
        h = TestbedHarness(d)
        _, journey = run_one_frame(d, tenant=2)
        assert h.sink.total == 1
        forwarders = [s.component for s in journey
                      if s.kind == "tenant.forward"]
        assert forwarders == ["tenant2.br0", "tenant3.br0"]


class TestCompleteMediation:
    """Every tenant<->vswitch frame crosses the NIC: no software path."""

    def test_mts_p2v_trace_alternates_through_nic(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        TestbedHarness(d)
        _, journey = run_one_frame(d)
        stations = [s.kind for s in journey
                    if s.kind in ("nic.in", "nic.out", "vswitch.rx",
                                  "vswitch.tx", "tenant.forward")]
        # Between any vswitch hop and tenant hop there must be NIC hops.
        tenant_idx = [i for i, k in enumerate(stations)
                      if k == "tenant.forward"]
        vsw_idx = [i for i, k in enumerate(stations)
                   if k.startswith("vswitch.")]
        assert tenant_idx and vsw_idx
        for ti in tenant_idx:
            for vi in vsw_idx:
                low, high = min(ti, vi), max(ti, vi)
                assert any(stations[i].startswith("nic.")
                           for i in range(low + 1, high)), (
                    "tenant and vswitch adjacent without NIC mediation")

    def test_mediation_count_matches_hairpin_model(self):
        """The DES's actual NIC switching count equals the capacity
        model's hairpin assumption (2 per p2v packet)."""
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        TestbedHarness(d)
        before = sum(p.frames_switched for p in d.server.nic.ports)
        run_one_frame(d)
        switched = sum(p.frames_switched for p in d.server.nic.ports) - before
        # fabric-in, to-gw, from-tenant, egress = 4 VEB decisions,
        # of which 2 are VF-to-VF hairpins.
        assert switched == 4


class TestTenantIsolation:
    def test_spoofed_tenant_frame_dropped_at_nic(self):
        """A malicious tenant forging its source MAC is stopped by the
        NIC spoof check before reaching any vswitch."""
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        TestbedHarness(d)
        evil = Frame(src_mac=MacAddress.parse("02:66:66:66:66:66"),
                     dst_mac=d.gw_vf[(0, 0)].mac,
                     dst_ip=d.plan.tenant_ip(1))
        d.tenant_vf[(0, 0)].port.transmit(evil)
        d.sim.run(until=d.sim.now + 1.0)
        assert d.server.nic.total_drops().spoof == 1
        assert d.bridges[0].passes == 0

    def test_tenant_cannot_address_other_tenant_directly(self):
        """With correct source MAC but a foreign destination, the
        wildcard filter drops the frame (complete mediation: only the
        gateway is reachable)."""
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        TestbedHarness(d)
        received = []
        d.tenant_vf[(1, 0)].port.rx.connect(lambda f: received.append(f))
        sneaky = Frame(src_mac=d.tenant_vf[(0, 0)].mac,
                       dst_mac=d.tenant_vf[(1, 0)].mac,
                       dst_ip=d.plan.tenant_ip(1))
        d.tenant_vf[(0, 0)].port.transmit(sneaky)
        d.sim.run(until=d.sim.now + 1.0)
        assert received == []
        assert d.server.nic.total_drops().filtered == 1

    def test_vlan_isolation_without_filters(self):
        """Even with the wildcard filters removed, VLAN separation keeps
        tenant0's frames out of tenant1's VM (defence in depth)."""
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        TestbedHarness(d)
        d.server.nic.filters._filters.clear()
        received = []
        d.tenant_vf[(1, 0)].port.rx.connect(lambda f: received.append(f))
        sneaky = Frame(src_mac=d.tenant_vf[(0, 0)].mac,
                       dst_mac=d.tenant_vf[(1, 0)].mac,
                       dst_ip=d.plan.tenant_ip(1))
        d.tenant_vf[(0, 0)].port.transmit(sneaky)
        d.sim.run(until=d.sim.now + 1.0)
        assert received == []

    def test_flow_tables_have_no_cross_tenant_conflicts(self):
        for spec in (make_spec(level=SecurityLevel.BASELINE),
                     make_spec(level=SecurityLevel.LEVEL_1),
                     make_spec(level=SecurityLevel.LEVEL_2, vms=2)):
            d = build_deployment(spec, TrafficScenario.P2V)
            for bridge in d.bridges:
                assert bridge.table.check_conflicts() == []

    def test_level2_compartment_tables_hold_only_own_tenants(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_2, vms=2),
                             TrafficScenario.P2V)
        assert d.bridges[0].table.tenants() == [0, 1]
        assert d.bridges[1].table.tenants() == [2, 3]

    def test_baseline_shares_one_table_across_tenants(self):
        d = build_deployment(make_spec(level=SecurityLevel.BASELINE),
                             TrafficScenario.P2V)
        assert d.bridges[0].table.tenants() == [0, 1, 2, 3]


class TestSustainedTraffic:
    @pytest.mark.parametrize("level,vms", [
        (SecurityLevel.BASELINE, 1),
        (SecurityLevel.LEVEL_1, 1),
        (SecurityLevel.LEVEL_2, 2),
    ])
    def test_no_loss_below_capacity(self, level, vms):
        d = build_deployment(make_spec(level=level, vms=vms),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        h.configure_tenant_flows(rate_per_flow_pps=2500)
        result = h.run(duration=0.02)
        assert result.delivered == result.sent

    def test_single_port_workload_topology(self):
        """Fig. 6's one-port wiring: ingress and egress hairpin on
        port 0."""
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1,
                                       nic_ports=1),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        h.configure_tenant_flows(rate_per_flow_pps=1000)
        result = h.run(duration=0.02)
        assert result.delivered == result.sent

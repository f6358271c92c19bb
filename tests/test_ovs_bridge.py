"""The OVS-like bridge: ports, pipeline, NORMAL switching, timing."""

import pytest

from repro import obs
from repro.host.cpu import CorePool
from repro.net import Frame, IPv4Address, MacAddress
from repro.net.interfaces import PortPair
from repro.perfmodel.calibration import kernel_pass_costs
from repro.sim import Simulator
from repro.vswitch import (
    DatapathMode,
    Drop,
    FlowMatch,
    FlowRule,
    Normal,
    Output,
    OvsBridge,
    PortClass,
    SetDstMac,
)


def frame(dst_ip="10.0.0.10", **kwargs):
    defaults = dict(src_mac=MacAddress(0xA), dst_mac=MacAddress(0xB),
                    dst_ip=IPv4Address.parse(dst_ip))
    defaults.update(kwargs)
    return Frame(**defaults)


def functional_bridge(num_ports=2):
    """Bridge in functional mode (no compute -> synchronous)."""
    bridge = OvsBridge("br0")
    pairs = []
    received = []
    for i in range(num_ports):
        pair = PortPair(f"p{i}")
        pair.attach_tx(lambda f, i=i: received.append((i, f)))
        bridge.add_port(f"port{i}", PortClass.PHYSICAL, pair)
        pairs.append(pair)
    return bridge, pairs, received


class TestPorts:
    def test_port_numbers_start_at_one(self):
        bridge, _, _ = functional_bridge()
        assert [p.port_no for p in bridge.ports()] == [1, 2]

    def test_port_by_name(self):
        bridge, _, _ = functional_bridge()
        assert bridge.port_by_name("port1").port_no == 2

    def test_port_by_name_missing(self):
        from repro.errors import ConfigurationError
        bridge, _, _ = functional_bridge()
        with pytest.raises(ConfigurationError):
            bridge.port_by_name("nope")

    def test_del_port_stops_delivery(self):
        bridge, pairs, received = functional_bridge()
        bridge.add_flow(FlowRule(match=FlowMatch(), actions=[Output(2)]))
        bridge.del_port(1)
        pairs[0].rx.receive(frame())
        assert received == []


class TestPipeline:
    def test_output_action_forwards(self):
        bridge, pairs, received = functional_bridge()
        bridge.add_flow(FlowRule(match=FlowMatch(in_port=1),
                                 actions=[Output(2)]))
        pairs[0].rx.receive(frame())
        assert len(received) == 1
        assert received[0][0] == 1  # egress out pair index 1

    def test_no_match_drops(self):
        bridge, pairs, received = functional_bridge()
        pairs[0].rx.receive(frame())
        assert received == []
        assert bridge.drops_no_match == 1

    def test_drop_action(self):
        bridge, pairs, received = functional_bridge()
        bridge.add_flow(FlowRule(match=FlowMatch(), actions=[Drop()]))
        pairs[0].rx.receive(frame())
        assert received == []
        assert bridge.drops_action == 1

    def test_rewrite_then_output(self):
        bridge, pairs, received = functional_bridge()
        bridge.add_flow(FlowRule(
            match=FlowMatch(in_port=1),
            actions=[SetDstMac(MacAddress(0xFF)), Output(2)]))
        pairs[0].rx.receive(frame())
        assert received[0][1].dst_mac == MacAddress(0xFF)

    def test_multi_output_copies(self):
        bridge, pairs, received = functional_bridge(3)
        bridge.add_flow(FlowRule(match=FlowMatch(in_port=1),
                                 actions=[Output(2), Output(3)]))
        pairs[0].rx.receive(frame())
        assert len(received) == 2
        assert received[0][1].frame_id != received[1][1].frame_id

    def test_frames_stamped_through_bridge(self):
        bridge, pairs, _ = functional_bridge()
        bridge.add_flow(FlowRule(match=FlowMatch(in_port=1),
                                 actions=[Output(2)]))
        f = frame()
        with obs.tracing() as tracer:
            pairs[0].rx.receive(f)
        journey = tracer.journey(f.frame_id)
        ports = [(s.component, s.kind, s.attrs) for s in journey
                 if s.kind in ("vswitch.rx", "vswitch.tx")]
        assert ports == [("br0", "vswitch.rx", {"in_port": 1}),
                         ("br0", "vswitch.tx", {"out_port": 2})]


class TestNormalAction:
    def test_unknown_unicast_floods_except_ingress(self):
        bridge, pairs, received = functional_bridge(3)
        bridge.add_flow(FlowRule(match=FlowMatch(), actions=[Normal()]))
        pairs[0].rx.receive(frame())
        assert sorted(i for i, _ in received) == [1, 2]

    def test_learning_converts_flood_to_unicast(self):
        bridge, pairs, received = functional_bridge(3)
        bridge.add_flow(FlowRule(match=FlowMatch(), actions=[Normal()]))
        # Host with MAC 0xA announces itself on port 1.
        pairs[0].rx.receive(frame())
        received.clear()
        # Reply towards 0xA arrives on port 2: unicast to port 1 only.
        pairs[1].rx.receive(frame(src_mac=MacAddress(0xB),
                                  dst_mac=MacAddress(0xA)))
        assert [i for i, _ in received] == [0]

    def test_hairpin_suppressed(self):
        bridge, pairs, received = functional_bridge()
        bridge.add_flow(FlowRule(match=FlowMatch(), actions=[Normal()]))
        pairs[0].rx.receive(frame())           # learn 0xA on port 1
        received.clear()
        pairs[0].rx.receive(frame(src_mac=MacAddress(0xC),
                                  dst_mac=MacAddress(0xA)))
        assert received == []  # destination is the ingress port


class TestTimedMode:
    def _timed_bridge(self):
        sim = Simulator()
        bridge = OvsBridge("br0", mode=DatapathMode.KERNEL, sim=sim,
                           costs=kernel_pass_costs())
        pairs = []
        received = []
        for i in range(2):
            pair = PortPair(f"p{i}")
            pair.attach_tx(lambda f, i=i: received.append((sim.now, i)))
            bridge.add_port(f"port{i}", PortClass.PHYSICAL, pair)
            pairs.append(pair)
        pool = CorePool(num_cores=4)
        bridge.set_compute([pool.allocate_dedicated("ovs.pmd0")])
        bridge.add_flow(FlowRule(match=FlowMatch(in_port=1),
                                 actions=[Output(2)]))
        return sim, bridge, pairs, received

    def test_forwarding_takes_simulated_time(self):
        sim, bridge, pairs, received = self._timed_bridge()
        pairs[0].rx.receive(frame())
        sim.run()
        assert len(received) == 1
        # kernel pass: >= fixed interrupt latency + service time
        assert received[0][0] > 8e-6

    def test_utilization_reported(self):
        sim, bridge, pairs, _ = self._timed_bridge()
        for _ in range(10):
            pairs[0].rx.receive(frame())
        sim.run()
        assert 0 < bridge.utilization(sim.now) <= 1.0

    def test_compute_requires_sim_and_costs(self):
        from repro.errors import ConfigurationError
        bridge = OvsBridge("br0")
        with pytest.raises(ConfigurationError):
            bridge.set_compute([])

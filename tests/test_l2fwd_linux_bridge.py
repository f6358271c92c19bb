"""Tenant-side forwarders: the adapted DPDK l2fwd and the Linux bridge."""

import pytest

from repro.net import Frame, MacAddress
from repro.net.interfaces import PortPair
from repro.sim import Simulator
from repro.vswitch import L2Fwd, LinuxBridge


def frame(**kwargs):
    defaults = dict(src_mac=MacAddress(0xA), dst_mac=MacAddress(0xB))
    defaults.update(kwargs)
    return Frame(**defaults)


class TestL2Fwd:
    def _app(self, sim=None):
        app = L2Fwd("l2fwd", sim=sim)
        out = []
        p0, p1 = PortPair("vf0"), PortPair("vf1")
        p0.attach_tx(lambda f: out.append((0, f)))
        p1.attach_tx(lambda f: out.append((1, f)))
        app.add_port(p0)
        app.add_port(p1)
        return app, p0, p1, out

    def test_rewrites_dst_and_src_mac(self):
        """The paper's adaptation: dst MAC -> gateway VF; src MAC ->
        the egress VF (passing the NIC spoof check)."""
        app, p0, p1, out = self._app()
        gw = MacAddress(0x11)
        own = MacAddress(0x22)
        app.set_route(0, 1, new_dst_mac=gw, new_src_mac=own)
        p0.rx.receive(frame())
        assert len(out) == 1
        port, f = out[0]
        assert port == 1
        assert f.dst_mac == gw
        assert f.src_mac == own

    def test_src_mac_preserved_when_not_configured(self):
        app, p0, p1, out = self._app()
        app.set_route(0, 1, new_dst_mac=MacAddress(0x11))
        p0.rx.receive(frame())
        assert out[0][1].src_mac == MacAddress(0xA)

    def test_unrouted_port_drops(self):
        app, p0, p1, out = self._app()
        p1.rx.receive(frame())
        assert out == []
        assert app.unrouted == 1

    def test_hairpin_route_same_port(self):
        app, p0, p1, out = self._app()
        app.set_route(0, 0, new_dst_mac=MacAddress(0x33))
        p0.rx.receive(frame())
        assert out[0][0] == 0

    def test_route_to_unknown_port_rejected(self):
        app, *_ = self._app()
        with pytest.raises(KeyError):
            app.set_route(0, 9, new_dst_mac=MacAddress(1))

    def test_timed_mode_adds_drain_wait(self):
        sim = Simulator()
        app, p0, p1, out = self._app(sim=sim)
        app.set_route(0, 1, new_dst_mac=MacAddress(0x11))
        p0.rx.receive(frame())
        assert out == []  # not yet delivered
        sim.run()
        assert len(out) == 1
        assert sim.now <= app.drain_interval + 1e-6

    def test_forward_counter(self):
        app, p0, p1, _ = self._app()
        app.set_route(0, 1, new_dst_mac=MacAddress(0x11))
        for _ in range(5):
            p0.rx.receive(frame())
        assert app.forwarded == 5


class TestLinuxBridge:
    def _bridge(self, sim=None, ports=2):
        bridge = LinuxBridge("br0", sim=sim)
        out = []
        pairs = []
        for i in range(ports):
            pair = PortPair(f"eth{i}")
            pair.attach_tx(lambda f, i=i: out.append((i, f)))
            bridge.add_port(pair)
            pairs.append(pair)
        return bridge, pairs, out

    def test_floods_unknown_unicast(self):
        bridge, pairs, out = self._bridge(ports=3)
        pairs[0].rx.receive(frame())
        assert sorted(i for i, _ in out) == [1, 2]
        assert bridge.flooded == 1

    def test_two_port_bridge_acts_as_pipe(self):
        bridge, pairs, out = self._bridge()
        pairs[0].rx.receive(frame())
        assert [i for i, _ in out] == [1]

    def test_learns_and_unicasts(self):
        bridge, pairs, out = self._bridge(ports=3)
        pairs[2].rx.receive(frame(src_mac=MacAddress(0xB),
                                  dst_mac=MacAddress(0x1)))
        out.clear()
        pairs[0].rx.receive(frame())  # dst 0xB learned on port 2
        assert [i for i, _ in out] == [2]

    def test_drops_hairpin(self):
        bridge, pairs, out = self._bridge()
        pairs[0].rx.receive(frame(src_mac=MacAddress(0xB)))  # learn B@0
        out.clear()
        pairs[1].rx.receive(frame(src_mac=MacAddress(0xC),
                                  dst_mac=MacAddress(0xB)))
        assert [i for i, _ in out] == [0]
        out.clear()
        pairs[0].rx.receive(frame(src_mac=MacAddress(0xD),
                                  dst_mac=MacAddress(0xB)))
        assert out == []  # destination behind the ingress port

    def test_timed_mode_delays_forwarding(self):
        sim = Simulator()
        bridge, pairs, out = self._bridge(sim=sim)
        pairs[0].rx.receive(frame())
        assert out == []
        sim.run()
        assert len(out) == 1
        assert sim.now >= 30e-6  # the kernel bridge latency


def _drive(bursts, batched, ports=3):
    """Feed timed bursts into a timed Linux bridge, per frame or as one
    batch per burst; returns what it emitted and its counters.

    ``bursts`` lists ``(port, src, dst, times)``; frame ids number the
    members in burst order, so both paths carry the same ids.
    """
    from repro.net import packet
    from repro.net.packet import FrameBatch

    packet.reset_frame_ids()  # flood copies draw ids: same start
    sim = Simulator()
    bridge = LinuxBridge("br0", sim=sim)
    out = []
    pairs = []
    for i in range(ports):
        pair = PortPair(f"eth{i}")
        pair.attach_tx(lambda f, i=i: out.append((sim.now, i, f.frame_id)))
        bridge.add_port(pair)
        pairs.append(pair)
    fid = 0
    for port, src, dst, times in bursts:
        frames = []
        for t in times:
            fid += 1
            f = frame(src_mac=MacAddress(src), dst_mac=MacAddress(dst))
            f.frame_id = fid
            frames.append((t, f))
        if batched:
            batch = FrameBatch(frames[0][1], [f.frame_id for _, f in frames],
                               [t for t, _ in frames])
            # Batches reach the bridge no later than their first member.
            sim.schedule(frames[0][0] - 5e-6, pairs[port].rx.receive_batch,
                         batch, sim)
        else:
            for t, f in frames:
                sim.schedule(t, pairs[port].rx.receive, f)
    sim.run()
    return sorted(out), (bridge.forwarded, bridge.flooded, bridge.epoch)


US = 1e-6


class TestLinuxBridgeBatches:
    """The batched bridge decides once per burst; the per-frame bridge
    learns at each arrival and decides at arrival + delay.  These pin
    the learning cases against the per-frame path, counters included."""

    def test_reverse_flow_arrives_mid_burst(self):
        # Flow A (0xA -> 0xB) on port 0; flow B (0xB -> 0xA) starts on
        # port 1 in the middle of A's burst: A's frames deciding before
        # B's learn flood, later ones go to port 1 alone.  A second
        # round, both sources known, forwards in bulk.
        bursts = [
            (0, 0xA, 0xB, [(10 + 10 * i) * US for i in range(10)]),
            (1, 0xB, 0xA, [(45 + 10 * i) * US for i in range(4)]),
            (0, 0xA, 0xB, [(300 + 10 * i) * US for i in range(8)]),
            (1, 0xB, 0xA, [(305 + 10 * i) * US for i in range(8)]),
        ]
        oracle = _drive(bursts, batched=False)
        batched = _drive(bursts, batched=True)
        assert batched == oracle
        out, (forwarded, flooded, epoch) = oracle
        assert 0 < flooded < 10  # the switch-over happened mid-burst
        assert forwarded == 30 and epoch == 2

    def test_destination_behind_ingress_port_is_filtered(self):
        # 0xB is learned on port 0; flow C (0xC -> 0xB) also arrives on
        # port 0, so every frame is filtered, in bulk or not.
        bursts = [
            (0, 0xB, 0xA, [(10 + 10 * i) * US for i in range(3)]),
            (0, 0xC, 0xB, [(100 + 10 * i) * US for i in range(5)]),
            (0, 0xC, 0xB, [(300 + 10 * i) * US for i in range(5)]),
        ]
        oracle = _drive(bursts, batched=False)
        batched = _drive(bursts, batched=True)
        assert batched == oracle
        out, (forwarded, flooded, epoch) = oracle
        assert len(out) == 2 * 3 and forwarded == flooded == 3

    def test_epoch_bumps_only_when_a_learn_changes_the_table(self):
        bridge, pairs, out = TestLinuxBridge()._bridge(ports=3)
        assert bridge.epoch == 0
        pairs[0].rx.receive(frame())
        pairs[0].rx.receive(frame())
        assert bridge.epoch == 1  # 0xA learned once
        pairs[2].rx.receive(frame())
        assert bridge.epoch == 2  # 0xA moved to port 2
        pairs[1].rx.receive(frame(src_mac=MacAddress(0xFFFFFFFFFFFF)))
        assert bridge.epoch == 2  # broadcast sources are never learned

    def test_fused_route_revalidates_on_bridge_epoch(self):
        from repro.core import SecurityLevel, TrafficScenario, build_deployment
        from repro.core.spec import DeploymentSpec
        from repro.traffic import TestbedHarness

        d = build_deployment(DeploymentSpec(level=SecurityLevel.BASELINE),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        h.configure_tenant_flows(rate_per_flow_pps=20_000)
        h.run(duration=0.01)
        routes = [r for r in d._route_cache.values()
                  if isinstance(getattr(r, "app", None), LinuxBridge)]
        assert routes, "no fused route crosses a tenant Linux bridge"
        route = routes[0]
        assert d._route_valid(route)
        route.app._ports[1].rx.receive(frame(src_mac=MacAddress(0xEE)))
        assert not d._route_valid(route)

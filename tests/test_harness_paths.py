"""Which data-plane path a harness run takes, and why.

Runs are batched by default; every condition that forces the per-frame
oracle is observable by the harness and reported on the result.
"""

import pytest

from repro import obs
from repro.controlplane.driver import ChurnScript
from repro.core import SecurityLevel, TrafficScenario, build_deployment
from repro.core.spec import DeploymentSpec
from repro.experiments import fault_isolation, noisy_neighbor
from repro.faults import campaign, scripted_crash
from repro.faults.session import ChaosSession
from repro.scenario import ScenarioSpec
from repro.traffic import TestbedHarness
from repro.traffic.capture import Capture

DURATION = 0.004


def l2_deployment():
    spec = DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=2)
    return build_deployment(spec, TrafficScenario.P2V)


def _batch_off(h):
    return TestbedHarness(h.deployment, batch=False)


def _tracer(h):
    obs.enable_tracing(h.deployment.sim)
    return h


def _chaos(h):
    # Armed directly on the deployment, as fault-isolation does: the
    # engine's scenario context never sees this session.
    h.session = ChaosSession(h.deployment, h,
                             scripted_crash(compartment=0, at=0.001,
                                            duration=0.001))
    h.session.arm(DURATION)
    return h


def _lifecycle(h):
    ChurnScript(h.deployment).schedule_migration(0.001, tenant_id=0,
                                                 target=1)
    return h


def _unpaired(h):
    h.egress_tap.observe(lambda frame, now: None)
    return h


def _cache_busting(h):
    h.add_tenant_flow(0, 20_000, randomize_src_port=True)
    return h


def _untimed(h):
    # Every built deployment has timed bridges; stand in for one that
    # has none.
    h.deployment.supports_batched_fastpath = lambda: False
    return h


ORACLE_CASES = [
    ("batch=False", _batch_off),
    ("tracer", _tracer),
    ("chaos", _chaos),
    ("lifecycle", _lifecycle),
    ("unpaired tap observer", _unpaired),
    ("cache-busting flows", _cache_busting),
    ("untimed deployment", _untimed),
]


class TestPathSelection:
    def test_batched_by_default(self):
        h = TestbedHarness(l2_deployment())
        h.configure_tenant_flows(rate_per_flow_pps=20_000)
        result = h.run(duration=DURATION)
        assert (result.path, result.oracle_reason) == ("batched", None)
        assert h.lg.batch is True

    @pytest.mark.parametrize("reason,setup", ORACLE_CASES,
                             ids=[reason for reason, _ in ORACLE_CASES])
    def test_oracle_reason_reported(self, reason, setup):
        h = setup(TestbedHarness(l2_deployment()))
        h.configure_tenant_flows(rate_per_flow_pps=20_000)
        try:
            result = h.run(duration=DURATION)
        finally:
            obs.disable_tracing()
        assert (result.path, result.oracle_reason) == ("oracle", reason)
        assert h.oracle_reason == reason
        assert h.lg.batch is False
        assert result.delivered > 0

    def test_tracer_mark_released(self):
        d = l2_deployment()
        obs.enable_tracing(d.sim)
        try:
            assert d.oracle_reason() == "tracer"
            later = l2_deployment()  # built while tracing: marked too
            assert later.oracle_reason() == "tracer"
        finally:
            obs.disable_tracing()
        assert d.oracle_reason() is None
        assert later.oracle_reason() is None

    def test_chaos_mark_held_until_finish(self):
        h = _chaos(TestbedHarness(l2_deployment()))
        assert h.deployment.oracle_reason() == "chaos"
        h.configure_tenant_flows(rate_per_flow_pps=20_000)
        h.run(duration=DURATION)
        assert h.deployment.oracle_reason() == "chaos"
        h.session.finish()
        assert h.deployment.oracle_reason() is None

    def test_paired_observer_keeps_batched_path(self):
        h = TestbedHarness(l2_deployment())
        seen = []
        h.egress_tap.observe(lambda frame, now: seen.append(now),
                             batch=lambda batch, starts: seen.extend(starts))
        h.configure_tenant_flows(rate_per_flow_pps=20_000)
        result = h.run(duration=DURATION)
        assert result.path == "batched"
        assert len(seen) == result.delivered

    def test_unpaired_observer_sees_wire_order(self):
        """Why an unpaired observer forces the oracle.  A batched link
        notifies its tap one run per batch per settle, not in wire order
        across batches: forced onto the batched path, an observer of
        this run sees timestamps go backwards (143 times in 4,001
        frames).  A capture expects wire order, and gets it."""
        h = TestbedHarness(l2_deployment())
        capture = Capture(max_records=10_000).attach_tap(h.egress_tap)
        h.configure_tenant_flows(rate_per_flow_pps=50_000)
        result = h.run(duration=0.02)
        assert result.oracle_reason == "unpaired tap observer"
        stamps = [record.timestamp for record in capture.records]
        assert len(stamps) == capture.seen == result.sent > 4_000
        assert stamps == sorted(stamps)

    def test_unpaired_observer_sees_batches_member_by_member(self):
        from repro.net import Frame, Link, MacAddress, OpticalTap, Port
        from repro.net.packet import FrameBatch
        from repro.sim import Simulator

        sim = Simulator()
        tap = OpticalTap("t")
        frames, twins = [], []
        tap.observe(lambda frame, now: frames.append((frame.frame_id, now)))
        tap.observe(lambda frame, now: None,
                    batch=lambda batch, starts: twins.append(len(batch)))
        assert tap.unpaired == 1
        link = Link(sim, Port("dst"), tap=tap)
        exemplar = Frame(src_mac=MacAddress(1), dst_mac=MacAddress(2))
        link.send_batch(FrameBatch(exemplar, [7, 8], [0.0, 1e-6]))
        assert [fid for fid, _ in frames] == [7, 8]
        assert twins == [2]


class TestWarmupValidation:
    def test_spec_rejects_warmup_at_or_past_duration(self):
        spec = DeploymentSpec(level=SecurityLevel.LEVEL_1)
        with pytest.raises(ValueError,
                           match=r"warmup=0\.02 and duration=0\.02"):
            ScenarioSpec(workload="fig5.latency", deployment=spec,
                         duration=0.02, warmup=0.02)
        with pytest.raises(ValueError, match="warmup=-0.1"):
            ScenarioSpec(workload="fig5.latency", deployment=spec,
                         duration=0.02, warmup=-0.1)
        # Analytic specs (no DES window) carry no warmup constraint.
        ScenarioSpec(workload="fig5.throughput", deployment=spec)

    def test_harness_rejects_warmup_at_or_past_duration(self):
        h = TestbedHarness(l2_deployment())
        h.configure_tenant_flows(rate_per_flow_pps=1_000)
        with pytest.raises(ValueError,
                           match=r"warmup=0\.01 and duration=0\.01"):
            h.run(duration=0.01, warmup=0.01)
        assert h.lg.sent == 0

    def test_short_noisy_neighbor_fails_up_front(self):
        # The default warmup (0.02) equals the window: a clear error at
        # spec construction, not a ZeroDivisionError inside the run.
        with pytest.raises(ValueError, match="warmup=0.02"):
            noisy_neighbor.run(duration=0.02)


class _Recording(TestbedHarness):
    """Remembers its instances; ``default_batch`` picks the path."""

    default_batch = True
    instances: list = []

    def __init__(self, deployment, **kwargs):
        kwargs.setdefault("batch", _Recording.default_batch)
        super().__init__(deployment, **kwargs)
        _Recording.instances.append(self)


class TestFaultIsolationPaths:
    def test_values_identical_batched_or_not(self, monkeypatch):
        """A session armed on the deployment (not through the engine)
        must still force the oracle: the table is the same either way."""
        monkeypatch.setattr(campaign, "TestbedHarness", _Recording)
        phase = 0.04  # the quick plan's
        specs = fault_isolation.scenarios(phase=phase, seed=0)
        values = {}
        for batch in (True, False):
            monkeypatch.setattr(_Recording, "default_batch", batch)
            monkeypatch.setattr(_Recording, "instances", [])
            values[batch] = [fault_isolation.measure_scenario(spec)
                             for spec in specs]
            reasons = {h.oracle_reason for h in _Recording.instances}
            assert reasons == {"chaos" if batch else "batch=False"}
        assert values[True] == values[False]

"""PMU-style latency breakdown: accounting integrity + the SR-IOV story."""

import pytest

from repro import obs
from repro.core import ResourceMode, SecurityLevel, TrafficScenario
from repro.core.spec import DeploymentSpec
from repro.experiments.latency_breakdown import measure_breakdown
from repro.units import USEC

DURATION = 0.06
_memo = {}


def breakdown(level, vms=1, mode=ResourceMode.SHARED,
              scenario=TrafficScenario.P2V):
    key = (level, vms, mode, scenario)
    if key not in _memo:
        spec = DeploymentSpec(level=level, num_vswitch_vms=vms,
                              resource_mode=mode)
        _memo[key] = measure_breakdown(spec, scenario, duration=DURATION)
    return _memo[key]


class TestAccountingIntegrity:
    @pytest.mark.parametrize("level,vms", [
        (SecurityLevel.BASELINE, 1),
        (SecurityLevel.LEVEL_1, 1),
        (SecurityLevel.LEVEL_2, 2),
    ])
    def test_components_sum_to_measured_latency(self, level, vms):
        """The breakdown must account for (almost) the whole end-to-end
        latency the DAG-style monitor measures."""
        from repro.traffic import TestbedHarness
        from repro.core import build_deployment
        spec = DeploymentSpec(level=level, num_vswitch_vms=vms)
        d = build_deployment(spec, TrafficScenario.P2V)
        h = TestbedHarness(d)
        h.configure_tenant_flows(rate_per_flow_pps=2500)
        result = h.run(duration=DURATION, warmup=0.02)
        measured_mean = sum(result.latencies) / len(result.latencies)
        parts = breakdown(level, vms)
        assert sum(parts.values()) == pytest.approx(measured_mean, rel=0.1)

    def test_no_negative_charges(self):
        parts = breakdown(SecurityLevel.LEVEL_1)
        assert all(v >= 0 for v in parts.values())


class TestTheSrIovStory:
    """The §4.2 explanation, quantified per component."""

    def test_baseline_latency_lives_in_vhost_and_linux_bridge(self):
        parts = breakdown(SecurityLevel.BASELINE)
        software_tenant_path = parts["vhost"] + parts["tenant"]
        assert software_tenant_path > 0.6 * sum(parts.values())

    def test_mts_replaces_vhost_with_microsecond_nic_hops(self):
        parts = breakdown(SecurityLevel.LEVEL_1)
        assert parts["vhost"] == 0.0
        assert parts["nic"] < 10 * USEC  # "negligible" round trips
        assert parts["nic"] < breakdown(SecurityLevel.BASELINE)["vhost"] / 4

    def test_mts_remaining_budget_is_the_tenant_poll_loop(self):
        parts = breakdown(SecurityLevel.LEVEL_1)
        assert parts["tenant"] > 0.5 * sum(parts.values())

    def test_sharing_shows_up_as_vswitch_wait(self):
        l1 = breakdown(SecurityLevel.LEVEL_1)
        l2_4 = breakdown(SecurityLevel.LEVEL_2, vms=4)
        assert l2_4["vswitch.wait"] > 3 * l1["vswitch.wait"]
        # ...while everything else stays put.
        assert l2_4["tenant"] == pytest.approx(l1["tenant"], rel=0.15)
        assert l2_4["nic"] == pytest.approx(l1["nic"], rel=0.15)

    def test_unloaded_paths_do_not_queue(self):
        for level in (SecurityLevel.BASELINE, SecurityLevel.LEVEL_1):
            assert breakdown(level)["vswitch.queue"] < 1 * USEC

    def test_wire_time_is_negligible_at_64b(self):
        parts = breakdown(SecurityLevel.LEVEL_1)
        assert parts["wire"] < 1 * USEC


class TestRunsUnderTheTracer:
    """The breakdown is a fold over packet-tracer spans, the simulator's
    one per-frame record."""

    def test_runs_traced_and_restores_an_outer_tracer(self, monkeypatch):
        reasons = []
        on_run_complete = obs.on_run_complete

        def spy(harness, result):
            reasons.append(result.oracle_reason)
            on_run_complete(harness, result)

        monkeypatch.setattr(obs, "on_run_complete", spy)
        outer = obs.enable_tracing()
        spec = DeploymentSpec(level=SecurityLevel.LEVEL_1)
        try:
            parts = measure_breakdown(spec, duration=0.03)
            assert obs.TRACER is outer
            assert len(outer) == 0  # the run's spans went to its own tracer
        finally:
            obs.disable_tracing()
        assert reasons == ["tracer"]
        assert parts["tenant"] > 0

    def test_dropped_spans_fail_the_measurement(self, monkeypatch):
        tracing = obs.tracing
        monkeypatch.setattr(obs, "tracing",
                            lambda sim: tracing(sim, capacity=100))
        with pytest.raises(RuntimeError, match="dropped"):
            measure_breakdown(DeploymentSpec(level=SecurityLevel.LEVEL_1),
                              duration=0.03)
        assert not obs.tracing_enabled()

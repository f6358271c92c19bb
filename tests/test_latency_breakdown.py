"""PMU-style latency breakdown: accounting integrity + the SR-IOV story."""

import pytest

from repro import obs
from repro.core import ResourceMode, SecurityLevel, TrafficScenario
from repro.core.spec import DeploymentSpec
from repro.experiments import latency_breakdown
from repro.experiments.latency_breakdown import measure_breakdown
from repro.scenario import ScenarioSpec
from repro.traffic import TestbedHarness
from repro.units import USEC
from tests.test_obs import BREAKDOWN_TOPOLOGIES

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
    """The breakdown reads the latency-attribution tap, which holds no
    oracle mark.  A span tracer that was recording when the deployment
    was built still marks it, so that run takes the oracle; the tap
    reads the same values there, and the tracer sees none of the run's
    spans."""

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


def _oracle_harness(deployment):
    return TestbedHarness(deployment, batch=False)


class TestBatchedEqualsOracle:
    """The tap's means on the batched chain against the per-frame oracle,
    compared with ``==``: every hop charges its own delay, in hop order,
    and the captured rows fold in wire order on both paths."""

    @staticmethod
    def _measure(monkeypatch, spec, batch):
        reasons = []
        on_run_complete = obs.on_run_complete

        def spy(harness, result):
            reasons.append(result.oracle_reason)
            on_run_complete(harness, result)

        with monkeypatch.context() as patch:
            patch.setattr(obs, "on_run_complete", spy)
            if not batch:
                patch.setattr(latency_breakdown, "TestbedHarness",
                              _oracle_harness)
            means = latency_breakdown.measure_scenario(spec)
        return means, reasons

    def _check(self, monkeypatch, spec):
        batched, reasons = self._measure(monkeypatch, spec, batch=True)
        assert reasons == [None]
        oracle, reasons = self._measure(monkeypatch, spec, batch=False)
        assert reasons == ["batch=False"]
        assert batched == oracle
        assert batched["tenant"] > 0

    @pytest.mark.parametrize("spec,scenario", BREAKDOWN_TOPOLOGIES)
    def test_breakdown_topologies(self, monkeypatch, spec, scenario):
        self._check(monkeypatch, ScenarioSpec(
            workload=latency_breakdown.WORKLOAD, deployment=spec,
            traffic=scenario, duration=0.02, warmup=0.005,
            label=spec.label, params={"aggregate_pps": 10_000.0}))

    @pytest.mark.parametrize(
        "spec", latency_breakdown.scenarios(duration=0.06),
        ids=lambda spec: spec.label)
    def test_experiment_configurations(self, monkeypatch, spec):
        self._check(monkeypatch, spec)

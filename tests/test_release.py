"""A finished run releases what it built, by reference counting alone.

Each test disables the cycle collector around the run: an object that
outlives its last reference there sits in a reference cycle, which only
the collector could free.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.controlplane import workload as churn
from repro.core import SecurityLevel, TrafficScenario, build_deployment
from repro.core.spec import DeploymentSpec
from repro.errors import SimulationError
from repro.experiments import (deployment_cost, fault_isolation,
                               fig5_latency, fig5_resources,
                               fig5_throughput, fig6_apache,
                               fig6_iperf, fig6_memcached,
                               latency_breakdown, noisy_neighbor,
                               policy_injection)
from repro.faults import campaign
from repro.scenario import ScenarioSpec, WORKLOADS, context, run_scenario
from repro.traffic import TestbedHarness

#: Pool-backend self-tests, lethal or hanging by design.
DIAGNOSTIC = {"chaos.crashy", "chaos.sleepy"}


@contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def repro_garbage():
    """Objects of ``repro`` types that only the collector can free."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = [type(o).__qualname__ for o in gc.garbage
                 if type(o).__module__.startswith("repro")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found


def harness(batch):
    spec = DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=2)
    h = TestbedHarness(build_deployment(spec, TrafficScenario.P2V),
                       batch=batch)
    h.configure_tenant_flows(rate_per_flow_pps=20_000.0)
    return h


@pytest.mark.parametrize("batch", [True, False], ids=["batched", "oracle"])
class TestHarnessRelease:
    def test_context_manager_releases_on_exit(self, batch):
        with collector_off():
            with harness(batch) as h:
                result = h.run(duration=0.004)
            assert h.released
            assert result.path == ("batched" if batch else "oracle")
            assert result.delivered > 0
            ref = weakref.ref(h.deployment)
            del h
            assert ref() is None
            assert repro_garbage() == []

    def test_release_is_idempotent(self, batch):
        h = harness(batch)
        h.run(duration=0.004)
        h.release()
        h.release()
        h.deployment.release()
        assert h.released

    def test_run_on_released_harness_raises(self, batch):
        h = harness(batch)
        h.release()
        with pytest.raises(SimulationError, match=r"TestbedHarness of "
                           r"L2\(2\).*was released"):
            h.run(duration=0.004)

    def test_deployment_dies_at_del(self, batch):
        with collector_off():
            h = harness(batch)
            result = h.run(duration=0.004)
            # A pending event bound to the deployment: the kernel's
            # heap closes a cycle through it until the release.
            h.sim.call_later(1.0, h.deployment.drain_batches)
            h.release()
            ref = weakref.ref(h.deployment)
            # obs.REGISTRY's clock read this simulator until the release.
            sim_ref = weakref.ref(h.sim)
            del h
            assert ref() is None
            assert sim_ref() is None
        assert result.sent > 0


def test_released_deployment_stays_readable():
    h = harness(True)
    h.run(duration=0.004)
    passes = sum(bridge.passes for bridge in h.deployment.bridges)
    h.release()
    assert passes > 0
    assert sum(bridge.passes for bridge in h.deployment.bridges) == passes
    assert "teardown" not in h.deployment.oplog.summary()
    h.deployment.teardown()  # the orchestrator's teardown still works


def test_release_after_teardown_frees_the_deployment():
    # Teardown drops the VFs from the NIC's tables; the deployment's
    # own VF maps still reach their port pairs.
    with collector_off():
        h = harness(True)
        h.run(duration=0.004)
        h.deployment.teardown()
        h.release()
        ref = weakref.ref(h.deployment)
        del h
        assert ref() is None
        assert repro_garbage() == []


def census_specs():
    """One short spec of every registered workload kind."""
    fabric = DeploymentSpec(level=SecurityLevel.LEVEL_2, num_vswitch_vms=2,
                            nic_ports=1)
    return {
        "fig5.throughput": fig5_throughput.scenarios()[1],
        "fig5.latency": fig5_latency.scenarios(duration=0.01)[1],
        "fig5.resources": fig5_resources.scenarios()[1],
        "fig6.iperf": fig6_iperf.scenarios()[1],
        "fig6.apache": fig6_apache.scenarios()[1],
        "fig6.memcached": fig6_memcached.scenarios()[1],
        "ext.noisy-neighbor": noisy_neighbor.scenarios(
            duration=0.01, warmup=0.002)[1],
        "ext.policy-injection": policy_injection.scenarios(
            duration=0.01, warmup=0.002)[1],
        "ext.latency-breakdown": latency_breakdown.scenarios(
            duration=0.01, warmup=0.002)[1],
        "ext.fault-isolation": fault_isolation.scenarios(phase=0.005)[1],
        "ext.deployment-cost": deployment_cost.scenarios()[1],
        "ext.chaos": campaign.scenarios(duration=0.015)[1],
        "fabric.placement": ScenarioSpec(
            workload="fabric.placement", deployment=fabric,
            params={"servers": 4}),
        "fabric.hybrid": ScenarioSpec(
            workload="fabric.hybrid", deployment=fabric, duration=0.01,
            params={"servers": 20, "servers_per_rack": 8,
                    "study_mode": "probes", "study_flows": 2,
                    "study_pps": 20_000.0}),
        "controlplane.churn": churn.scenario(
            churn.default_plan(duration=20.0, arrival_rate=2.0),
            metering=True),
    }


def test_census_covers_every_workload_kind():
    assert set(census_specs()) == set(WORKLOADS) - DIAGNOSTIC


@pytest.mark.parametrize("kind", sorted(census_specs()))
def test_run_scenario_frees_what_the_run_built(kind, monkeypatch):
    owned = []
    own = context.own

    def record(obj):
        owned.append((type(obj).__name__, weakref.ref(obj)))
        own(obj)

    monkeypatch.setattr(context, "own", record)
    spec = census_specs()[kind]
    with collector_off():
        run_scenario(spec)
        alive = [name for name, ref in owned if ref() is not None]
        garbage = repro_garbage()
    assert alive == []
    assert garbage == []
    built = {name for name, _ in owned}
    expected = {"fig5.latency": {"Deployment", "TestbedHarness"},
                "fabric.hybrid": {"Deployment", "MultiServerCloud"},
                "controlplane.churn": {"ControlPlane"},
                "ext.chaos": {"ChaosSession"}}.get(kind, set())
    assert expected <= built

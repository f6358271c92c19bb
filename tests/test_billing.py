"""Per-tenant metering, attribution, invoices and reconciliation."""

import json
import math

import pytest

from repro import billing, obs
from repro.billing import attribution
from repro.billing.invoice import invoices_from_records
from repro.billing.meter import UNATTRIBUTED, NullMeter, TenantMeter, UsageRecord
from repro.billing.session import MeteringSession
from repro.core import (
    ResourceMode,
    SecurityLevel,
    TrafficScenario,
    build_deployment,
)
from repro.core.accounting import NetworkingMeter, PricingModel, bill
from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.traffic import TestbedHarness
from tests.conftest import make_spec


@pytest.fixture(autouse=True)
def _clean_billing():
    """Every test leaves the module-level tap and registry pristine."""
    yield
    billing.METER = NullMeter()
    obs.REGISTRY.reset()


def metered_run(level, vms=1, mode=ResourceMode.SHARED, user_space=False,
                interval=0.01, duration=0.05, flows=None):
    """Run traffic with a MeteringSession armed; returns (deployment,
    session summary, usage records, truth usages)."""
    d = build_deployment(
        make_spec(level=level, vms=vms, mode=mode, user_space=user_space),
        TrafficScenario.P2V)
    h = TestbedHarness(d)
    if flows is None:
        h.configure_tenant_flows(rate_per_flow_pps=2000)
    else:
        for tenant, rate, size in flows:
            h.add_tenant_flow(tenant, rate, frame_bytes=size)
    truth = NetworkingMeter(d)
    truth.snapshot()
    session = MeteringSession(d, h, interval=interval)
    session.arm(duration)
    h.run(duration=duration)
    summary = session.finish()
    return d, summary, session.records, truth.read()


class TestMeterPrimitives:
    def test_null_meter_is_disabled_and_inert(self):
        meter = NullMeter()
        assert not meter.enabled
        meter.cpu(0, 1.0)
        meter.pcie(0, 64)
        meter.drop(0, "x")
        meter.fault_drop(0)
        assert not hasattr(meter, "cpu_seconds")

    def test_tenant_meter_accumulates_per_tenant(self):
        meter = TenantMeter()
        assert meter.enabled
        meter.cpu(0, 1e-6)
        meter.cpu(0, 2e-6)
        meter.cpu(1, 5e-6)
        meter.pcie(0, 64)
        meter.drop(1, "spoof")
        meter.drop(1, "spoof")
        meter.fault_drop(0)
        assert meter.cpu_seconds[0] == pytest.approx(3e-6)
        assert meter.passes == {0: 2, 1: 1}
        assert meter.pcie_bytes == {0: 64}
        assert meter.drops == {(1, "spoof"): 2}
        assert meter.fault_drops == {0: 1}

    def test_none_tenant_folds_into_unattributed(self):
        meter = TenantMeter()
        meter.cpu(None, 1e-6)
        meter.drop(None, "x")
        assert meter.cpu_seconds == {UNATTRIBUTED: 1e-6}
        assert meter.drops == {(UNATTRIBUTED, "x"): 1}

    def test_totals_returns_copies(self):
        meter = TenantMeter()
        meter.cpu(0, 1e-6)
        totals = meter.totals()
        totals["cpu"][0] = 99.0
        assert meter.cpu_seconds[0] == pytest.approx(1e-6)

    def test_usage_record_rates_never_nan_at_zero_window(self):
        rec = UsageRecord(tenant_id=0, compartment=0, t0=1.0, t1=1.0,
                          cpu_seconds=0.0, io_bytes=0)
        assert rec.cpu_utilization == 0.0
        assert rec.io_bytes_per_second == 0.0
        assert not math.isnan(rec.cpu_utilization)

    def test_usage_record_round_trips(self):
        rec = UsageRecord(tenant_id=2, compartment=1, t0=0.0, t1=0.01,
                          cpu_seconds=1e-4, cpu_seconds_exact=9e-5,
                          core_seconds=5e-5, io_bytes=640, pcie_bytes=1280,
                          passes=10, drops={"spoof": 2}, fault_seconds=0.1,
                          fault_drops=3, memory_byte_seconds=100.0,
                          quality="exact")
        assert UsageRecord.from_dict(rec.to_dict()) == rec


class TestSimulatorEvery:
    def test_fires_at_interval_up_to_horizon(self):
        sim = Simulator()
        hits = []
        sim.every(0.01, lambda: hits.append(sim.now), until=0.05)
        sim.run(until=1.0)
        assert len(hits) == 5
        assert hits[0] == pytest.approx(0.01)
        assert hits[-1] == pytest.approx(0.05)

    def test_cancel_stops_the_chain(self):
        sim = Simulator()
        hits = []
        timer = sim.every(0.01, lambda: hits.append(sim.now))
        sim.run(until=0.035)
        timer.cancel()
        sim.run(until=0.1)
        assert len(hits) == 3

    def test_callback_may_cancel_its_own_timer(self):
        sim = Simulator()
        hits = []
        timer = sim.every(0.01, lambda: (hits.append(sim.now),
                                         timer.cancel()))
        sim.run(until=0.1)
        assert len(hits) == 1

    def test_rejects_non_positive_interval(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)


class TestAccountingEdges:
    def test_zero_duration_window_reads_empty(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        meter = NetworkingMeter(d)
        meter.snapshot()
        assert meter.read() == []

    def test_pre_traffic_read_is_zero_valued_and_finite(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        meter = NetworkingMeter(d)
        meter.snapshot()
        d.sim.run(until=d.sim.now + 0.01)
        usages = meter.read()
        assert len(usages) == d.spec.num_tenants
        for u in usages:
            assert u.io_bytes == 0
            assert u.vswitch_cpu_seconds == pytest.approx(0.0)
            assert not math.isnan(u.cpu_utilization)
            assert u.io_bytes_per_second == 0.0

    def test_idle_shared_window_still_attributes_memory(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        meter = NetworkingMeter(d)
        meter.snapshot()
        d.sim.run(until=d.sim.now + 0.01)
        total_mem = sum(u.vswitch_memory_byte_seconds for u in meter.read())
        ram = d.vswitch_vms[0].memory.ram_bytes
        assert total_mem == pytest.approx(ram * 0.01)


class TestAttributionMath:
    def test_identical_distributions_score_zero(self):
        assert attribution.misattribution_score(
            {0: 2.0, 1: 2.0}, {0: 4.0, 1: 4.0}) == pytest.approx(0.0)

    def test_disjoint_distributions_score_one(self):
        assert attribution.misattribution_score(
            {0: 1.0}, {1: 1.0}) == pytest.approx(1.0)

    def test_empty_side_scores_zero(self):
        assert attribution.misattribution_score({}, {0: 1.0}) == 0.0
        assert attribution.misattribution_score({0: 1.0}, {0: 0.0}) == 0.0

    def test_proportional_split_conserves_total(self):
        split = attribution.proportional_split(10.0, {0: 1.0, 1: 3.0})
        assert split == {0: 2.5, 1: 7.5}

    def test_proportional_split_zero_weights_goes_even(self):
        split = attribution.proportional_split(10.0, {0: 0.0, 1: 0.0})
        assert split == {0: 5.0, 1: 5.0}


LEVELS = [
    pytest.param(SecurityLevel.BASELINE, 1, ResourceMode.SHARED, False,
                 id="baseline"),
    pytest.param(SecurityLevel.LEVEL_1, 1, ResourceMode.SHARED, False,
                 id="l1"),
    pytest.param(SecurityLevel.LEVEL_2, 2, ResourceMode.SHARED, False,
                 id="l2-shared"),
    pytest.param(SecurityLevel.LEVEL_2, 4, ResourceMode.ISOLATED, False,
                 id="l2-isolated"),
    pytest.param(SecurityLevel.LEVEL_2, 4, ResourceMode.ISOLATED, True,
                 id="l3-dpdk"),
]


class TestReconciliation:
    @pytest.mark.parametrize("level,vms,mode,user_space", LEVELS)
    def test_windowed_usage_reconciles_with_accounting(
            self, level, vms, mode, user_space):
        d, summary, records, truth = metered_run(
            level, vms=vms, mode=mode, user_space=user_space)
        assert summary["reconciled"], summary["failures"]
        assert summary["windows"] > 1
        # I/O conservation is exact, per tenant, in integer bytes.
        windowed_io = {}
        for rec in records:
            windowed_io[rec.tenant_id] = (
                windowed_io.get(rec.tenant_id, 0) + rec.io_bytes)
        for usage in truth:
            assert windowed_io.get(usage.tenant_id, 0) == usage.io_bytes

    def test_tap_uninstalled_after_finish(self):
        metered_run(SecurityLevel.LEVEL_1)
        assert not billing.METER.enabled

    def test_finish_is_idempotent(self):
        d = build_deployment(make_spec(level=SecurityLevel.LEVEL_1),
                             TrafficScenario.P2V)
        h = TestbedHarness(d)
        h.configure_tenant_flows(rate_per_flow_pps=1000)
        session = MeteringSession(d, h, interval=0.01)
        session.arm(0.02)
        h.run(duration=0.02)
        first = session.finish()
        count = len(session.records)
        assert session.finish() == first
        assert len(session.records) == count

    def test_quality_tracks_architecture(self):
        _, _, records, _ = metered_run(SecurityLevel.LEVEL_2, vms=4,
                                       mode=ResourceMode.ISOLATED)
        assert {r.quality for r in records if r.compartment >= 0} == {"exact"}
        _, _, records, _ = metered_run(SecurityLevel.BASELINE)
        assert {r.quality for r in records} == {"self-reported"}


class TestWindowsOnBothPaths:
    def test_per_window_cpu_matches_the_per_frame_oracle(self):
        """A window close reads busy time mid-run, so it must first
        catch the batch stations' lazily replayed busy periods up."""
        from repro.experiments.noisy_neighbor import (
            ATTACK_RATE_PPS, ATTACKER, VICTIM_RATE_PPS, VICTIMS)
        windows = {}
        for batch in (True, False):
            d = build_deployment(
                make_spec(level=SecurityLevel.LEVEL_2, vms=4,
                          mode=ResourceMode.ISOLATED),
                TrafficScenario.P2V, seed=3)
            h = TestbedHarness(d, batch=batch)
            h.add_tenant_flow(ATTACKER, ATTACK_RATE_PPS)
            for victim in VICTIMS:
                h.add_tenant_flow(victim, VICTIM_RATE_PPS)
            session = MeteringSession(d, h, interval=0.01)
            session.arm(0.05)
            h.run(duration=0.05)
            session.finish()
            assert h.oracle_reason == (None if batch else "batch=False")
            # One tenant per compartment: its window CPU is exact.
            windows[batch] = [(r.tenant_id, r.t0, r.t1, r.cpu_seconds)
                              for r in session.records if r.compartment >= 0]
        assert len(windows[True]) == 24
        assert windows[True] == windows[False]


class TestMisattribution:
    #: Tenant 0 hammers small frames (cycle-heavy, byte-light); tenant 1
    #: sends few large frames (byte-heavy).  Billing by bytes then
    #: charges tenant 1 for tenant 0's cycles -- in a shared
    #: compartment only.
    MIX = [(0, 4000, 64), (1, 500, 1500), (2, 500, 1500), (3, 500, 1500)]

    def test_shared_compartment_misattributes_cycle_heavy_tenant(self):
        _, summary, _, _ = metered_run(SecurityLevel.LEVEL_1, flows=self.MIX)
        assert summary["reconciled"], summary["failures"]
        assert summary["misattribution_score"] > 0.1

    def test_per_tenant_compartments_bill_exactly(self):
        _, summary, _, _ = metered_run(SecurityLevel.LEVEL_2, vms=4,
                                       mode=ResourceMode.ISOLATED,
                                       flows=self.MIX)
        assert summary["reconciled"], summary["failures"]
        assert summary["misattribution_score"] == pytest.approx(0.0, abs=1e-9)


class TestChaosAttribution:
    def _crash_spec(self, level, vms, mode, duration=0.12):
        from repro.faults.plan import scripted_crash
        from repro.scenario import ScenarioSpec
        return ScenarioSpec(
            workload="fig5.latency",
            deployment=make_spec(level=level, vms=vms, mode=mode),
            duration=duration, warmup=0.01, seed=7,
            params=(("metering", True), ("metering_interval", 0.02),
                    ("aggregate_pps", 8000.0)),
            faults=scripted_crash(compartment=0, at=duration / 3.0),
        )

    @pytest.mark.parametrize("level,vms,mode", [
        pytest.param(SecurityLevel.BASELINE, 1, ResourceMode.SHARED,
                     id="baseline"),
        pytest.param(SecurityLevel.LEVEL_1, 1, ResourceMode.SHARED,
                     id="l1"),
        pytest.param(SecurityLevel.LEVEL_2, 2, ResourceMode.SHARED,
                     id="l2-shared"),
        pytest.param(SecurityLevel.LEVEL_2, 4, ResourceMode.ISOLATED,
                     id="l2-isolated"),
    ])
    def test_crash_charges_only_the_faulty_compartments_tenants(
            self, level, vms, mode):
        from repro.scenario import run_scenario
        result = run_scenario(self._crash_spec(level, vms, mode))
        summaries = [u for u in result.usage if u.get("kind") == "summary"]
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary["reconciled"], summary["failures"]
        payers = {int(t) for t, s in summary["fault_payers"].items() if s > 0}
        spec = self._crash_spec(level, vms, mode).deployment
        assert payers == set(spec.tenants_of_compartment(0))
        # Fault seconds also landed on the records themselves.
        charged = {u["tenant"] for u in result.usage
                   if u.get("kind") == "usage" and u["fault_seconds"] > 0}
        assert charged == payers

    def test_noisy_neighbor_crash_composition(self):
        """The ISSUE scenario: vswitch crash during the noisy-neighbor
        flood -- recovery work lands on the faulty compartment's
        tenants and the books still reconcile."""
        from repro.faults.plan import scripted_crash
        from repro.scenario import ScenarioSpec, run_scenario
        spec = ScenarioSpec(
            workload="ext.noisy-neighbor",
            deployment=make_spec(level=SecurityLevel.LEVEL_2, vms=2,
                                 mode=ResourceMode.SHARED),
            duration=0.03, warmup=0.005, seed=11,
            params=(("metering", True), ("metering_interval", 0.01)),
            faults=scripted_crash(compartment=0, at=0.01),
        )
        result = run_scenario(spec)
        summary = [u for u in result.usage if u.get("kind") == "summary"][0]
        assert summary["reconciled"], summary["failures"]
        payers = {int(t) for t, s in summary["fault_payers"].items() if s > 0}
        assert payers == {0, 1}  # compartment 0 hosts tenants 0 and 1
        # The attacker's flood was blackholed at the dead bridge, so its
        # fault drops dominate -- misattribution of drop *work* is the
        # paper's retransmit story.
        drops = {int(t): n for t, n in summary["fault_drops"].items()}
        assert drops.get(0, 0) > drops.get(2, 0)


    def test_workload_armed_session_is_billed_like_the_harness_hook(self):
        """ext.chaos arms its own ChaosSession; the metering session
        must charge its recovery exactly as it charges a session the
        harness hook attaches for the same plan (fig5.latency)."""
        from repro.faults import campaign
        from repro.scenario import ScenarioSpec, run_scenario

        def fault_seconds(workload):
            result = run_scenario(ScenarioSpec(
                workload=workload,
                deployment=make_spec(level=SecurityLevel.LEVEL_2, vms=2),
                traffic=TrafficScenario.P2V, duration=0.15, seed=0,
                params=(("metering", True),),
                faults=campaign.default_plan(0.15)))
            summary = [u for u in result.usage
                       if u.get("kind") == "summary"]
            assert len(summary) == 1
            return summary[0]["fault_seconds_total"]

        hooked = fault_seconds("fig5.latency")
        assert hooked > 0
        assert fault_seconds("ext.chaos") == hooked


class TestScenarioThreading:
    def _metered_spec(self, seed=0):
        from repro.scenario import ScenarioSpec
        return ScenarioSpec(
            workload="fig5.latency",
            deployment=make_spec(level=SecurityLevel.LEVEL_1),
            duration=0.03, warmup=0.005, seed=seed,
            params=(("metering", True), ("metering_interval", 0.01),
                    ("aggregate_pps", 8000.0)),
        )

    def test_usage_rides_the_result_and_the_cache(self, tmp_path):
        from repro.scenario import Engine, ResultStore, SequentialBackend
        store = ResultStore(str(tmp_path / "cache"))
        engine = Engine(backend=SequentialBackend(), store=store)
        first = engine.run([self._metered_spec()])[0]
        assert not first.cached
        assert any(u.get("kind") == "summary" for u in first.usage)
        again = engine.run([self._metered_spec()])[0]
        assert again.cached
        assert again.usage == first.usage

    def test_unmetered_spec_carries_no_usage(self):
        from repro.scenario import ScenarioSpec, run_scenario
        spec = ScenarioSpec(
            workload="fig5.latency",
            deployment=make_spec(level=SecurityLevel.LEVEL_1),
            duration=0.02, seed=1, params=(("aggregate_pps", 4000.0),))
        assert run_scenario(spec).usage == []

    def test_result_dict_without_usage_key_still_loads(self):
        from repro.scenario import ScenarioResult, run_scenario
        data = run_scenario(self._metered_spec()).to_dict()
        data.pop("usage")
        assert ScenarioResult.from_dict(data).usage == []

    def test_billing_counters_ship_in_result_metrics(self):
        from repro.scenario import run_scenario
        from repro.scenario.engine import fold_metrics
        from repro.obs.metrics import MetricsRegistry
        result = run_scenario(self._metered_spec())
        billing_keys = [k for k in result.metrics if k.startswith("billing_")]
        assert any(k.startswith("billing_cpu_seconds_total")
                   for k in billing_keys)
        assert any(k.startswith("billing_windows_total")
                   for k in billing_keys)
        registry = MetricsRegistry()
        fold_metrics(registry, result.metrics)
        snap = registry.snapshot()
        for key in billing_keys:
            assert snap[key] == pytest.approx(result.metrics[key])

    @pytest.mark.parametrize("params,message", [
        ((("metering_interval", -0.01),), "-0.01"),
        ((("metering_interval", math.inf),), "inf"),
        ((("metering_interval", "0.01"),), "'0.01'"),
        ((("metering_interval", True),), "True"),
        ((("metering", "yes"),), "'yes'"),
        ((("metering", 1),), "1"),
    ])
    def test_bad_metering_params_fail_at_construction(self, params,
                                                       message):
        from repro.errors import ValidationError
        from repro.scenario import ScenarioSpec
        with pytest.raises(ValidationError, match=message):
            ScenarioSpec(
                workload="fig5.latency",
                deployment=make_spec(level=SecurityLevel.LEVEL_1),
                duration=0.02, params=params)

    def test_metering_params_change_the_content_hash(self):
        from repro.scenario import ScenarioSpec
        base = ScenarioSpec(
            workload="fig5.latency",
            deployment=make_spec(level=SecurityLevel.LEVEL_1),
            duration=0.02)
        metered = ScenarioSpec(
            workload="fig5.latency",
            deployment=make_spec(level=SecurityLevel.LEVEL_1),
            duration=0.02, params=(("metering", True),))
        assert base.content_hash() != metered.content_hash()


class TestInvoices:
    def test_invoice_totals_match_the_accounting_bill(self):
        d, summary, records, truth = metered_run(
            SecurityLevel.LEVEL_2, vms=4, mode=ResourceMode.ISOLATED)
        assert summary["reconciled"]
        pricing = PricingModel()
        windowed = {inv.tenant_id: inv
                    for inv in invoices_from_records(records, pricing)}
        for invoice in bill(d, truth, pricing):
            got = windowed[invoice.tenant_id]
            assert got.item("vswitch_cpu") == pytest.approx(invoice.cpu_cost)
            assert got.item("vswitch_memory") == pytest.approx(
                invoice.memory_cost)
            assert got.item("nic_io") == pytest.approx(invoice.io_cost)

    def test_invoice_quality_is_worst_window(self):
        records = [
            UsageRecord(tenant_id=0, compartment=0, t0=0, t1=1,
                        cpu_seconds=1.0, quality="exact"),
            UsageRecord(tenant_id=0, compartment=0, t0=1, t1=2,
                        cpu_seconds=1.0, quality="estimated"),
        ]
        invoices = invoices_from_records(records)
        assert invoices[0].quality == "estimated"

    def test_fault_seconds_become_a_line_item(self):
        records = [UsageRecord(tenant_id=0, compartment=0, t0=0, t1=1,
                               fault_seconds=36.0)]
        inv = invoices_from_records(records)[0]
        assert inv.item("fault_recovery") == pytest.approx(
            36.0 / 3600.0 * PricingModel().per_cpu_hour)


class TestExporters:
    def test_usage_and_invoice_jsonl_round_trip(self, tmp_path):
        from repro.obs.export import write_invoices_jsonl, write_usage_jsonl
        records = [UsageRecord(tenant_id=t, compartment=0, t0=0.0, t1=0.01,
                               cpu_seconds=1e-4 * (t + 1), io_bytes=640)
                   for t in range(3)]
        upath = tmp_path / "usage.jsonl"
        assert write_usage_jsonl(records, str(upath)) == 3
        lines = [json.loads(line) for line in
                 upath.read_text().strip().splitlines()]
        assert [l["tenant"] for l in lines] == [0, 1, 2]
        ipath = tmp_path / "invoices.jsonl"
        assert write_invoices_jsonl(
            invoices_from_records(records), str(ipath)) == 3
        parsed = [json.loads(line) for line in
                  ipath.read_text().strip().splitlines()]
        assert all("total" in p and "items" in p for p in parsed)

    def test_prometheus_text_exports_histogram_buckets(self):
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "latency",
                                  labels=("tenant",),
                                  buckets=(0.001, 0.01, 0.1))
        hist.labels(tenant="0").observe(0.005)
        hist.labels(tenant="0").observe(0.05)
        text = registry.prometheus_text()
        assert 'lat_seconds_bucket{tenant="0",le="0.001"} 0' in text
        assert 'lat_seconds_bucket{tenant="0",le="0.01"} 1' in text
        assert 'lat_seconds_bucket{tenant="0",le="0.1"} 2' in text
        assert 'le="+Inf"} 2' in text
        assert 'lat_seconds_count{tenant="0"} 2' in text

    def test_pool_workers_gauge_exported_on_sequential_fallback(self):
        from repro.scenario import Engine, NullStore, ProcessPoolBackend
        backend = ProcessPoolBackend(max_workers=2)
        try:
            spec = TestScenarioThreading()._metered_spec(seed=3)
            # One spec -> the pool degenerates to sequential; the gauge
            # must still record the configured width.
            Engine(backend=backend, store=NullStore()).run([spec])
        finally:
            backend.close()
        assert obs.REGISTRY.snapshot().get("scenario_pool_workers") == 2

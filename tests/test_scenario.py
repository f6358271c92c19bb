"""Scenario engine: spec hashing, store, backends, sweep grids."""

import json
import os

import pytest

from repro.core.levels import ResourceMode, SecurityLevel
from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.errors import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.scenario import (
    DEFAULT_CALIBRATION_REF,
    Engine,
    NullStore,
    ProcessPoolBackend,
    ResultStore,
    ScenarioResult,
    ScenarioSpec,
    SequentialBackend,
    SweepGrid,
    build_grid,
    calibration_ref,
    fold_metrics,
    resolve,
    run_scenario,
)
from repro.perfmodel.calibration import DEFAULT_CALIBRATION


def latency_spec(seed=0, duration=0.02, **over) -> ScenarioSpec:
    fields = dict(
        workload="fig5.latency",
        deployment=DeploymentSpec(level=SecurityLevel.LEVEL_1),
        traffic=TrafficScenario.P2V,
        duration=duration,
        warmup=duration / 5,
        seed=seed,
        params={"frame_bytes": 64, "aggregate_pps": 10_000.0},
    )
    fields.update(over)
    return ScenarioSpec(**fields)


def resources_spec(**over) -> ScenarioSpec:
    fields = dict(
        workload="fig5.resources",
        deployment=DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                  num_vswitch_vms=2),
        traffic=TrafficScenario.P2V,
    )
    fields.update(over)
    return ScenarioSpec(**fields)


class TestSpecSerialization:
    def test_json_round_trip(self):
        spec = latency_spec(seed=3, label="L1", eval_mode="shared")
        clone = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_unknown_field_rejected(self):
        data = latency_spec().to_dict()
        data["frobnicate"] = 1
        with pytest.raises(ValidationError):
            ScenarioSpec.from_dict(data)

    def test_infeasible_deployment_rejected(self):
        # v2v needs a shared path; per-tenant L2(4) has none.
        with pytest.raises(ValidationError):
            ScenarioSpec(
                workload="fig5.latency",
                deployment=DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                          num_vswitch_vms=4),
                traffic=TrafficScenario.V2V)

    def test_param_accessor(self):
        spec = latency_spec()
        assert spec.param("frame_bytes") == 64
        assert spec.param("absent", 7) == 7


class TestContentHash:
    def test_param_order_irrelevant(self):
        a = latency_spec(params={"frame_bytes": 64, "aggregate_pps": 1.0})
        b = latency_spec(params={"aggregate_pps": 1.0, "frame_bytes": 64})
        assert a.content_hash() == b.content_hash()

    def test_presentation_fields_excluded(self):
        a = latency_spec(label="L1", eval_mode="shared")
        b = latency_spec(label="row 3", eval_mode="isolated")
        assert a.content_hash() == b.content_hash()

    def test_seed_and_calibration_included(self):
        base = latency_spec()
        assert latency_spec(seed=1).content_hash() != base.content_hash()
        other_cal = latency_spec(calibration_ref="0" * 16)
        assert other_cal.content_hash() != base.content_hash()

    def test_default_calibration_ref_shape(self):
        assert DEFAULT_CALIBRATION_REF == calibration_ref(DEFAULT_CALIBRATION)
        assert len(DEFAULT_CALIBRATION_REF) == 16
        int(DEFAULT_CALIBRATION_REF, 16)  # hex

    def test_golden_hashes_pinned(self):
        """Regression: the content hash is part of the on-disk cache
        format; these values must never change for existing specs."""
        a = ScenarioSpec(
            workload="fig5.latency",
            deployment=DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                      num_vswitch_vms=2),
            traffic=TrafficScenario.P2V, duration=0.1, warmup=0.02,
            seed=42,
            params={"frame_bytes": 64, "aggregate_pps": 10000.0},
            calibration_ref="0123456789abcdef")
        b = ScenarioSpec(
            workload="fig6.iperf",
            deployment=DeploymentSpec(level=SecurityLevel.BASELINE,
                                      nic_ports=1),
            traffic=TrafficScenario.V2V, seed=7,
            params={"repetitions": 5},
            calibration_ref="feedfacecafebeef")
        assert a.content_hash() == (
            "3272ae7b687dbedd9c3a9eaf65b58fe9780be8163ab0c6f139607a22208ddde1")
        assert b.content_hash() == (
            "4fbf53e9adb54142249eb801f02ff17470f4e7e4a053abdd0eb228e726872e48")


class TestWorkloadNameChecked:
    """A spec names a registered workload, or it is not built."""

    def test_typo_fails_at_construction(self):
        with pytest.raises(ValidationError) as err:
            latency_spec(workload="fig5.latncy")
        assert "'fig5.latncy'" in str(err.value)
        assert "fig5.latency" in str(err.value)  # the registered names

    def test_valid_specs_keep_their_hashes(self):
        """The check adds nothing to the hashed content: cached results
        of valid specs stay valid."""
        latency = ScenarioSpec(
            workload="fig5.latency",
            deployment=DeploymentSpec(level=SecurityLevel.LEVEL_1),
            traffic=TrafficScenario.P2V, duration=0.05, warmup=0.01,
            seed=3, params={"frame_bytes": 64, "aggregate_pps": 10_000.0})
        fabric = ScenarioSpec(
            workload="fabric.hybrid",
            deployment=DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                      num_vswitch_vms=2, nic_ports=1),
            duration=0.05, seed=11,
            params={"servers": 8, "study_mode": "probes",
                    "study_flows": 2, "study_pps": 20_000.0})
        churn = ScenarioSpec(
            workload="controlplane.churn",
            deployment=DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                      num_vswitch_vms=4,
                                      resource_mode=ResourceMode.SHARED),
            duration=30.0, seed=5,
            params={"arrival_rate": 2.0, "crashes": 3})
        assert latency.content_hash() == (
            "63df9d566a090f86eb2059b5d59ed90b94ae70f9bc267db11801d30fb844bf59")
        assert fabric.content_hash() == (
            "f0f0c90698774952a31de898643e9e483c11b8492d4ddd46a41f8a79192b08c5")
        assert churn.content_hash() == (
            "1e0b429944c7779932b5b6e22a1ce52ec0dcff2d698a6379554711212b2d8065")


class TestRegistry:
    def test_known_workloads_resolve(self):
        assert callable(resolve("fig5.latency"))
        assert callable(resolve("ext.deployment-cost"))

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValidationError):
            resolve("fig9.nonsense")

    def test_unknown_workload_in_run_scenario(self):
        with pytest.raises(ValidationError):
            run_scenario(resources_spec(workload="fig9.nonsense"))


class TestRunScenario:
    def test_calibration_mismatch_rejected(self):
        spec = resources_spec(calibration_ref="beef" * 4)
        with pytest.raises(ValidationError):
            run_scenario(spec)

    def test_values_and_hash(self):
        result = run_scenario(resources_spec())
        assert result.spec_hash == resources_spec().content_hash()
        assert result.values["networking-cores"] == 2.0
        again = run_scenario(resources_spec())
        assert again.result_hash() == result.result_hash()


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        spec = resources_spec()
        assert store.get(spec) is None
        result = run_scenario(spec)
        store.put(spec, result)
        hit = store.get(spec)
        assert hit is not None
        assert hit.values == result.values
        assert len(store) == 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        spec = resources_spec()
        store.put(spec, run_scenario(spec))
        with open(store.path_for(spec), "w") as handle:
            handle.write("{not json")
        assert store.get(spec) is None

    def test_null_store_never_hits(self):
        store = NullStore()
        spec = resources_spec()
        store.put(spec, run_scenario(spec))
        assert store.get(spec) is None
        assert len(store) == 0


class TestEngine:
    def test_store_round_trip_marks_cached(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        engine = Engine(store=store)
        first = engine.run([resources_spec()])
        assert [r.cached for r in first] == [False]
        second = engine.run([resources_spec()])
        assert [r.cached for r in second] == [True]
        assert second[0].result_hash() == first[0].result_hash()

    def test_within_batch_dedup(self):
        engine = Engine()  # no store
        a = resources_spec(label="tput row")
        b = resources_spec(label="rt row")
        results = engine.run([a, b])
        assert results[0].label == "tput row"
        assert results[1].label == "rt row"
        assert results[1].cached  # second is the first's computation
        assert results[0].values == results[1].values

    def test_results_in_input_order(self):
        specs = [resources_spec(seed=s) for s in (3, 1, 2)]
        results = Engine().run(specs)
        assert [r.spec_hash for r in results] == \
            [s.content_hash() for s in specs]


class TestBackendEquivalence:
    def test_pool_matches_sequential(self):
        specs = [latency_spec(seed=s) for s in (0, 1)] + [resources_spec()]
        seq = SequentialBackend().run(specs, DEFAULT_CALIBRATION)
        pool = ProcessPoolBackend(max_workers=2).run(
            specs, DEFAULT_CALIBRATION)
        assert [r.result_hash() for r in seq] == \
            [r.result_hash() for r in pool]
        assert [r.values for r in seq] == [r.values for r in pool]

    def test_pool_ships_obs_metrics(self):
        from repro import obs
        before = obs.REGISTRY.snapshot()
        results = ProcessPoolBackend(max_workers=2).run(
            [latency_spec(seed=9), latency_spec(seed=10)],
            DEFAULT_CALIBRATION)
        assert any(r.metrics for r in results)
        after = obs.REGISTRY.snapshot()
        shipped = sum(sum(r.metrics.values()) for r in results)
        folded = sum(after.values()) - sum(before.get(k, 0.0)
                                           for k in after)
        assert folded == pytest.approx(shipped)


class TestFoldMetrics:
    def test_labeled_counter_folds(self):
        registry = MetricsRegistry()
        fold_metrics(registry, {
            'cache_hits_total{cache="emc",vswitch="ovs0"}': 5.0,
            "drops_total": 2.0,
            "unrelated_metric": 9.0,
            'cache_lookups_total{cache="emc",vswitch="ovs0"}': -1.0,
        })
        snap = registry.snapshot()
        assert snap['cache_hits_total{cache="emc",vswitch="ovs0"}'] == 5.0
        assert snap["drops_total"] == 2.0
        assert "unrelated_metric" not in snap
        assert not any(k.startswith("cache_lookups_total") for k in snap)


class TestSweepGrid:
    def test_compartment_axis_collapses_for_non_l2(self):
        grid = SweepGrid(workload="fig5.resources",
                         levels=("baseline", "l2"),
                         compartments=(2, 4), duration=0.0)
        specs, skipped = build_grid(grid)
        labels = [s.label for s in specs]
        assert labels.count("baselinex4T/kernel/shared/p2v") == 1
        assert "l2(2)x4T/kernel/shared/p2v" in labels
        assert "l2(4)x4T/kernel/shared/p2v" in labels
        assert not skipped

    def test_infeasible_corners_skipped_not_raised(self):
        grid = SweepGrid(workload="fig5.resources",
                         levels=("baseline",), datapaths=("dpdk",),
                         modes=("shared",), duration=0.0)
        specs, skipped = build_grid(grid)
        assert specs == []
        assert len(skipped) == 1
        assert "dpdk" in skipped[0].point_id

    def test_unknown_level_raises(self):
        with pytest.raises(ValidationError):
            build_grid(SweepGrid(levels=("l7",)))

    def test_per_point_seeds_fork_from_master(self):
        specs, _ = build_grid(SweepGrid(workload="fig5.resources",
                                        levels=("baseline", "l1"),
                                        duration=0.0))
        assert len({s.seed for s in specs}) == len(specs)
        again, _ = build_grid(SweepGrid(workload="fig5.resources",
                                        levels=("baseline", "l1"),
                                        duration=0.0))
        assert [s.seed for s in specs] == [s.seed for s in again]
        other, _ = build_grid(SweepGrid(workload="fig5.resources",
                                        levels=("baseline", "l1"),
                                        duration=0.0, seed=1))
        assert [s.seed for s in specs] != [s.seed for s in other]


class TestSweepEndToEnd:
    GRID = SweepGrid(workload="fig5.latency",
                     levels=("baseline", "l1"), duration=0.02)

    def test_sequential_and_pool_tables_identical(self):
        from repro.scenario import sweep_table
        specs, _ = build_grid(self.GRID)
        seq = Engine(backend=SequentialBackend()).run(specs)
        pool = Engine(backend=ProcessPoolBackend(max_workers=2)).run(specs)
        assert [r.result_hash() for r in seq] == \
            [r.result_hash() for r in pool]
        assert sweep_table(self.GRID, specs, seq).render() == \
            sweep_table(self.GRID, specs, pool).render()

    def test_second_run_fully_cached(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        specs, _ = build_grid(self.GRID)
        first = Engine(store=store).run(specs)
        assert not any(r.cached for r in first)
        second = Engine(store=store).run(specs)
        assert all(r.cached for r in second)
        assert [r.result_hash() for r in first] == \
            [r.result_hash() for r in second]


class TestContentHashMemoization:
    """The hash is computed once per spec, ever (the spec is frozen)."""

    def _counting_hasher(self, monkeypatch):
        import repro.scenario.spec as spec_mod
        real = spec_mod.sha256_hex
        calls = []

        def counted(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(spec_mod, "sha256_hex", counted)
        return calls

    def test_repeated_hash_hits_memo(self, monkeypatch):
        spec = latency_spec(seed=77)
        calls = self._counting_hasher(monkeypatch)
        first = spec.content_hash()
        assert spec.content_hash() == first
        assert spec.content_hash() == first
        assert len(calls) == 1

    def test_memo_survives_pickle(self):
        import pickle
        spec = latency_spec(seed=78)
        digest = spec.content_hash()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.__dict__.get("_content_hash") == digest
        assert clone.content_hash() == digest

    def test_memo_does_not_leak_into_equality_or_serialization(self):
        a, b = latency_spec(seed=79), latency_spec(seed=79)
        a.content_hash()  # memoize one side only
        assert a == b
        assert "_content_hash" not in a.to_dict()
        assert ScenarioSpec.from_dict(a.to_dict()) == a

    def test_engine_hashes_each_spec_at_most_once(self, tmp_path,
                                                  monkeypatch):
        specs = [resources_spec(seed=1), resources_spec(seed=2),
                 resources_spec(seed=1, label="dupe row")]
        store = ResultStore(str(tmp_path / "cache"))
        calls = self._counting_hasher(monkeypatch)
        Engine(store=store).run(specs)
        # One hash per spec *object* (the dedup key needs each), and
        # not one more -- cache probe, cache write and result record
        # all reuse the memo.
        assert len(calls) == len(specs)

    def test_calibration_ref_memoized(self, monkeypatch):
        calls = self._counting_hasher(monkeypatch)
        ref = calibration_ref(DEFAULT_CALIBRATION)
        assert ref == DEFAULT_CALIBRATION_REF
        assert calls == []  # primed at module import, memo answers


class TestStoreBatched:
    def test_get_many_put_many_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        specs = [resources_spec(seed=s) for s in (1, 2, 3)]
        assert store.get_many(specs) == [None, None, None]
        results = [run_scenario(s) for s in specs[:2]]
        assert store.put_many(zip(specs[:2], results)) == 2
        hits = store.get_many(specs)
        assert [h.values for h in hits[:2]] == [r.values for r in results]
        assert hits[2] is None

    def test_null_store_batched(self):
        store = NullStore()
        specs = [resources_spec()]
        assert store.get_many(specs) == [None]
        assert store.put_many([(specs[0], run_scenario(specs[0]))]) == 0


class TestWarmPoolBatching:
    """Batched dispatch through the persistent pool must be
    byte-identical to sequential execution -- values, metrics, events --
    at every chunk size, chaos plans and worker crashes included."""

    @staticmethod
    def _specs(n=5, duration=0.02):
        return [latency_spec(seed=100 + i, duration=duration,
                             label=f"pt{i}") for i in range(n)]

    def test_chunk_sizes_value_identical(self):
        specs = self._specs()
        seq = SequentialBackend().run(specs, DEFAULT_CALIBRATION)
        for chunk in (1, 2, len(specs)):
            with ProcessPoolBackend(max_workers=2, chunk=chunk) as pool:
                got = pool.run(specs, DEFAULT_CALIBRATION)
            assert [r.values for r in got] == [r.values for r in seq]
            assert [r.metrics for r in got] == [r.metrics for r in seq]
            assert [r.events for r in got] == [r.events for r in seq]
            assert [r.result_hash() for r in got] == \
                [r.result_hash() for r in seq]

    def test_chaos_plan_identical_across_chunks(self):
        from repro.faults.plan import scripted_crash
        plan = scripted_crash(compartment=0, at=0.02, heartbeat=0.005)
        specs = [latency_spec(
            seed=200 + i, duration=0.06, label=f"chaos{i}",
            deployment=DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                      num_vswitch_vms=2),
            faults=plan) for i in range(3)]
        seq = SequentialBackend().run(specs, DEFAULT_CALIBRATION)
        assert all(r.events for r in seq)  # the plan actually fired
        for chunk in (1, 3):
            with ProcessPoolBackend(max_workers=2, chunk=chunk) as pool:
                got = pool.run(specs, DEFAULT_CALIBRATION)
            assert [r.events for r in got] == [r.events for r in seq]
            assert [r.values for r in got] == [r.values for r in seq]

    def test_mid_batch_crash_retries_poisoned_batch(self):
        from repro import obs
        crashy = ScenarioSpec(
            workload="chaos.crashy",
            deployment=DeploymentSpec(level=SecurityLevel.LEVEL_1),
            traffic=TrafficScenario.P2V, duration=0.0, seed=5)
        specs = self._specs(3) + [crashy]
        before = obs.REGISTRY.snapshot()
        with ProcessPoolBackend(max_workers=2, chunk=2) as pool:
            results = pool.run(specs, DEFAULT_CALIBRATION)
        after = obs.REGISTRY.snapshot()
        assert all(r is not None for r in results)
        assert results[3].values == {"survived": 1.0}
        assert after.get("scenario_pool_breaks_total", 0.0) \
            >= before.get("scenario_pool_breaks_total", 0.0) + 1
        assert after.get("scenario_pool_retries_total", 0.0) \
            >= before.get("scenario_pool_retries_total", 0.0) + 1
        seq = SequentialBackend().run(specs, DEFAULT_CALIBRATION)
        assert [r.values for r in results] == [r.values for r in seq]

    def test_pool_persists_across_runs(self):
        specs = self._specs(2)
        with ProcessPoolBackend(max_workers=2, chunk=1) as backend:
            first = backend.run(specs, DEFAULT_CALIBRATION)
            warm = backend._pool
            assert warm is not None
            second = backend.run(specs, DEFAULT_CALIBRATION)
            assert backend._pool is warm  # same workers, no respawn
            assert [r.result_hash() for r in first] == \
                [r.result_hash() for r in second]
        assert backend._pool is None  # context exit released them

    def test_pool_workers_gauge_exported(self):
        from repro import obs
        with ProcessPoolBackend(max_workers=2, chunk=1) as pool:
            pool.run(self._specs(2), DEFAULT_CALIBRATION)
        assert obs.REGISTRY.snapshot().get("scenario_pool_workers") == 2.0

    def test_sleepy_mid_batch_does_not_block_collection(self):
        """Head-of-line regression: a wedged worker mid-batch must not
        stall collection of finished results -- the timeout error names
        only the wedged scenario and counts everything else collected."""
        import time as _time
        from repro.errors import ScenarioTimeoutError

        def diag(seed, sleep, label):
            return ScenarioSpec(
                workload="chaos.sleepy",
                deployment=DeploymentSpec(level=SecurityLevel.LEVEL_1),
                traffic=TrafficScenario.P2V, duration=0.0, seed=seed,
                label=label, params={"sleep": sleep})

        specs = [diag(0, 0.0, "fast0"), diag(1, 30.0, "sleepy"),
                 diag(2, 0.0, "fast1"), diag(3, 0.0, "fast2")]
        backend = ProcessPoolBackend(max_workers=2, timeout=1.5, chunk=1)
        start = _time.perf_counter()
        with pytest.raises(ScenarioTimeoutError) as excinfo:
            backend.run(specs, DEFAULT_CALIBRATION)
        elapsed = _time.perf_counter() - start
        assert elapsed < 15.0  # deadline, not the 30s sleep
        assert excinfo.value.pending == ("sleepy",)
        assert excinfo.value.completed == 3  # the fast ones came home
        backend.close()


class TestPoolResilience:
    """A dying or wedged worker must not abort a sweep silently."""

    @staticmethod
    def _diag_spec(workload, seed=0, **params):
        return ScenarioSpec(
            workload=workload,
            deployment=DeploymentSpec(level=SecurityLevel.LEVEL_1),
            traffic=TrafficScenario.P2V,
            duration=0.0, seed=seed, params=params)

    def test_worker_death_falls_back_to_sequential(self):
        from repro import obs
        specs = [latency_spec(seed=40),
                 self._diag_spec("chaos.crashy"),
                 latency_spec(seed=41)]
        before = obs.REGISTRY.snapshot()
        results = ProcessPoolBackend(max_workers=2).run(
            specs, DEFAULT_CALIBRATION)
        after = obs.REGISTRY.snapshot()
        assert all(r is not None for r in results)
        # the lethal spec completed in-parent, where it is harmless
        assert results[1].values == {"survived": 1.0}
        assert after.get("scenario_pool_breaks_total", 0.0) \
            >= before.get("scenario_pool_breaks_total", 0.0) + 1
        assert after.get("scenario_pool_retries_total", 0.0) \
            >= before.get("scenario_pool_retries_total", 0.0) + 1
        # retried results are value-identical to a sequential run
        seq = SequentialBackend().run(specs, DEFAULT_CALIBRATION)
        assert [r.values for r in results] == [r.values for r in seq]

    def test_hanging_worker_raises_timeout(self):
        from repro.errors import ScenarioTimeoutError
        specs = [self._diag_spec("chaos.sleepy", seed=s, sleep=30.0)
                 for s in (0, 1)]
        backend = ProcessPoolBackend(max_workers=2, timeout=1.0)
        with pytest.raises(ScenarioTimeoutError):
            backend.run(specs, DEFAULT_CALIBRATION)

    def test_single_worker_pool_degrades_to_sequential(self):
        # workers <= 1 shortcut: even the lethal spec is safe in-parent.
        results = ProcessPoolBackend(max_workers=1).run(
            [self._diag_spec("chaos.crashy")], DEFAULT_CALIBRATION)
        assert results[0].values == {"survived": 1.0}

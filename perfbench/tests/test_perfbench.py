"""Tests of the benchmark itself (not of the simulator).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workload as wl  # noqa: E402
from clock import SpeedSampler  # noqa: E402
from spans import LAYERS, FrameCounter, SpanTracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class TinyDataplane(wl.DataplaneSaturated):
    """The saturated data-plane workload on a 5 ms window."""

    DURATION = 0.005
    WARMUP = 0.001


@pytest.fixture
def counter():
    counter = FrameCounter()
    counter.install()
    yield counter
    counter.patches.restore()


@pytest.fixture
def traced_run(counter):
    """One untraced and one traced pass of the tiny workload, plus the
    tracer (removed again afterwards)."""
    workload = TinyDataplane(seed=3, counter=counter)
    workload.prepare()
    untraced = workload.run_pass()
    tracer = SpanTracer()
    tracer.install()
    try:
        traced = workload.run_pass()
        fired = workload.deployment.sim.events_fired
    finally:
        tracer.patches.restore()
    return untraced, traced, tracer, fired


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"]]
    names += [m["name"] for m in DECLARED["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(wl.WORKLOADS)


def test_end_to_end_metrics_match_the_declaration():
    p = wl.Pass()
    p.wall, p.frames, p.scenarios = 2.0, 100, 1
    measured = wl.end_to_end([p], setup_s=0.5)
    assert list(measured) == [m["name"] for m in DECLARED["end_to_end"]]
    assert all(v > 0 for v in measured.values())


def test_per_layer_metrics_match_the_declaration(traced_run):
    untraced, traced, tracer, _ = traced_run
    measured = wl.per_layer(tracer, traced, untraced, untraced)
    assert list(measured) == [m["name"] for m in DECLARED["per_layer"]]


def test_tampered_digest_is_a_failure():
    p = wl.Pass()
    p.outputs = {"a": "0011", "b": "2233"}
    p.invariants = [("holds", True)]
    assert wl.check([p], {"a": "0011", "b": "2233"})[:2] == (3, 0)
    attempted, failed, failures = wl.check([p], {"a": "0011", "b": "ffff"})
    assert (attempted, failed) == (3, 1)
    assert "'b'" in failures[0]


def test_passes_that_disagree_fail_without_a_golden():
    first, second = wl.Pass(), wl.Pass()
    first.outputs, second.outputs = {"a": "1"}, {"a": "2"}
    assert wl.check([first, second], None)[1] == 1


def test_traced_and_untraced_outputs_are_identical(traced_run):
    untraced, traced, _, _ = traced_run
    assert traced.frames == untraced.frames > 0
    assert traced.outputs == untraced.outputs


def test_self_times_and_other_sum_to_the_traced_wall(traced_run):
    untraced, traced, tracer, _ = traced_run
    measured = wl.per_layer(tracer, traced, untraced, untraced)
    total_us = sum(measured[f"{layer}.us_per_frame"] for layer in LAYERS)
    assert total_us * traced.frames / 1e6 == pytest.approx(traced.seconds,
                                                           rel=1e-9)
    assert tracer.spans and all(end >= start
                                for _, _, start, end, _ in tracer.spans)


def test_kernel_events_match_the_simulator_exactly(traced_run):
    _, traced, tracer, fired = traced_run
    assert tracer.counts["kernel.events"] == fired


def test_speed_sampling_leaves_outputs_unchanged(counter):
    workload = TinyDataplane(seed=3, counter=counter)
    workload.prepare()
    plain = workload.run_pass()
    sampler = SpeedSampler()
    sampler.start()
    try:
        sampled = workload.run_pass()
    finally:
        sampler.stop()
    assert sampled.outputs == plain.outputs
    assert sampler.speeds and all(s > 0 for s in sampler.speeds)


def test_tracer_is_removed_cleanly(counter):
    from repro.traffic.harness import TestbedHarness
    before = TestbedHarness.run
    tracer = SpanTracer()
    tracer.install()
    assert TestbedHarness.run is not before
    tracer.patches.restore()
    assert TestbedHarness.run is before

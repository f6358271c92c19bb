"""The ``repro sweep`` subcommand end to end."""

import json
import os

import pytest

from repro.cli import main


def run_sweep(tmp_path, capsys, *extra):
    out = tmp_path / "sweep.jsonl"
    rc = main([
        "sweep", "--workload", "fig5.latency",
        "--levels", "baseline", "l1",
        "--duration", "0.02", "--jobs", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--out", str(out), *extra,
    ])
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    return rc, captured.out, lines


class TestSweepCommand:
    def test_runs_and_writes_jsonl(self, tmp_path, capsys):
        rc, out, lines = run_sweep(tmp_path, capsys)
        assert rc == 0
        assert "sweep fig5.latency: 2 points" in out
        assert "2 points: 2 computed, 0 cached" in out
        assert "pool: makespan" not in out  # --jobs 1 runs in-process
        assert len(lines) == 2
        for line in lines:
            assert line["spec"]["workload"] == "fig5.latency"
            assert line["result"]["values"]["median_us"] > 0
            assert len(line["spec_hash"]) == 64

    def test_second_run_hits_cache_everywhere(self, tmp_path, capsys):
        _, _, first = run_sweep(tmp_path, capsys)
        rc, out, second = run_sweep(tmp_path, capsys)
        assert rc == 0
        assert "2 points: 0 computed, 2 cached" in out
        assert [l["result_hash"] for l in first] == \
            [l["result_hash"] for l in second]
        assert all(l["result"]["cached"] for l in second)

    def test_no_cache_escape_hatch(self, tmp_path, capsys):
        run_sweep(tmp_path, capsys)
        rc, out, lines = run_sweep(tmp_path, capsys, "--no-cache")
        assert rc == 0
        assert "2 points: 2 computed, 0 cached" in out
        assert not any(l["result"]["cached"] for l in lines)

    def test_pool_prints_worker_busy_time(self, tmp_path, capsys):
        rc, out, _ = run_sweep(tmp_path, capsys, "--jobs", "2")
        assert rc == 0
        line = [l for l in out.splitlines() if l.startswith("pool: ")]
        assert len(line) == 1
        assert "makespan" in line[0]
        assert "busy per worker (pid)" in line[0]

    def test_seed_changes_results(self, tmp_path, capsys):
        _, _, base = run_sweep(tmp_path, capsys)
        _, _, other = run_sweep(tmp_path, capsys, "--seed", "5")
        assert [l["spec_hash"] for l in base] != \
            [l["spec_hash"] for l in other]

    def test_empty_grid_fails_cleanly(self, tmp_path, capsys):
        rc = main([
            "sweep", "--levels", "baseline", "--datapaths", "dpdk",
            "--modes", "shared",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "[skip]" in captured.err


class TestSeedFlags:
    def test_latency_seed_flag(self, capsys):
        assert main(["latency", "--level", "l1", "--duration", "0.02",
                     "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["latency", "--level", "l1", "--duration", "0.02",
                     "--seed", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_experiments_seed_flag(self, capsys):
        assert main(["experiments", "--only", "fig5-resources-shared",
                     "--seed", "11"]) == 0
        assert "Fig. 5(c)" in capsys.readouterr().out

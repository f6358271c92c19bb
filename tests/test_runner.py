"""The experiments runner: completeness, extension hooks and the pinned
tables.

One module-scoped run of the quick paper plan plus the quick extension
plan (seed 0) feeds every test here; ``test_tables_match_golden``
compares its renders with ``tests/goldens/quick_seed0.txt`` byte for
byte (regenerate with ``make goldens``).
"""

import difflib
from pathlib import Path

import pytest

from repro.experiments.runner import experiment_plan, extension_plan, run_plan

GOLDEN = Path(__file__).parent / "goldens" / "quick_seed0.txt"

EXTENSIONS = {
    "ext-noisy-neighbor",
    "ext-policy-injection",
    "ext-latency-breakdown",
    "ext-fault-isolation",
    "ext-deployment-cost",
}


@pytest.fixture(scope="module")
def quick_run():
    return run_plan(experiment_plan(quick=True, seed=0)
                    + extension_plan(quick=True, seed=0))


class TestRunner:
    def test_every_paper_figure_has_a_table(self, quick_run):
        tables, _ = quick_run
        expected = {"table1", "vf-budgets"}
        for mode in ("shared", "isolated", "dpdk"):
            expected |= {
                f"fig5-throughput-{mode}",
                f"fig5-latency-{mode}",
                f"fig5-resources-{mode}",
                f"fig6-iperf-{mode}",
                f"fig6-apache-tput-{mode}",
                f"fig6-apache-rt-{mode}",
                f"fig6-memcached-tput-{mode}",
                f"fig6-memcached-rt-{mode}",
            }
        assert set(tables) - EXTENSIONS == expected

    def test_all_tables_render_nonempty(self, quick_run):
        tables, _ = quick_run
        for key, table in tables.items():
            text = table.render()
            assert text.startswith("=="), key
            assert len(text.splitlines()) >= 3, key

    def test_extensions_run(self, quick_run):
        tables, _ = quick_run
        assert EXTENSIONS <= set(tables)
        for key in EXTENSIONS:
            assert tables[key].render()

    def test_tables_match_golden(self, quick_run):
        _, text = quick_run
        golden = GOLDEN.read_text()
        if text != golden:
            diff = "".join(difflib.unified_diff(
                golden.splitlines(keepends=True),
                text.splitlines(keepends=True),
                fromfile=str(GOLDEN), tofile="this run"))
            pytest.fail("tables moved from the golden (regenerate with "
                        f"`make goldens` if intended):\n{diff}")

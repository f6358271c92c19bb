"""Run every experiment and render all tables (EXPERIMENTS.md source).

``python -m repro.experiments.runner`` regenerates every figure/table
row of the paper's evaluation and prints them in order.  ``quick=True``
shortens the DES latency windows (the distributions are stationary, so
only sample counts shrink).

Every experiment module follows the scenario-engine split:
``scenarios(...)`` declares frozen :class:`ScenarioSpec` lists,
``tabulate(results, ...)`` is a pure function from engine results to a
:class:`Table`, and ``run(...)`` composes the two through
:func:`default_engine`.  This module holds the plan (what to run, in
what order, at which durations) and the engine the ``run()`` wrappers
share.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.experiments import fig5_latency, fig5_resources, fig5_throughput
from repro.experiments import fig6_apache, fig6_iperf, fig6_memcached
from repro.experiments import table1_survey, vf_table
from repro.experiments import (
    deployment_cost,
    fault_isolation,
    latency_breakdown,
    noisy_neighbor,
    policy_injection,
)
from repro.experiments.common import EvalMode
from repro.measure.reporting import Table
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.scenario.engine import Engine, SequentialBackend


def default_engine(calibration: Calibration = DEFAULT_CALIBRATION
                   ) -> Engine:
    """The engine the ``run()`` wrappers share: sequential, no disk
    cache (within-batch dedup still applies).  ``repro sweep`` builds
    its own engine with a process pool and a content-addressed store.
    """
    return Engine(backend=SequentialBackend(), store=None,
                  calibration=calibration)


#: An experiment id paired with a zero-arg callable producing its table.
ExperimentPlan = List[Tuple[str, Callable[[], Table]]]


def experiment_plan(quick: bool = True, seed: int = 0) -> ExperimentPlan:
    """The paper's evaluation as (id, thunk) pairs, in run order.

    Callers that want per-experiment bookkeeping (the CLI's cache-efficacy
    lines diff the obs registry around each thunk) iterate this instead
    of handing it to :func:`run_plan`.
    """
    latency_duration = 0.15 if quick else 0.5
    plan: ExperimentPlan = [
        ("table1", table1_survey.run),
        ("vf-budgets", vf_table.run),
    ]
    for mode in EvalMode.ALL:
        plan.extend([
            (f"fig5-throughput-{mode}",
             lambda m=mode: fig5_throughput.run(m, seed=seed)),
            (f"fig5-latency-{mode}",
             lambda m=mode: fig5_latency.run(m, duration=latency_duration,
                                             seed=seed)),
            (f"fig5-resources-{mode}",
             lambda m=mode: fig5_resources.run(m, seed=seed)),
            (f"fig6-iperf-{mode}",
             lambda m=mode: fig6_iperf.run(m, seed=seed)),
            (f"fig6-apache-tput-{mode}",
             lambda m=mode: fig6_apache.run_throughput(m, seed=seed)),
            (f"fig6-apache-rt-{mode}",
             lambda m=mode: fig6_apache.run_response_time(m, seed=seed)),
            (f"fig6-memcached-tput-{mode}",
             lambda m=mode: fig6_memcached.run_throughput(m, seed=seed)),
            (f"fig6-memcached-rt-{mode}",
             lambda m=mode: fig6_memcached.run_response_time(m, seed=seed)),
        ])
    return plan


def extension_plan(quick: bool = True, seed: int = 0) -> ExperimentPlan:
    """The beyond-the-paper experiments as (id, thunk) pairs."""
    window = 0.06 if quick else 0.15
    return [
        ("ext-noisy-neighbor",
         lambda: noisy_neighbor.run(duration=window, seed=seed)),
        ("ext-policy-injection",
         lambda: policy_injection.run(duration=window, seed=seed)),
        ("ext-latency-breakdown",
         lambda: latency_breakdown.run(duration=window, seed=seed)),
        ("ext-fault-isolation",
         lambda: fault_isolation.run(phase=window / 1.5, seed=seed)),
        ("ext-deployment-cost", lambda: deployment_cost.run(seed=seed)),
    ]


def run_plan(plan: ExperimentPlan) -> Tuple[Dict[str, Table], str]:
    """Run ``plan`` in order: its tables by id, and their renders joined
    in plan order (the text ``tests/goldens/`` pins byte for byte)."""
    tables = {key: thunk() for key, thunk in plan}
    text = "\n\n".join(table.render() for table in tables.values())
    return tables, text + "\n"


def main() -> None:
    import sys
    plan = experiment_plan(quick=True)
    if "--extensions" in sys.argv:
        plan += extension_plan(quick=True)
    _, text = run_plan(plan)
    print(text)
    print(table1_survey.render_full())


if __name__ == "__main__":
    main()

"""The event journal: one schema for every layer's transitions."""

import json

from repro.controlplane.workload import default_plan, scenario
from repro.core.levels import SecurityLevel
from repro.core.spec import DeploymentSpec, TrafficScenario
from repro.faults import scripted_crash
from repro.obs.journal import Journal, write_jsonl
from repro.scenario import ScenarioSpec, run_scenario
from repro.sim import Simulator


class TestJournal:
    def test_record_stamps_sim_time_and_layer(self):
        sim = Simulator()
        journal = Journal("faults", sim)
        sim.schedule(0.25, lambda: journal.record("inject",
                                                  target="compartment:0"))
        sim.run()
        assert journal.events == [{"t": 0.25, "layer": "faults",
                                   "kind": "inject",
                                   "target": "compartment:0"}]

    def test_of_kind_keeps_event_order(self):
        journal = Journal("faults", Simulator())
        for kind in ("inject", "detect", "clear", "recover", "inject"):
            journal.record(kind)
        assert [e["kind"] for e in journal.of_kind("recover", "clear")] == \
            ["clear", "recover"]
        assert len(journal.of_kind("inject")) == 2

    def test_write_jsonl_is_canonical(self, tmp_path):
        path = tmp_path / "events.jsonl"
        records = [{"t": 1.0, "kind": "b", "layer": "x"}, {"z": 1, "a": 2}]
        assert write_jsonl(records, str(path)) == 2
        assert path.read_text() == (
            '{"kind":"b","layer":"x","t":1.0}\n{"a":2,"z":1}\n')
        assert [json.loads(line) for line in
                path.read_text().splitlines()] == records


def test_chaos_and_churn_events_share_the_schema():
    chaos = run_scenario(ScenarioSpec(
        workload="ext.chaos",
        deployment=DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                  num_vswitch_vms=2),
        traffic=TrafficScenario.P2V, duration=0.09, seed=0,
        faults=scripted_crash(at=0.03)))
    churn = run_scenario(scenario(default_plan(duration=15.0), seed=0))
    for result, layer in ((chaos, "faults"), (churn, "controlplane")):
        assert result.events
        for event in result.events:
            assert event["layer"] == layer
            assert isinstance(event["t"], float)
            assert isinstance(event["kind"], str)
            assert all(isinstance(v, (int, float, str))
                       for v in event.values())
    assert {e["kind"] for e in chaos.events} >= {"inject", "detect",
                                                  "recover"}
    assert {e["kind"] for e in churn.events} >= {"arrival", "activate"}

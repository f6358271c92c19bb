"""Vswitch crash fault isolation and premium compartments."""

import pytest

from repro.core import ResourceMode, SecurityLevel, TrafficScenario, build_deployment
from repro.core.spec import DeploymentSpec
from repro.experiments.fault_isolation import measure
from tests.conftest import make_spec

PHASE = 0.04
_memo = {}


def measured(spec):
    if spec not in _memo:
        _memo[spec] = measure(spec, phase=PHASE)
    return _memo[spec]


class TestBlastRadiusOfACrash:
    def test_baseline_crash_blacks_out_everyone(self):
        result = measured(DeploymentSpec(level=SecurityLevel.BASELINE))
        assert len(result.tenants_fully_down()) == 4

    def test_level1_crash_blacks_out_everyone(self):
        result = measured(DeploymentSpec(level=SecurityLevel.LEVEL_1))
        assert len(result.tenants_fully_down()) == 4

    def test_level2_crash_confined_to_the_compartment(self):
        result = measured(DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                         num_vswitch_vms=2))
        assert result.tenants_fully_down() == [0, 1]
        assert result.tenants_unaffected() == [2, 3]

    def test_per_tenant_compartments_lose_exactly_one(self):
        result = measured(DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                         num_vswitch_vms=4,
                                         resource_mode=ResourceMode.ISOLATED))
        assert result.tenants_fully_down() == [0]
        assert result.tenants_unaffected() == [1, 2, 3]

    def test_everyone_recovers_after_restart(self):
        for spec in (DeploymentSpec(level=SecurityLevel.BASELINE),
                     DeploymentSpec(level=SecurityLevel.LEVEL_2,
                                    num_vswitch_vms=2)):
            result = measured(spec)
            assert all(f > 0.9 for f in result.after_recovery.values()), (
                spec.label, result.after_recovery)


class TestPremiumCompartments:
    """The §3.2 allocation spectrum: shared mode with selected
    compartments on dedicated cores."""

    def test_premium_compartment_gets_its_own_core(self):
        spec = make_spec(level=SecurityLevel.LEVEL_2, vms=4,
                         premium_compartments=(0,))
        d = build_deployment(spec, TrafficScenario.P2V)
        premium_core = d.vswitch_vms[0].compute[0].core
        other_cores = {d.vswitch_vms[k].compute[0].core.core_id
                       for k in (1, 2, 3)}
        assert premium_core.num_consumers == 1
        assert len(other_cores) == 1  # the rest still share one core
        assert premium_core.core_id not in other_cores

    def test_premium_throughput_advantage(self):
        from repro.perfmodel.paths import throughput
        spec = make_spec(level=SecurityLevel.LEVEL_2, vms=4,
                         premium_compartments=(0,))
        d = build_deployment(spec, TrafficScenario.P2V)
        result = throughput(d, TrafficScenario.P2V)
        premium = result.rates_pps["flow-t0"]
        economy = result.rates_pps["flow-t1"]
        assert premium > 2.5 * economy

    def test_costs_one_extra_core(self):
        base = build_deployment(make_spec(level=SecurityLevel.LEVEL_2,
                                          vms=4), TrafficScenario.P2V)
        premium = build_deployment(
            make_spec(level=SecurityLevel.LEVEL_2, vms=4,
                      premium_compartments=(0,)), TrafficScenario.P2V)
        assert (premium.resource_report().networking_cores
                == base.resource_report().networking_cores + 1)

    def test_validation(self):
        from repro.errors import ValidationError
        with pytest.raises(ValidationError):
            make_spec(level=SecurityLevel.LEVEL_2, vms=2,
                      premium_compartments=(5,))
        with pytest.raises(ValidationError):
            make_spec(level=SecurityLevel.LEVEL_2, vms=2,
                      mode=ResourceMode.ISOLATED,
                      premium_compartments=(0,))
        with pytest.raises(ValidationError):
            make_spec(level=SecurityLevel.BASELINE,
                      premium_compartments=(0,))

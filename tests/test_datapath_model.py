"""Datapath cost/timing models: pass cycles, jitter, the drain anomaly."""

from dataclasses import replace

import pytest

from repro.perfmodel.calibration import dpdk_pass_costs, kernel_pass_costs
from repro.sim.hashjit import HashJitter
from repro.vswitch.datapath import DatapathMode, DatapathModel, PortClass


class TestPassCycles:
    def test_baseline_p2p_pass_is_one_mpps_per_core(self):
        costs = kernel_pass_costs()
        cycles = costs.pass_cycles(PortClass.PHYSICAL, PortClass.PHYSICAL,
                                   rewrites=False, num_ports=2)
        assert 2.1e9 / cycles == pytest.approx(0.98e6, rel=0.01)

    def test_mts_vf_pass_slightly_cheaper_than_baseline(self):
        """The paper's Fig. 5(d): MTS p2p slightly above Baseline."""
        costs = kernel_pass_costs()
        baseline = costs.pass_cycles(PortClass.PHYSICAL, PortClass.PHYSICAL,
                                     rewrites=False, num_ports=2)
        mts = costs.pass_cycles(PortClass.VF, PortClass.VF,
                                rewrites=True, num_ports=2)
        assert mts < baseline

    def test_vhost_crossing_dominates_kernel_p2v(self):
        costs = kernel_pass_costs()
        vhost = costs.pass_cycles(PortClass.PHYSICAL, PortClass.VHOST,
                                  rewrites=False, num_ports=10)
        phys = costs.pass_cycles(PortClass.PHYSICAL, PortClass.PHYSICAL,
                                 rewrites=False, num_ports=10)
        assert vhost > 2 * phys

    def test_rewrite_adds_cost(self):
        costs = kernel_pass_costs()
        plain = costs.pass_cycles(PortClass.VF, PortClass.VF, False, 2)
        rewritten = costs.pass_cycles(PortClass.VF, PortClass.VF, True, 2)
        assert rewritten - plain == costs.rewrite_cycles

    def test_dpdk_poll_tax_scales_with_ports(self):
        costs = dpdk_pass_costs()
        few = costs.pass_cycles(PortClass.VF, PortClass.VF, False, 4)
        many = costs.pass_cycles(PortClass.VF, PortClass.VF, False, 10)
        assert many - few == 6 * costs.poll_tax_cycles_per_port

    def test_dpdk_order_of_magnitude_faster_than_kernel(self):
        kernel = kernel_pass_costs().pass_cycles(
            PortClass.PHYSICAL, PortClass.PHYSICAL, False, 2)
        dpdk = dpdk_pass_costs().pass_cycles(
            PortClass.PHYSICAL, PortClass.PHYSICAL, False, 2)
        assert kernel / dpdk > 5


#: A keyed jitter source for the timing tests (any seed will do).
JITTER = HashJitter(7)


def _no_fixed_latency(costs):
    """Kernel costs without the interrupt wait: a pass's wait is then
    its scheduling wait alone."""
    return replace(costs, fixed_latency=0.0)


class TestTiming:
    def test_kernel_pass_includes_interrupt_latency(self):
        model = DatapathModel(DatapathMode.KERNEL, kernel_pass_costs())
        timing = model.timing(2100, effective_hz=2.1e9, sharers=1,
                              num_queues=1, jitter=JITTER, key=0)
        assert timing.wait >= model.costs.fixed_latency
        assert timing.service == pytest.approx(1e-6)

    def test_shared_core_adds_sched_jitter(self):
        model = DatapathModel(DatapathMode.KERNEL,
                              _no_fixed_latency(kernel_pass_costs()))
        waits = [model.timing(2100, 0.525e9, sharers=4, num_queues=1,
                              jitter=JITTER, key=k).wait
                 for k in range(200)]
        assert max(waits) > 0
        assert max(waits) <= 3 * model.costs.sched_slice

    def test_isolated_core_no_sched_jitter(self):
        model = DatapathModel(DatapathMode.KERNEL,
                              _no_fixed_latency(kernel_pass_costs()))
        timing = model.timing(2100, 2.1e9, sharers=1, num_queues=1,
                              jitter=JITTER, key=0)
        assert timing.wait == 0.0

    def test_dpdk_drain_jitter_bounded(self):
        model = DatapathModel(DatapathMode.DPDK, dpdk_pass_costs())
        waits = [model.timing(300, 2.1e9, 1, 1, jitter=JITTER, key=k).wait
                 for k in range(200)]
        assert all(w <= model.costs.drain_jitter for w in waits)


class TestDrainAnomaly:
    """The ~1 ms Baseline multi-queue effect at 10 kpps (section 4.2).

    One sharer and DPDK: a pass's wait is its drain wait alone."""

    def _model(self, rate):
        model = DatapathModel(DatapathMode.DPDK, dpdk_pass_costs())
        model.offered_rate_hint_pps = rate
        return model

    def test_multi_queue_low_rate_shows_1ms(self):
        model = self._model(10_000)
        timing = model.timing(300, 2.1e9, 1, num_queues=2,
                              jitter=JITTER, key=0)
        assert timing.wait > 0.5e-3

    def test_single_queue_unaffected(self):
        model = self._model(10_000)
        timing = model.timing(300, 2.1e9, 1, num_queues=1,
                              jitter=JITTER, key=0)
        assert timing.wait < 0.2e-3

    def test_high_rate_unaffected(self):
        """At 100 kpps and above the paper measures ~2 us."""
        model = self._model(100_000)
        timing = model.timing(300, 2.1e9, 1, num_queues=2,
                              jitter=JITTER, key=0)
        assert timing.wait < 0.2e-3

    def test_no_hint_no_anomaly(self):
        model = DatapathModel(DatapathMode.DPDK, dpdk_pass_costs())
        timing = model.timing(300, 2.1e9, 1, num_queues=4,
                              jitter=JITTER, key=0)
        assert timing.wait < 0.2e-3

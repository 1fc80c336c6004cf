"""Tests for the standby-power extension."""

import pytest

from repro.cluster.node import NodeActivity, ReplicaNode
from repro.edr.system import (
    EDRSystem,
    FaultConfig,
    RuntimeConfig,
    SolverOptions,
)
from repro.errors import ValidationError
from repro.experiments import ext_standby

from tests.edr.conftest import burst_trace


class TestNodeStandby:
    def test_standby_power(self):
        node = ReplicaNode("r0", standby_w=20.0)
        node.set_activity(NodeActivity.STANDBY)
        assert node.power() == 20.0
        assert node.cpu_utilization == 0.0

    def test_standby_below_idle(self):
        node = ReplicaNode("r0")
        idle = node.power()
        node.set_activity(NodeActivity.STANDBY)
        assert node.power() < idle

    def test_negative_standby_rejected(self):
        with pytest.raises(ValidationError):
            ReplicaNode("r0", standby_w=-1.0)


class TestRuntimeStandby:
    def test_validation(self):
        with pytest.raises(ValidationError):
            EDRSystem(burst_trace(count=4),
                      RuntimeConfig(faults=FaultConfig(standby_after=0.0)))

    def test_standby_reduces_wall_clock_energy(self):
        from repro.workload.apps import VIDEO_STREAMING
        trace = burst_trace(VIDEO_STREAMING, count=12, n_clients=12,
                            rate=6.0, seed=9)
        import numpy as np
        on = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"),
            batch_capacity_fraction=0.35)).run()
        sb = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"),
            batch_capacity_fraction=0.35,
            faults=FaultConfig(standby_after=0.5))).run()
        assert np.sum(sb.extras["wall_clock_joules"]) < \
            np.sum(on.extras["wall_clock_joules"])
        # Everything still delivered despite nodes sleeping.
        assert sb.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-9)

    def test_sleeping_node_wakes_for_work(self):
        from repro.workload.apps import VIDEO_STREAMING
        trace = burst_trace(VIDEO_STREAMING, count=12, n_clients=12,
                            rate=3.0, seed=9)  # spread: idle gaps exist
        system = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"),
            batch_capacity_fraction=0.35,
            faults=FaultConfig(standby_after=0.3)))
        res = system.run()
        # At least one node slept at some point...
        slept = any(
            any(a is NodeActivity.STANDBY for _, a in node.activity_log)
            for node in system.nodes.values())
        assert slept
        # ...and all demand was still served.
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-9)


class TestStandbyExperiment:
    def test_shape(self):
        # Full experiment scale: the relative benefit is regime-dependent
        # (at tiny scales Round-Robin's sparse whole-request gaps dominate).
        result = ext_standby.run()
        # Standby saves energy for both schedulers...
        for algo in result.joules_on:
            assert result.joules_standby[algo] < result.joules_on[algo]
        # ...and EDR, which concentrates load, benefits more.
        lddm_gain = 1 - result.joules_standby["lddm"] / result.joules_on["lddm"]
        rr_gain = 1 - result.joules_standby["round_robin"] \
            / result.joules_on["round_robin"]
        assert lddm_gain > rr_gain

    def test_render(self):
        out = ext_standby.run(standby_after=0.75, n_requests=8,
                              n_clients=8).render()
        assert "standby" in out and "saved" in out

"""Weighted scheduler when a client loses every eligible replica.

Regression for a divide-by-zero: with all of a client's within-latency
replicas dead, the eligibility row over the live set is all-False, so
``w = elig.astype(float)`` summed to zero and ``w / w.sum()`` produced
NaN shares that silently corrupted transfer accounting.  The fix fails
over to the nearest live replica.
"""

import math

import pytest

from repro.edr.system import EDRSystem, RuntimeConfig, SolverOptions
from repro.net.topology import Topology
from repro.util.rng import make_rng
from repro.workload.apps import FILE_SERVICE
from repro.workload.clients import ClientPopulation
from repro.workload.generator import WorkloadGenerator
from repro.workload.youtube import YoutubeTrafficModel


def build_system():
    """client0 can only reach replica1 within T; the rest sit far away."""
    replicas = ["replica1", "replica2", "replica3"]
    clients = ["client0", "client1"]
    positions = {
        "replica1": (0.5, 0.0),
        "replica2": (10.0, 0.0),
        "replica3": (10.0, 1.0),
        "client0": (0.0, 0.0),     # within T of replica1 only
        "client1": (10.0, 0.5),    # within T of replicas 2 and 3
    }
    topo = Topology.geo(replicas + clients, positions,
                        seconds_per_unit=0.001, base_latency=0.0001,
                        capacity=100.0)
    gen = WorkloadGenerator(
        traffic=YoutubeTrafficModel(base_rate=10.0, amplitude=0.0,
                                    period=1000.0),
        clients=ClientPopulation(clients), app=FILE_SERVICE)
    trace = gen.generate(make_rng(3), count=24)
    cfg = RuntimeConfig(
        solver=SolverOptions(algorithm="weighted", weights=(1.0, 1.0, 1.0)),
        prices=(1, 8, 1))
    return trace, EDRSystem(trace, cfg, topology=topo)


class TestWeightedFailover:
    def test_crashing_a_clients_only_replica_fails_over(self):
        trace, system = build_system()
        # Mid-run, kill the one replica client0 is allowed to use.
        system.crash_replica("replica1", at=1.0)
        res = system.run(app="dfs")
        # Everything still arrives — client0's post-crash requests fail
        # over to the nearest live replica instead of NaN shares.
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-9)
        for replica, mb in res.extras["transferred_mb"].items():
            assert math.isfinite(mb) and mb >= 0.0
        # The failover target really served client0's late requests.
        late = {"replica2", "replica3"}
        assert sum(res.extras["transferred_mb"].get(r, 0.0)
                   for r in late) > 0.0

    def test_no_crash_honors_eligibility(self):
        trace, system = build_system()
        res = system.run(app="dfs")
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-9)
        # Without the crash, client0 is served by replica1 alone, so it
        # moves at least client0's share of the bytes.
        assert res.extras["transferred_mb"]["replica1"] > 0.0

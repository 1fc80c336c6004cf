"""Runtime test on a geo topology where the latency bound actually binds.

The paper's testbed is a LAN (every pair eligible); its target deployment
is geo-distributed, where the ``l[c,n] <= T`` constraint removes pairs.
This verifies the runtime honors the mask end-to-end: a replica too far
from every client never serves a byte, yet everything is delivered.
"""

import pytest

from repro.edr.system import EDRSystem, RuntimeConfig, SolverOptions
from repro.net.topology import Topology
from repro.util.rng import make_rng
from repro.workload.apps import FILE_SERVICE
from repro.workload.clients import ClientPopulation
from repro.workload.generator import WorkloadGenerator
from repro.workload.youtube import YoutubeTrafficModel


def geo_system(algorithm: str):
    """6 clients + 8 replicas; replica8 is placed far beyond T."""
    n_rep, n_cli = 8, 6
    replicas = [f"replica{i + 1}" for i in range(n_rep)]
    clients = [f"client{i}" for i in range(n_cli)]
    positions = {}
    rng = make_rng(0)
    for name in replicas[:-1] + clients:
        positions[name] = tuple(rng.uniform(0, 1.0, size=2))
    positions["replica8"] = (100.0, 100.0)  # unreachable within T
    topo = Topology.geo(replicas + clients, positions,
                        seconds_per_unit=0.001, base_latency=0.0001,
                        capacity=100.0)
    gen = WorkloadGenerator(
        traffic=YoutubeTrafficModel(base_rate=10.0, amplitude=0.0,
                                    period=1000.0),
        clients=ClientPopulation(clients),
        app=FILE_SERVICE)
    trace = gen.generate(make_rng(1), count=20)
    cfg = RuntimeConfig(
        solver=SolverOptions(algorithm=algorithm),
        batch_capacity_fraction=0.35)
    return trace, EDRSystem(trace, cfg, topology=topo)


@pytest.mark.parametrize("algorithm", ["lddm", "round_robin"])
class TestGeoRuntime:
    def test_unreachable_replica_serves_nothing(self, algorithm):
        trace, system = geo_system(algorithm)
        res = system.run(app="dfs")
        transferred = res.extras["transferred_mb"]
        assert transferred.get("replica8", 0.0) == 0.0
        # Everyone else shares the work and all data arrives.
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-9)

    def test_reachable_replicas_do_serve(self, algorithm):
        trace, system = geo_system(algorithm)
        res = system.run(app="dfs")
        served = [r for r, mb in res.extras["transferred_mb"].items()
                  if mb > 0]
        assert len(served) >= 2

"""Runtime-level class-space aggregation: sessions, cache, end-to-end.

Pins the wiring of :mod:`repro.core.aggregate` through the EDR stack:
sessions solve K-row instances (and charge compute time for K rows, not
C), the client-space matrix is expanded lazily, the warm-start cache
keyed by class tokens survives client churn, and the full runtime
delivers identical traffic with aggregation on or off.
"""

import numpy as np
import pytest

from repro.core.aggregate import aggregate_problem
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.warmstart import WarmStartCache, project_warm_start
from repro.edr.scheduler import DistributedSolveSession
from repro.edr.system import EDRSystem, RuntimeConfig, SolverOptions
from repro.errors import ValidationError
from repro.net.topology import Topology
from repro.net.transport import Network
from repro.sim.engine import Simulator

from tests.edr.conftest import burst_trace


def _aggregated_session(n_clients=6, algorithm="lddm", **kwargs):
    sim = Simulator()
    replicas = ["r0", "r1", "r2"]
    clients = [f"c{i}" for i in range(n_clients)]
    topo = Topology.lan(replicas + clients, latency=0.0005)
    net = Network(sim, topo)
    # Everyone shares the all-eligible LAN mask: K == 1.
    data = ProblemData.paper_defaults(
        demands=[20.0 + i for i in range(n_clients)], prices=[1.0, 8.0, 1.0])
    problem = ReplicaSelectionProblem(data)
    agg = aggregate_problem(problem)
    session = DistributedSolveSession(
        sim, net, problem, replicas, clients, algorithm,
        aggregation=agg, **kwargs)
    return sim, net, problem, agg, session


class TestAggregatedSession:
    def test_solver_runs_in_class_space(self):
        sim, net, problem, agg, session = _aggregated_session()
        assert agg.n_classes == 1
        sim.process(session.run())
        sim.run()
        assert session.solver_allocation.shape == (1, 3)
        assert session.allocation.shape == (6, 3)
        assert problem.violation(session.allocation) < 1e-6

    def test_allocation_expansion_is_lazy_and_cached(self):
        sim, net, problem, agg, session = _aggregated_session()
        sim.process(session.run())
        sim.run()
        assert session._allocation is None  # nothing expanded yet
        first = session.allocation
        assert session._allocation is first  # cached, not rebuilt
        assert session.allocation is first

    def test_compute_time_charged_for_classes_not_clients(self):
        # Same instance solved with and without aggregation: identical
        # iteration math (K=1 vs C=6 only changes *local* work), so the
        # aggregated session must finish in less simulated time.
        sim_a, _, _, _, agg_sess = _aggregated_session(max_iter=40,
                                                       tol=1e-12)
        sim_a.process(agg_sess.run())
        sim_a.run()

        sim_d = Simulator()
        replicas = ["r0", "r1", "r2"]
        clients = [f"c{i}" for i in range(6)]
        topo = Topology.lan(replicas + clients, latency=0.0005)
        net = Network(sim_d, topo)
        data = ProblemData.paper_defaults(
            demands=[20.0 + i for i in range(6)], prices=[1.0, 8.0, 1.0])
        direct = DistributedSolveSession(
            sim_d, net, ReplicaSelectionProblem(data), replicas, clients,
            "lddm", max_iter=40, tol=1e-12)
        sim_d.process(direct.run())
        sim_d.run()

        per_iter_agg = agg_sess.duration / agg_sess.iterations
        per_iter_direct = direct.duration / direct.iterations
        assert per_iter_agg < per_iter_direct

    def test_message_pattern_stays_per_client(self):
        # Aggregation is a local-computation optimization; the network
        # still carries the paper's per-(replica, client) exchanges.
        sim, net, problem, agg, session = _aggregated_session(
            max_iter=5, tol=1e-12)
        sim.process(session.run())
        sim.run()
        assert net.messages_sent == session.iterations * 2 * 3 * 6

    def test_mismatched_aggregation_rejected(self):
        sim = Simulator()
        replicas = ["r0", "r1", "r2"]
        topo = Topology.lan(replicas + ["c0"], latency=0.0005)
        net = Network(sim, topo)
        data = ProblemData.paper_defaults(
            demands=[10.0], prices=[1.0, 8.0, 1.0])
        other = ProblemData.paper_defaults(
            demands=[10.0, 20.0], prices=[1.0, 8.0, 1.0])
        agg = aggregate_problem(ReplicaSelectionProblem(other))
        with pytest.raises(ValidationError):
            DistributedSolveSession(
                sim, net, ReplicaSelectionProblem(data), replicas, ["c0"],
                "lddm", aggregation=agg)


class TestClassSpaceWarmStarts:
    def test_cache_hits_across_total_client_churn(self):
        # Two batches with entirely different client sets but the same
        # class set: a class-token entry stored from the first projects
        # cleanly onto the second — the churn-proof hit per-name keys
        # cannot deliver.
        mask = np.array([[1, 1, 0], [0, 1, 1], [1, 1, 0]], dtype=bool)
        batch1 = ReplicaSelectionProblem(ProblemData.paper_defaults(
            demands=[30.0, 20.0, 10.0], prices=[1.0, 8.0, 1.0], mask=mask))
        mask2 = np.array([[0, 1, 1], [1, 1, 0]], dtype=bool)
        batch2 = ReplicaSelectionProblem(ProblemData.paper_defaults(
            demands=[25.0, 45.0], prices=[1.0, 8.0, 1.0], mask=mask2))
        replicas = ["r0", "r1", "r2"]
        cache = WarmStartCache()
        agg1 = aggregate_problem(batch1)
        sol1 = agg1.problem.repair(agg1.problem.uniform_allocation())
        cache.store(replicas, batch1.data.u, list(agg1.structure.keys),
                    sol1, agg1.structure.masks)
        entry = cache.lookup(replicas, batch2.data.u)
        assert entry is not None
        agg2 = aggregate_problem(batch2)
        # Both of batch2's classes already have cached rows under their
        # mask tokens (the class sets overlap even though no client name
        # repeats).
        assert set(agg2.structure.keys) <= set(entry.rows)
        seeded = project_warm_start(entry, agg2.problem,
                                    list(agg2.structure.keys))
        assert agg2.problem.violation(seeded) < 1e-6

    def test_runtime_counts_warm_solves_with_aggregation(self):
        trace = burst_trace(count=24, n_clients=12, rate=40.0, seed=1)
        res = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"))).run("dfs")
        assert res.extras["warm_solves"] >= 1


class TestRuntimeParity:
    @pytest.mark.parametrize("algorithm", ["lddm", "cdpsm"])
    def test_aggregate_on_off_same_delivery(self, algorithm):
        trace = burst_trace(count=24, n_clients=12, rate=40.0, seed=2)
        on = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm=algorithm,
                                 aggregate=True))).run("dfs")
        trace = burst_trace(count=24, n_clients=12, rate=40.0, seed=2)
        off = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm=algorithm,
                                 aggregate=False))).run("dfs")
        assert on.extras["delivered_mb"] == pytest.approx(
            off.extras["delivered_mb"], rel=1e-6)
        # Same optimum (the LAN mask collapses to one class), so the
        # energy outcome must not drift in either direction.
        assert on.total_cents == pytest.approx(off.total_cents, rel=0.05)

    def test_faulted_run_still_delivers_with_aggregation(self):
        trace = burst_trace(count=20, n_clients=10, rate=4.0, seed=3)
        system = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm")))
        system.crash_replica("replica2", at=1.5)
        res = system.run(app="dfs")
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-6)

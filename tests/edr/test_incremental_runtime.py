"""Runtime integration of the incremental delta-event path.

``RuntimeConfig.incremental`` routes small sub-batches through
:class:`~repro.core.incremental.IncrementalState` instead of a full
``DistributedSolveSession`` — these tests pin that the path actually
fires, that it delivers the same work at comparable energy, that the
state is keyed to (live replicas, prices) like a warm cache entry, and
that the obs taxonomy records it.
"""

import pytest

from repro.cluster.pricing import PriceSchedule
from repro.edr.system import EDRSystem, RuntimeConfig, SolverOptions
from repro.errors import ValidationError
from repro.obs import TraceRecorder
from repro.util.rng import make_rng
from repro.workload.apps import FILE_SERVICE
from repro.workload.clients import ClientPopulation
from repro.workload.generator import WorkloadGenerator
from repro.workload.youtube import YoutubeTrafficModel

from tests.edr.conftest import burst_trace


def trickle_trace(count=30, n_clients=6, seed=1, rate=6.0):
    """Requests arriving one at a time — the event-path regime."""
    clients = [f"client{i}" for i in range(n_clients)]
    gen = WorkloadGenerator(
        traffic=YoutubeTrafficModel(base_rate=rate, amplitude=0.0,
                                    period=1000.0),
        clients=ClientPopulation(clients), app=FILE_SERVICE)
    return gen.generate(make_rng(seed), count=count)


def run_system(trace, incremental, recorder=None, price_schedule=None,
               **solver_kwargs):
    cfg = RuntimeConfig(
        solver=SolverOptions(algorithm="lddm", incremental=incremental,
                             **solver_kwargs),
        prices=(1, 8, 1), recorder=recorder, price_schedule=price_schedule)
    system = EDRSystem(trace, cfg)
    return system.run(app="dfs")


class TestEventPath:
    def test_trickle_absorbed_as_events(self):
        trace = trickle_trace()
        res = run_system(trace, incremental=True)
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-9)
        # Nearly every single-request chunk rides the event path; only
        # the state-building first solve (plus rare declines) batch-solve.
        assert res.extras["incremental_chunks"] >= \
            res.extras["batches"] * 0.8
        assert res.extras["incremental_events"] >= \
            res.extras["incremental_chunks"]
        assert res.extras["incremental_fallbacks"] <= 2

    def test_same_allocation_and_less_energy_than_batch_path(self):
        trace = trickle_trace(seed=2)
        res_b = run_system(trace, incremental=False)
        res_i = run_system(trace, incremental=True)
        assert res_i.extras["delivered_mb"] == pytest.approx(
            res_b.extras["delivered_mb"], rel=1e-9)
        # The event updates land on the same optimum the batch solves do,
        # so each replica moves the same megabytes...
        t_b, t_i = res_b.extras["transferred_mb"], \
            res_i.extras["transferred_mb"]
        for r in set(t_b) | set(t_i):
            assert t_i.get(r, 0.0) == pytest.approx(
                t_b.get(r, 0.0), rel=0.02, abs=1.0)
        # ...while skipping the per-chunk selection rounds entirely —
        # which is the point: strictly less energy, not just less latency.
        assert res_i.joules_by_replica.sum() \
            < res_b.joules_by_replica.sum()

    def test_event_chunks_skip_solve_messages(self):
        trace = trickle_trace(seed=3)
        res_b = run_system(trace, incremental=False)
        res_i = run_system(trace, incremental=True)
        # The absorbed chunks run no per-iteration solve rounds over the
        # network, so total message count drops sharply.
        assert res_i.extras["messages"] < 0.5 * res_b.extras["messages"]

    def test_counters_and_events_recorded(self):
        rec = TraceRecorder()
        trace = trickle_trace(seed=4)
        res = run_system(trace, incremental=True, recorder=rec)
        assert rec.counter_total("incremental.event") \
            == res.extras["incremental_events"] > 0
        events = rec.events_named("runtime.incremental")
        assert len(events) == res.extras["incremental_chunks"]
        for ev in events:
            assert ev["solve_sim_s"] > 0
            assert ev["events"] >= 1

    def test_large_chunks_take_the_batch_path(self):
        trace = burst_trace(count=16, n_clients=8)
        rec = TraceRecorder()
        res = run_system(trace, incremental=True, recorder=rec,
                         incremental_max_clients=2)
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-9)
        # Batches above the client limit never count as absorbed chunks.
        for ev in rec.events_named("runtime.incremental"):
            assert ev["n_clients"] <= 2

    def test_incremental_requires_aggregate(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(
                solver=SolverOptions(
                    algorithm="lddm", incremental=True, aggregate=False),
                prices=(1, 8, 1))


class TestStateKeying:
    def test_membership_change_rebuilds_state(self):
        # A crash changes the live set: the keyed state must not be
        # reused across it (stale column space), and the run completes.
        trace = trickle_trace(count=40, seed=5)
        cfg = RuntimeConfig(
            solver=SolverOptions(algorithm="lddm", incremental=True),
            prices=(1, 8, 1))
        system = EDRSystem(trace, cfg)
        system.crash_replica("replica2", at=1.0)
        res = system.run(app="dfs")
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-9)
        assert res.extras["transferred_mb"].get("replica2", 0.0) \
            <= trace.total_mb() * 0.9
        assert res.extras["incremental_chunks"] > 0

    def test_price_rotation_rebuilds_state(self):
        # A tariff rotation changes the key: chunks straddling the switch
        # must batch-solve at the new prices, then resume absorbing.
        trace = trickle_trace(count=40, seed=6)
        schedule = PriceSchedule.two_phase(
            (1.0, 8.0, 1.0), (8.0, 1.0, 1.0), switch_at=2.0)
        res = run_system(trace, incremental=True, price_schedule=schedule)
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-9)
        assert res.extras["incremental_chunks"] > 0
        # At least two batch solves: one per price phase.
        assert res.extras["warm_solves"] + res.extras["cold_solves"] >= 2

    def test_event_allocation_matches_batch_quality(self):
        # The split of work across replicas (the thing the objective
        # shapes) must not degrade when chunks are absorbed as events.
        trace = trickle_trace(count=30, seed=7)
        res_b = run_system(trace, incremental=False)
        res_i = run_system(trace, incremental=True)
        t_b, t_i = res_b.extras["transferred_mb"], \
            res_i.extras["transferred_mb"]
        for r in set(t_b) | set(t_i):
            assert t_i.get(r, 0.0) == pytest.approx(
                t_b.get(r, 0.0), rel=0.02, abs=1.0)

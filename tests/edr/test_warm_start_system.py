"""Runtime-level warm-start behavior: reuse, invalidation, regression.

The cache lives inside :class:`EDRSystem`; these tests drive it through
real traces — including a mid-run membership change and a mid-run tariff
rotation — and pin the headline property: warm starts never cost
iterations or response time on the Fig. 9 workload.
"""

import pytest

from repro.cluster.pricing import PriceSchedule
from repro.edr.system import EDRSystem, RuntimeConfig, SolverOptions
from repro.experiments import fig9
from repro.obs import TraceRecorder

from tests.edr.conftest import burst_trace


def _run(trace, **solver_kwargs):
    solver_kwargs.setdefault("algorithm", "lddm")
    cfg = RuntimeConfig(solver=SolverOptions(**solver_kwargs))
    system = EDRSystem(trace, cfg)
    return system, system.run(app="dfs")


class TestWarmStartRuntime:
    def test_warm_solves_happen_and_are_counted(self):
        trace = burst_trace(count=24, n_clients=12, rate=40.0, seed=1)
        _, res = _run(trace)
        assert res.extras["warm_solves"] >= 1
        assert res.extras["cold_solves"] >= 1  # the first solve at least

    def test_disabled_means_all_cold(self):
        trace = burst_trace(count=24, n_clients=12, rate=40.0, seed=1)
        _, res = _run(trace, warm_start=False)
        assert res.extras["warm_solves"] == 0

    def test_same_delivery_with_and_without(self):
        trace = burst_trace(count=24, n_clients=12, rate=40.0, seed=2)
        _, warm = _run(trace)
        _, cold = _run(trace, warm_start=False)
        assert warm.extras["delivered_mb"] == pytest.approx(
            cold.extras["delivered_mb"], rel=1e-6)
        # Warm starts must not degrade the energy outcome.
        assert warm.total_cents <= cold.total_cents * 1.02

    def test_warm_never_more_iterations_on_fig9_trace(self):
        counts = (24, 48, 72)
        warm = fig9.run(request_counts=counts)
        cold = fig9.run(request_counts=counts, warm_start=False)
        for w, c in zip(warm.edr_solve_iterations,
                        cold.edr_solve_iterations):
            assert w <= c
        for w, c in zip(warm.edr_solve_time, cold.edr_solve_time):
            assert w <= c + 1e-9
        assert max(warm.edr_mean_response) < 0.2


class TestMembershipInvalidation:
    def test_crash_mid_run_invalidates_and_recovers(self):
        # Long spread-out trace so batches are solved both before and
        # after the crash; the post-crash solve must cold-start against
        # the shrunken replica set without error.
        trace = burst_trace(count=20, n_clients=10, rate=4.0, seed=3)
        system, res = (lambda s: (s, s.run(app="dfs")))(
            EDRSystem(trace, RuntimeConfig(
                solver=SolverOptions(algorithm="lddm"))))
        baseline_invalidations = res.extras["warm_cache_invalidations"]

        trace = burst_trace(count=20, n_clients=10, rate=4.0, seed=3)
        system = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm")))
        system.crash_replica("replica2", at=1.5)
        res = system.run(app="dfs")
        assert "replica2" not in system.ring.live
        assert res.extras["warm_cache_invalidations"] \
            >= baseline_invalidations + 1
        # Everything still delivered: the fallback path is sound.
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-6)

    def test_crash_then_solves_still_converge(self):
        trace = burst_trace(count=24, n_clients=12, rate=6.0, seed=5)
        system = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm")))
        system.crash_replica("replica3", at=1.0)
        res = system.run(app="dfs")
        # Post-crash batches ran (cold) and produced allocations.
        assert res.extras["solve_iterations"] > 0
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-6)

    def test_price_rotation_is_a_miss_not_an_invalidation(self):
        # A tariff rotation changes the cache *key*: the next solve is a
        # plain miss (cold start at the new prices), while the membership
        # invalidation counter — which means "a replica died or rejoined,
        # flush everything" — must stay untouched.
        rec = TraceRecorder()
        trace = burst_trace(count=20, n_clients=10, rate=4.0, seed=6)
        switch_at = 2.0
        schedule = PriceSchedule.two_phase(
            (1.0, 8.0, 1.0, 6.0, 1.0, 5.0, 2.0, 3.0),
            (8.0, 1.0, 6.0, 1.0, 5.0, 1.0, 3.0, 2.0), switch_at=switch_at)
        system = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"), price_schedule=schedule,
            recorder=rec))
        res = system.run(app="dfs")
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-6)
        # One cold solve per price phase at minimum, warm reuse within.
        assert res.extras["cold_solves"] >= 2
        assert res.extras["warm_solves"] >= 1
        assert res.extras["warm_cache_invalidations"] == 0
        assert rec.counter_total("warmstart.invalidation") == 0
        # The first optimizing batch after the switch missed the cache.
        post = [ev for ev in rec.events_named("runtime.batch")
                if ev["sim_time"] > switch_at]
        assert post and post[0]["warm_started"] is False
        # ...and AdaptiveBudget handed it the cold default, not the cap
        # learned from the pre-switch warm streak: it had the room to
        # converge from scratch at the new prices.
        assert post[0]["converged"] is True
        assert any(ev["warm_started"] for ev in post[1:])

    def test_budget_learned_from_warm_streak_not_applied_to_cold(self):
        # Unit-level pin of the interaction: a long converged warm streak
        # shrinks the cap toward the floor, but a cold solve (cache miss
        # after a price rotation) still gets the full default budget.
        from repro.core.warmstart import AdaptiveBudget
        budget = AdaptiveBudget(floor=16, headroom=2.0)
        for _ in range(5):
            cap = budget.budget(150, warm=True)
            budget.observe(iterations=8, budget=cap, converged=True,
                           warm=True)
        assert budget.budget(150, warm=True) == 16
        assert budget.budget(150, warm=False) == 150

    def test_cdpsm_also_takes_warm_starts(self):
        trace = burst_trace(count=16, n_clients=8, rate=40.0, seed=4)
        _, res = _run(trace, algorithm="cdpsm")
        assert res.extras["warm_solves"] >= 1
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-6)

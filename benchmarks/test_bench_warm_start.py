"""Benchmark — cross-batch warm starts: iteration savings vs cold starts.

Two levels:

* **Solver level** — a drifting sequence of instances (same clients,
  demands wandering batch to batch) solved cold every time vs warm from
  the previous converged point.  This isolates the projection +
  ``recover_mu`` machinery from runtime batching effects.
* **System level** — the full Fig. 9 sweep with ``warm_start`` on vs
  off.  The acceptance bar for the PR: warm starts must cut the total
  LDDM iterations across the sweep by at least 1.5x while the solution
  quality (mean response, per-point objectives) stays equivalent.
"""

import numpy as np
import pytest

from repro.core.lddm import LddmSolver
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.warmstart import (
    WarmStartCache,
    project_warm_start,
    recover_mu,
)
from repro.experiments import fig9

#: Warm and cold answers must agree to well within the solvers' own
#: convergence neighborhood (measured gaps are a few 1e-3 relative).
OBJ_RTOL = 0.01


def _drifting_problems(n_batches=12, n_clients=12, seed=7):
    """Same client set; demands drift ~10% per batch (EDR's steady state).

    Sized like the runtime's actual solves: the batcher caps each chunk
    at a capacity fraction, so real instances have few clients relative
    to replicas and slack headroom.  (Heavily-loaded instances converge
    on the dual limit cycle's schedule regardless of the start point, so
    warm starts buy little there — the runtime never produces those.)
    """
    rng = np.random.default_rng(seed)
    demands = rng.uniform(10, 50, size=n_clients)
    prices = np.asarray([1, 8, 1, 6, 1, 5, 2, 3], dtype=float)
    problems = []
    for _ in range(n_batches):
        demands = np.clip(demands * rng.uniform(0.9, 1.1, size=n_clients),
                          5.0, 60.0)
        problems.append(ReplicaSelectionProblem(
            ProblemData.paper_defaults(demands=demands, prices=prices)))
    return problems


def test_bench_warm_start_solver(benchmark):
    problems = _drifting_problems()
    clients = [f"client{i}" for i in range(problems[0].data.n_clients)]
    replicas = [f"replica{j}" for j in range(problems[0].data.n_replicas)]
    kw = dict(max_iter=1500, track_objective=False)

    def solve_sequence(warm):
        cache = WarmStartCache()
        total_iters, objectives = 0, []
        for problem in problems:
            initial = mu0 = None
            if warm:
                entry = cache.lookup(replicas, problem.data.u)
                if entry is not None:
                    initial = project_warm_start(entry, problem, clients)
                    mu0 = recover_mu(problem, initial)
            sol = LddmSolver(problem, **kw).solve(initial, mu0=mu0)
            assert sol.converged
            total_iters += sol.iterations
            objectives.append(sol.objective)
            cache.store(replicas, problem.data.u, clients, sol.allocation,
                        problem.data.mask)
        return total_iters, objectives

    cold_iters, cold_obj = solve_sequence(warm=False)
    warm_iters, warm_obj = solve_sequence(warm=True)

    for w, c in zip(warm_obj, cold_obj):
        assert w == pytest.approx(c, rel=OBJ_RTOL)
    assert warm_iters * 1.5 <= cold_iters

    benchmark.pedantic(lambda: solve_sequence(warm=True),
                       rounds=3, iterations=1)
    benchmark.extra_info["cold_iters"] = cold_iters
    benchmark.extra_info["warm_iters"] = warm_iters
    benchmark.extra_info["iter_reduction"] = round(cold_iters / warm_iters, 2)


def test_bench_warm_start_fig9(benchmark):
    warm = benchmark.pedantic(
        fig9.run, kwargs={"warm_start": True}, rounds=1, iterations=1)
    cold = fig9.run(warm_start=False)

    warm_iters = sum(warm.edr_solve_iterations)
    cold_iters = sum(cold.edr_solve_iterations)
    # The PR's acceptance bar: >= 1.5x fewer LDDM iterations over the
    # whole sweep, with no quality regression at any point.
    assert warm_iters * 1.5 <= cold_iters
    assert sum(warm.edr_solve_time) <= sum(cold.edr_solve_time)
    assert max(warm.edr_mean_response) < 0.2
    for w, c in zip(warm.edr_mean_response, cold.edr_mean_response):
        assert w <= c + 0.01  # warm starts never cost response time

    benchmark.extra_info["warm_iters"] = warm_iters
    benchmark.extra_info["cold_iters"] = cold_iters
    benchmark.extra_info["iter_reduction"] = round(cold_iters / warm_iters, 2)
    benchmark.extra_info["warm_solve_s"] = round(sum(warm.edr_solve_time), 4)
    benchmark.extra_info["cold_solve_s"] = round(sum(cold.edr_solve_time), 4)

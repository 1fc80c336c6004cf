"""Micro-benchmarks of the numerical kernels (regression tracking).

Unlike the figure benchmarks (single full-scale runs), these use
pytest-benchmark's statistical timing over many rounds, so kernel
performance regressions show up in `--benchmark-compare` workflows.

The ``test_bench_batched_*`` benchmarks time one full solver run against
the scalar loops in ``tests/oracles/solvers.py`` on the same instance and
record the measured speedup in ``extra_info`` — the headline numbers for
the kernel layer.
"""

import time

import numpy as np
import pytest

from repro.core.cdpsm import CdpsmSolver
from repro.core.lddm import LddmSolver
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.projection import (
    project_demands,
    project_local_set,
    project_simplex,
)
from repro.core.subproblem import ReplicaSubproblem, solve_replica_subproblem
from repro.core import model
from repro.net.flows import Flow, max_min_fair_rates
from repro.sim.engine import Simulator
from tests.oracles.solvers import ScalarCdpsmSolver, ScalarLddmSolver


def test_bench_kernel_simplex_projection(benchmark):
    rng = np.random.default_rng(0)
    v = rng.uniform(-10, 10, size=256)
    out = benchmark(project_simplex, v, 100.0)
    assert abs(out.sum() - 100.0) < 1e-6


def test_bench_kernel_demand_projection(benchmark):
    rng = np.random.default_rng(0)
    P = rng.uniform(-5, 30, size=(64, 8))
    R = rng.uniform(1, 50, size=64)
    mask = np.ones((64, 8), dtype=bool)
    out = benchmark(project_demands, P, R, mask)
    assert np.allclose(out.sum(axis=1), R)


def test_bench_kernel_dykstra_local_set(benchmark):
    rng = np.random.default_rng(1)
    P = rng.uniform(0, 20, size=(32, 8))
    R = P.sum(axis=1) * 0.9
    mask = np.ones((32, 8), dtype=bool)
    out = benchmark(project_local_set, P, R, mask, 2, 60.0)
    assert np.allclose(out.sum(axis=1), R, atol=1e-5)


def test_bench_kernel_lddm_subproblem(benchmark):
    rng = np.random.default_rng(2)
    sub = ReplicaSubproblem(
        price=5.0, alpha=1.0, beta=0.01, gamma=3.0, bandwidth=100.0,
        mu=rng.uniform(-60, 0, size=64), ref=rng.uniform(0, 10, size=64),
        epsilon=0.5)
    out = benchmark(solve_replica_subproblem, sub)
    assert out.sum() <= 100.0 + 1e-6


def test_bench_kernel_energy_gradient(benchmark):
    rng = np.random.default_rng(3)
    data = ProblemData.paper_defaults(
        demands=rng.uniform(10, 50, size=128),
        prices=rng.integers(1, 21, size=8).astype(float))
    P = ReplicaSelectionProblem(data).uniform_allocation()
    out = benchmark(model.energy_gradient, data, P)
    assert out.shape == (128, 8)


def _bench_instance(n_clients, n_replicas, seed=0):
    rng = np.random.default_rng(seed)
    data = ProblemData.paper_defaults(
        demands=rng.uniform(10, 50, size=n_clients),
        prices=rng.integers(1, 21, size=n_replicas).astype(float))
    return ReplicaSelectionProblem(data)


def _timed_solve(problem, cls, **kw):
    start = time.perf_counter()
    result = cls(problem, **kw).solve()
    return result, time.perf_counter() - start


@pytest.mark.parametrize("n_clients,n_replicas", [(16, 32), (64, 32)])
def test_bench_batched_cdpsm(benchmark, n_clients, n_replicas):
    problem = _bench_instance(n_clients, n_replicas)
    kw = dict(max_iter=10)
    scalar, scalar_s = _timed_solve(problem, ScalarCdpsmSolver, **kw)
    batched, batched_s = _timed_solve(problem, CdpsmSolver, **kw)
    assert abs(batched.objective - scalar.objective) < 1e-6
    benchmark.pedantic(
        lambda: CdpsmSolver(problem, **kw).solve(),
        rounds=3, iterations=1)
    benchmark.extra_info["scalar_s"] = round(scalar_s, 4)
    benchmark.extra_info["batched_s"] = round(batched_s, 4)
    benchmark.extra_info["speedup"] = round(scalar_s / batched_s, 2)


@pytest.mark.parametrize("n_clients,n_replicas", [(16, 32), (64, 32)])
def test_bench_batched_lddm(benchmark, n_clients, n_replicas):
    problem = _bench_instance(n_clients, n_replicas)
    kw = dict(max_iter=40)
    scalar, scalar_s = _timed_solve(problem, ScalarLddmSolver, **kw)
    batched, batched_s = _timed_solve(problem, LddmSolver, **kw)
    assert abs(batched.objective - scalar.objective) < 1e-6
    benchmark.pedantic(
        lambda: LddmSolver(problem, **kw).solve(),
        rounds=3, iterations=1)
    benchmark.extra_info["scalar_s"] = round(scalar_s, 4)
    benchmark.extra_info["batched_s"] = round(batched_s, 4)
    benchmark.extra_info["speedup"] = round(scalar_s / batched_s, 2)


def test_bench_kernel_max_min_fair(benchmark):
    sim = Simulator()
    rng = np.random.default_rng(4)
    nodes = [f"n{i}" for i in range(16)]
    flows = [Flow(sim, nodes[int(rng.integers(16))],
                  nodes[(int(rng.integers(15)) + 1 +
                         int(rng.integers(16))) % 16], 1.0)
             for _ in range(64)]
    flows = [f for f in flows if f.src != f.dst]
    caps = {n: 100.0 for n in nodes}
    rates = benchmark(max_min_fair_rates, flows, caps)
    assert all(r >= 0 for r in rates.values())

"""Batched kernels vs the scalar reference oracles.

Every kernel in :mod:`repro.core.kernels` must reproduce its scalar
counterpart to 1e-9 on random masked and unmasked instances — the
batched solver paths are only trustworthy because these hold.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.cdpsm import CdpsmSolver
from repro.core.lddm import LddmSolver
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.projection import (
    project_capped_simplex,
    project_demands,
    project_local_set,
)
from repro.core.subproblem import ReplicaSubproblem, solve_replica_subproblem
from repro.errors import ValidationError
from tests.core.conftest import random_instance
from tests.oracles.kernels import _proximal_columns as proximal_columns_oracle
from tests.oracles.projection import project_demands_reference
from tests.oracles.solvers import ScalarCdpsmSolver, ScalarLddmSolver

ORACLE_ATOL = 1e-9


def _random_mask(rng, C, N, density=0.7):
    mask = rng.random((C, N)) < density
    for c in range(C):
        if not mask[c].any():
            mask[c, int(rng.integers(N))] = True
    return mask


class TestGroupedDemandProjection:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100000))
    def test_property_grouped_matches_per_row(self, seed):
        rng = np.random.default_rng(seed)
        C, N = int(rng.integers(1, 12)), int(rng.integers(1, 8))
        P = rng.uniform(-15, 30, size=(C, N))
        R = rng.uniform(0, 25, size=C)
        mask = _random_mask(rng, C, N) if rng.random() < 0.7 \
            else np.ones((C, N), dtype=bool)
        fast = project_demands(P, R, mask)
        slow = project_demands_reference(P, R, mask)
        assert np.allclose(fast, slow, atol=ORACLE_ATOL)

    def test_empty_support_with_demand_rejected(self):
        mask = np.array([[True, False], [False, False]])
        with pytest.raises(ValidationError):
            project_demands(np.ones((2, 2)), np.array([1.0, 2.0]), mask)

    def test_empty_support_without_demand_allowed(self):
        mask = np.array([[True, False], [False, False]])
        out = project_demands(np.ones((2, 2)), np.array([1.0, 0.0]), mask)
        assert np.all(out[1] == 0.0)


class TestStackProjectDemands:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100000))
    def test_property_stack_matches_per_slice(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 6))
        C, N = int(rng.integers(1, 10)), int(rng.integers(1, 8))
        S = rng.uniform(-15, 30, size=(K, C, N))
        R = rng.uniform(0, 25, size=C)
        mask = _random_mask(rng, C, N) if rng.random() < 0.6 \
            else np.ones((C, N), dtype=bool)
        out = kernels.stack_project_demands(S, R, mask)
        for k in range(K):
            ref = project_demands_reference(S[k], R, mask)
            assert np.allclose(out[k], ref, atol=ORACLE_ATOL), f"slice {k}"

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValidationError):
            kernels.stack_project_demands(
                np.ones((2, 3)), np.ones(2), np.ones((2, 3), dtype=bool))


class TestRowsCappedSimplex:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100000))
    def test_property_rows_match_scalar_cap(self, seed):
        rng = np.random.default_rng(seed)
        K, C = int(rng.integers(1, 8)), int(rng.integers(1, 10))
        V = rng.uniform(-10, 30, size=(K, C))
        caps = rng.uniform(0.1, 40, size=K)
        out = kernels._rows_capped_simplex(V.copy(), caps)
        for k in range(K):
            ref = project_capped_simplex(V[k], float(caps[k]))
            assert np.allclose(out[k], ref, atol=ORACLE_ATOL), f"row {k}"


class TestStackedDykstra:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100000))
    def test_property_stacked_matches_per_slice(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 5))
        C, N = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        S = rng.uniform(-5, 25, size=(K, C, N))
        R = rng.uniform(1, 20, size=C)
        mask = _random_mask(rng, C, N) if rng.random() < 0.5 \
            else np.ones((C, N), dtype=bool)
        columns = rng.integers(N, size=K)
        caps = rng.uniform(R.sum() / N + 1, R.sum() + 5, size=K)
        out = kernels.project_local_sets_stacked(
            S, R, mask, columns, caps, max_iter=60)
        for k in range(K):
            ref = project_local_set(S[k], R, mask, int(columns[k]),
                                    float(caps[k]), max_iter=60)
            assert np.allclose(out[k], ref, atol=ORACLE_ATOL), f"slice {k}"


class TestLddmColumns:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100000))
    def test_property_columns_match_scalar_subproblems(self, seed):
        rng = np.random.default_rng(seed)
        masked = bool(rng.random() < 0.6)
        problem = random_instance(seed, n_clients=int(rng.integers(2, 8)),
                                  n_replicas=int(rng.integers(2, 6)),
                                  masked=masked)
        data = problem.data
        mu = rng.uniform(-80, 10, size=data.n_clients)
        prev = problem.uniform_allocation() \
            * rng.uniform(0, 2, size=data.shape)
        epsilon = float(rng.choice([0.0, 0.05, 0.5, 5.0]))
        out = kernels.lddm_solve_columns(data, mu, prev, epsilon)
        ref = np.zeros(data.shape)
        for n in range(data.n_replicas):
            eligible = data.mask[:, n]
            if not eligible.any():
                continue
            sub = ReplicaSubproblem(
                price=float(data.u[n]), alpha=float(data.alpha[n]),
                beta=float(data.beta[n]), gamma=float(data.gamma[n]),
                bandwidth=float(data.B[n]), mu=mu[eligible],
                ref=prev[eligible, n], epsilon=epsilon)
            ref[eligible, n] = solve_replica_subproblem(sub)
        assert np.allclose(out, ref, atol=ORACLE_ATOL)

    def test_validation(self):
        problem = random_instance(0)
        data = problem.data
        prev = problem.uniform_allocation()
        with pytest.raises(ValidationError):
            kernels.lddm_solve_columns(data, np.zeros(3), prev, 0.5)
        with pytest.raises(ValidationError):
            kernels.lddm_solve_columns(
                data, np.zeros(data.n_clients), prev, -1.0)


class TestProximalColumnTrajectory:
    """The hoisted column kernel against the pre-change kernel kept
    verbatim in ``tests/oracles``: every ``(mu, prev)`` a full LDDM solve
    feeds it must come back ``array_equal`` — same midpoints, same
    stopping rule, same summation order — not merely within 1e-9."""

    @staticmethod
    def _recorded_solve(monkeypatch, problem, **kw):
        calls = []
        real = kernels._proximal_columns

        def spy(data, mu, prev, epsilon):
            calls.append((data, mu.copy(), np.array(prev), epsilon))
            return real(data, mu, prev, epsilon)

        monkeypatch.setattr(kernels, "_proximal_columns", spy)
        solution = LddmSolver(problem, **kw).solve()
        monkeypatch.undo()
        assert len(calls) == solution.iterations
        return calls

    @staticmethod
    def _replay(calls):
        outs = []
        for data, mu, prev, epsilon in calls:
            got = kernels._proximal_columns(data, mu, prev, epsilon)
            want = proximal_columns_oracle(data, mu, prev, epsilon)
            assert np.array_equal(got, want)
            assert got.flags["C_CONTIGUOUS"] and got.dtype == want.dtype
            outs.append(got)
        return outs

    def test_paper_defaults_solve_is_bit_identical(self, monkeypatch,
                                                   paper_instance):
        calls = self._recorded_solve(monkeypatch, paper_instance)
        assert len(calls) > 20
        self._replay(calls)

    def test_mixed_instance_solve_is_bit_identical(self, monkeypatch):
        # Column 0 linear (gamma = 1), 1 free of the network term
        # (beta = 0), 2 so small and cheap its capacity binds, 3 masked
        # for everyone, 5 so expensive it drops out of the live set.
        rng = np.random.default_rng(5)
        C, N = 10, 7
        mask = rng.random((C, N)) < 0.7
        mask[:, 3] = False
        mask[0, :3] = mask[:, 0] = True
        data = ProblemData(
            demands=rng.uniform(5, 20, size=C),
            capacities=[100.0, 100.0, 5.0, 100.0, 100.0, 100.0, 100.0],
            prices=[3.0, 2.0, 0.1, 1.0, 4.0, 500.0, 2.0], alpha=1.0,
            beta=[0.01, 0.0, 0.01, 0.01, 0.02, 0.01, 0.01],
            gamma=[1.0, 3.0, 3.0, 3.0, 2.0, 3.0, 1.5], mask=mask)
        calls = self._recorded_solve(
            monkeypatch, ReplicaSelectionProblem(data), max_iter=250)
        outs = self._replay(calls)
        loads = np.array([out.sum(axis=0) for out in outs])
        # The trajectory really visits what the comment above promises.
        assert np.all(loads[:, 3] == 0.0)
        assert np.any(np.abs(loads[:, 2] - data.B[2]) < 1e-9)      # phase 2
        assert np.any(loads[:, 2] < data.B[2] - 1e-3)              # phase 1
        idle = loads[:, 5] == 0.0
        assert idle.any() and not idle.all()        # live set changes size
        assert np.all(loads[:, 0] > 0.0) and np.all(loads[:, 1] > 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_property_random_calls_are_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        C, N = int(rng.integers(1, 30)), int(rng.integers(1, 10))
        data = ProblemData(
            demands=rng.uniform(0, 10, size=C),
            capacities=rng.choice([0.5, 5.0, 100.0], size=N),
            prices=rng.uniform(0.1, 10, size=N),
            alpha=float(rng.choice([0.0, 1.0])),
            beta=rng.choice([0.0, 0.01, 0.1], size=N),
            gamma=rng.choice([1.0, 1.5, 2.0, 3.0], size=N),
            mask=rng.random((C, N)) < rng.uniform(0.2, 1.0))
        mu = rng.uniform(-80, 10, size=C)
        prev = rng.uniform(0, 20, size=(C, N)) * (rng.random((C, N)) < 0.8)
        epsilon = float(rng.choice([0.05, 0.5, 5.0]))
        self._replay([(data, mu, prev, epsilon)])


class TestCdpsmGradientStep:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100000))
    def test_property_step_matches_scalar_loop(self, seed):
        from repro.core import model
        rng = np.random.default_rng(seed)
        problem = random_instance(seed, n_clients=int(rng.integers(2, 8)),
                                  n_replicas=int(rng.integers(2, 6)),
                                  masked=bool(rng.random() < 0.5))
        data = problem.data
        N = data.n_replicas
        V = rng.uniform(0, 20, size=(N, data.n_clients, N))
        d_k = float(rng.uniform(0.01, 2.0))
        out = kernels.cdpsm_gradient_step(data, V, d_k)
        for i in range(N):
            marginal = model.load_marginal_cost(data, V[i].sum(axis=0))[i]
            ref = V[i].copy()
            ref[:, i] -= d_k * marginal * data.mask[:, i]
            assert np.allclose(out[i], ref, atol=ORACLE_ATOL), f"replica {i}"


class TestRepairAndObjectiveStacks:
    @pytest.mark.parametrize("seed", range(8))
    def test_repair_stack_matches_scalar_repair(self, seed):
        rng = np.random.default_rng(seed)
        problem = random_instance(seed, masked=(seed % 2 == 0),
                                  tight=(seed % 3 == 0))
        data = problem.data
        K = 5
        # Mix of feasible-ish and strongly violating iterates.
        stack = np.stack([problem.uniform_allocation()
                          * rng.uniform(0, 3, size=data.shape)
                          for _ in range(K)])
        out = kernels.repair_stack(data, stack, sweeps=10)
        for k in range(K):
            ref = problem.repair(stack[k], sweeps=10)
            assert np.allclose(out[k], ref, atol=ORACLE_ATOL), f"slice {k}"

    @pytest.mark.parametrize("seed", range(4))
    def test_objective_history_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        problem = random_instance(seed, masked=(seed % 2 == 0))
        data = problem.data
        candidates = [problem.uniform_allocation()
                      * rng.uniform(0, 2, size=data.shape)
                      for _ in range(7)]
        got = kernels.objective_history(data, candidates, sweeps=10, chunk=3)
        want = [problem.objective(problem.repair(c, sweeps=10))
                for c in candidates]
        assert len(got) == len(want)
        assert np.allclose(got, want, atol=ORACLE_ATOL)


#: Production solver -> its scalar loop in ``tests/oracles/solvers.py``.
SCALAR_ORACLE = {LddmSolver: ScalarLddmSolver, CdpsmSolver: ScalarCdpsmSolver}


class TestBatchedSolversMatchScalar:
    """End-to-end: batched solver runs reproduce the scalar oracles."""

    def _check(self, problem, cls, **kw):
        batched = cls(problem, **kw).solve()
        scalar = SCALAR_ORACLE[cls](problem, **kw).solve()
        assert batched.iterations == scalar.iterations
        assert abs(batched.objective - scalar.objective) < 1e-6
        assert np.allclose(batched.allocation, scalar.allocation, atol=1e-6)
        assert len(batched.objective_history) == len(scalar.objective_history)
        assert np.allclose(batched.objective_history,
                           scalar.objective_history, atol=1e-6)

    def test_cdpsm_paper_instance(self, paper_instance):
        self._check(paper_instance, CdpsmSolver, max_iter=60)

    def test_lddm_paper_instance(self, paper_instance):
        self._check(paper_instance, LddmSolver, max_iter=150)

    def test_cdpsm_tiny_instance(self, tiny_instance):
        self._check(tiny_instance, CdpsmSolver, max_iter=60)

    def test_lddm_tiny_instance(self, tiny_instance):
        self._check(tiny_instance, LddmSolver, max_iter=150)

    @pytest.mark.parametrize("seed", range(4))
    def test_cdpsm_random_masked(self, seed):
        self._check(random_instance(seed, masked=True), CdpsmSolver,
                    max_iter=40)

    @pytest.mark.parametrize("seed", range(4))
    def test_lddm_random_masked(self, seed):
        self._check(random_instance(seed, masked=True), LddmSolver,
                    max_iter=80)

    def test_lddm_exact_subproblem_path(self, tiny_instance):
        self._check(tiny_instance, LddmSolver, max_iter=60,
                    exact_subproblem=True, averaging=True)


class TestWarmStartedSolversMatchScalar:
    """Warm-started runs stay on the scalar oracle path too.

    The warm-start plumbing (``initial``/``mu0``) feeds both the batched
    and scalar per-iteration kernels; every iterate must agree to the
    oracle tolerance, exactly like the cold-start equivalence above.
    """

    def _warm_point(self, problem, seed=0):
        rng = np.random.default_rng(seed)
        noisy = problem.uniform_allocation() \
            * rng.uniform(0.5, 1.5, size=problem.data.shape)
        initial = problem.repair(noisy)
        mu0 = rng.uniform(-50.0, 0.0, size=problem.data.n_clients)
        return initial, mu0

    def _check_lddm(self, problem, **kw):
        initial, mu0 = self._warm_point(problem)
        runs = {}
        for batched, cls in ((True, LddmSolver), (False, ScalarLddmSolver)):
            solver = cls(problem, track_objective=False, **kw)
            iters = [(k, cand.copy(), res) for k, cand, res
                     in solver.iterations(initial, mu0=mu0)]
            runs[batched] = (iters, solver.mu_.copy(), solver.converged_)
        (fast, fast_mu, fast_conv) = runs[True]
        (slow, slow_mu, slow_conv) = runs[False]
        assert len(fast) == len(slow)
        assert fast_conv == slow_conv
        assert np.allclose(fast_mu, slow_mu, atol=ORACLE_ATOL)
        for (kf, cf, rf), (ks, cs, rs) in zip(fast, slow):
            assert kf == ks
            assert np.allclose(cf, cs, atol=ORACLE_ATOL)
            assert abs(rf - rs) < ORACLE_ATOL

    def _check_cdpsm(self, problem, **kw):
        initial, _ = self._warm_point(problem)
        runs = {}
        for batched, cls in ((True, CdpsmSolver), (False, ScalarCdpsmSolver)):
            solver = cls(problem, track_objective=False, **kw)
            runs[batched] = [(k, cand.copy()) for k, cand, _
                             in solver.iterations(initial)]
        assert len(runs[True]) == len(runs[False])
        for (kf, cf), (ks, cs) in zip(runs[True], runs[False]):
            assert kf == ks
            assert np.allclose(cf, cs, atol=ORACLE_ATOL)

    def test_lddm_warm_paper_instance(self, paper_instance):
        self._check_lddm(paper_instance, max_iter=80)

    def test_cdpsm_warm_paper_instance(self, paper_instance):
        self._check_cdpsm(paper_instance, max_iter=40)

    @pytest.mark.parametrize("seed", range(3))
    def test_lddm_warm_random_masked(self, seed):
        self._check_lddm(random_instance(seed, masked=True), max_iter=60)

    @pytest.mark.parametrize("seed", range(3))
    def test_cdpsm_warm_random_masked(self, seed):
        self._check_cdpsm(random_instance(seed, masked=True), max_iter=30)

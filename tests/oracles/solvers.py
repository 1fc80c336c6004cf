"""The scalar LDDM / CDPSM solver loops, verbatim from before PR 16.

Until PR 16 ``LddmSolver`` / ``CdpsmSolver`` carried a ``batched=False``
switch selecting these loops: one :func:`solve_replica_subproblem` per
replica column (LDDM), one :func:`project_local_set` per replica estimate
(CDPSM), and a scalar ``repair`` + ``objective`` per iteration for the
Fig. 5 history.  The stacked kernels in :mod:`repro.core.kernels` are
the only path in ``src/`` now; the loops live here so the kernel tests
can still demand equal iteration counts and iterates to 1e-9.

The classes inherit the constructor (option parsing and step defaults)
from the production solvers, and LDDM its ``iterations`` loop, which
never forked — only ``_solve_columns`` did.  Everything overridden is
the pre-change body with each ``if self.batched`` fork collapsed to its
scalar branch and the (then dead) chunked-history buffer dropped.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core import model
from repro.core.cdpsm import CdpsmSolver
from repro.core.lddm import LddmSolver
from repro.core.projection import project_local_set
from repro.core.solution import Solution
from repro.core.subproblem import ReplicaSubproblem, solve_replica_subproblem
from repro.errors import ValidationError


class ScalarLddmSolver(LddmSolver):
    """Algorithm 2 with one scalar subproblem solve per replica column."""

    def _solve_columns(self, mu: np.ndarray, prev: np.ndarray) -> np.ndarray:
        """One round of local subproblem solves (all replicas)."""
        data = self.problem.data
        epsilon = 0.0 if self.exact_subproblem else self.epsilon
        P = np.zeros(data.shape)
        for n in range(data.n_replicas):
            eligible = data.mask[:, n]
            if not eligible.any():
                continue
            sub = ReplicaSubproblem(
                price=float(data.u[n]), alpha=float(data.alpha[n]),
                beta=float(data.beta[n]), gamma=float(data.gamma[n]),
                bandwidth=float(data.B[n]), mu=mu[eligible],
                ref=prev[eligible, n], epsilon=epsilon)
            P[eligible, n] = solve_replica_subproblem(sub)
        return P

    def solve(self, initial: np.ndarray | None = None,
              mu0: np.ndarray | None = None) -> Solution:
        """Run Algorithm 2; returns the repaired (averaged) solution."""
        problem = self.problem
        problem.require_feasible()
        data = problem.data
        C, N = data.shape
        t_start = perf_counter()
        tol_abs = self.tol * float(max(data.R.max(initial=0.0), 1.0))
        rec = self.recorder
        history: list[float] = []
        residuals: list[float] = []
        messages = 0
        comm_floats = 0
        converged = False
        iterations = 0
        candidate = problem.uniform_allocation()
        for k, candidate, res in self.iterations(initial, mu0=mu0):
            iterations = k + 1
            messages += 2 * C * N
            comm_floats += 2 * C * N
            residuals.append(res)
            if self.track_objective:
                value = problem.objective(
                    problem.repair(candidate, sweeps=10))
                history.append(value)
                if rec.enabled:
                    rec.sample("solver.objective", value, k=k)
            if res < tol_abs and k >= 1:
                converged = True
        final = problem.repair(candidate)
        solution = Solution(
            allocation=final,
            objective=problem.objective(final),
            iterations=iterations,
            converged=converged,
            objective_history=history,
            residual_history=residuals,
            messages=messages,
            comm_floats=comm_floats,
            method=self.method,
            solve_time_s=perf_counter() - t_start,
            warm_started=initial is not None or mu0 is not None,
        )
        if rec.enabled:
            rec.event("solver.solve", method=self.method,
                      iterations=iterations, converged=converged,
                      objective=float(solution.objective),
                      messages=messages, comm_floats=comm_floats,
                      solve_time_s=solution.solve_time_s,
                      warm_started=solution.warm_started,
                      n_clients=C, n_replicas=N)
        return solution


class ScalarCdpsmSolver(CdpsmSolver):
    """Algorithm 1 with one scalar Dykstra projection per replica."""

    def iterations(self, initial: np.ndarray | None = None):
        """Yields ``(k, consensus_mean, change)`` per iteration."""
        problem = self.problem
        data = problem.data
        N = data.n_replicas
        base = problem.uniform_allocation() if initial is None \
            else np.asarray(initial, dtype=float)
        if base.shape != data.shape:
            raise ValidationError("initial allocation shape mismatch")
        self.converged_ = False
        # Per-replica estimates, each projected into its own local set.
        X = np.stack([
            project_local_set(base, data.R, data.mask, i,
                              float(data.B[i]),
                              max_iter=self.dykstra_iter)
            for i in range(N)
        ])
        tol_abs = self.tol * float(max(data.R.max(initial=0.0), 1.0))
        rec = self.recorder
        for k in range(self.max_iter):
            # Consensus: V_i = sum_j W[i, j] X_j.
            V = np.tensordot(self.weights, X, axes=(1, 0))
            d_k = self.step(k)
            X_new = np.empty_like(X)
            for i in range(N):
                marginal = model.load_marginal_cost(
                    data, V[i].sum(axis=0))[i]
                step_mat = V[i].copy()
                step_mat[:, i] -= d_k * marginal * data.mask[:, i]
                X_new[i] = project_local_set(
                    step_mat, data.R, data.mask, i, float(data.B[i]),
                    max_iter=self.dykstra_iter)
            change = float(np.max(np.abs(X_new - X)))
            X = X_new
            if rec.enabled:
                rec.event("cdpsm.iteration", k=k, change=change,
                          step=float(d_k))
            yield k, X.mean(axis=0), change
            if change < tol_abs:
                self.converged_ = True
                return

    def solve(self, initial: np.ndarray | None = None) -> Solution:
        """Run Algorithm 1; returns the repaired consensus-mean solution."""
        problem = self.problem
        problem.require_feasible()
        data = problem.data
        C, N = data.shape
        t_start = perf_counter()
        tol_abs = self.tol * float(max(data.R.max(initial=0.0), 1.0))
        rec = self.recorder
        history: list[float] = []
        residuals: list[float] = []
        messages = 0
        comm_floats = 0
        converged = False
        iterations = 0
        mean = problem.uniform_allocation()
        for k, mean, change in self.iterations(initial):
            iterations = k + 1
            messages += N * (N - 1)
            comm_floats += N * (N - 1) * C * N
            residuals.append(problem.violation(mean))
            if self.track_objective:
                value = problem.objective(
                    problem.repair(mean, sweeps=10))
                history.append(value)
                if rec.enabled:
                    rec.sample("solver.objective", value, k=k)
            if change < tol_abs:
                converged = True
        final = problem.repair(mean)
        solution = Solution(
            allocation=final,
            objective=problem.objective(final),
            iterations=iterations,
            converged=converged,
            objective_history=history,
            residual_history=residuals,
            messages=messages,
            comm_floats=comm_floats,
            method=self.method,
            solve_time_s=perf_counter() - t_start,
            warm_started=initial is not None,
        )
        if rec.enabled:
            rec.event("solver.solve", method=self.method,
                      iterations=iterations, converged=converged,
                      objective=float(solution.objective),
                      messages=messages, comm_floats=comm_floats,
                      solve_time_s=solution.solve_time_s,
                      warm_started=solution.warm_started,
                      n_clients=C, n_replicas=N)
        return solution

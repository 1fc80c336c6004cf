"""Consensus-based distributed projected subgradient method (Algorithm 1).

Every replica ``i`` keeps a full estimate ``X_i`` of the allocation matrix.
One iteration (paper Eq. 3):

1. *consensus*:  ``V_i = sum_j W[i, j] * X_j``  (solutions collected from
   the other replicas; uniform weights on the complete exchange graph by
   default, as EDR does);
2. *gradient*:  ``G_i`` = gradient of the replica's *local* objective
   ``E_i`` at ``V_i`` (only column ``i`` is nonzero);
3. *projection*:  ``X_i <- Proj_{P_i}[V_i - d_k * G_i]`` onto the local
   constraint set (demand rows ∩ own capacity column) via Dykstra.

Communication per iteration is ``N*(N-1)`` solution exchanges of
``C*N`` floats each — the paper's ``O(|C| * |N|^3)``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core import kernels
from repro.core.consensus import is_doubly_stochastic, uniform_weights
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.solution import Solution
from repro.core.stepsize import ConstantStep
from repro.errors import ValidationError
from repro.obs import NULL_RECORDER

__all__ = ["CdpsmSolver", "solve_cdpsm", "default_cdpsm_step"]


def default_cdpsm_step(data: ProblemData) -> float:
    """Problem-scaled constant step.

    Sized against the marginal cost at the *uniform-allocation operating
    point* (total demand spread over all replicas) rather than at full
    capacity: at moderate loads the capacity-point gradient overestimates
    the working gradient by orders of magnitude (the cubic term), which
    would make iterates crawl.  A step of ~10% of the demand scale per
    unit working-gradient moves real mass per iteration while the local
    projection keeps iterates feasible.
    """
    load_typ = float(data.R.sum()) / max(data.n_replicas, 1)
    load_typ = min(load_typ, float(data.B.max()))
    g_typ = float(np.max(data.u * (data.alpha + data.beta * data.gamma
                                   * load_typ ** (data.gamma - 1.0))))
    scale = float(max(data.R.max(initial=0.0), 1e-12))
    return 0.1 * scale / max(g_typ, 1e-12)


class CdpsmSolver:
    """Synchronous matrix-form execution of Algorithm 1.

    Parameters
    ----------
    problem: the instance to solve.
    weights: (N, N) doubly stochastic consensus matrix; defaults to the
        complete-graph uniform weights the paper uses.
    step: step-size schedule ``d_k``; defaults to a problem-scaled
        constant step (the paper uses constant steps).
    max_iter, tol: stopping rule — iterate until no replica's estimate
        moves more than ``tol * max(R)`` in one iteration ("until P does
        not change").
    dykstra_iter: inner iterations of the local-set projection.
    track_objective: record the objective of the consensus mean each
        iteration (the Fig. 5 curve).

    All N per-replica projections of an iteration run as one stacked
    kernel call (:mod:`repro.core.kernels`).
    """

    method = "cdpsm"

    def __init__(self, problem: ReplicaSelectionProblem,
                 weights: np.ndarray | None = None,
                 step=None, max_iter: int = 400, tol: float = 1e-5,
                 dykstra_iter: int = 60,
                 track_objective: bool = True,
                 recorder=None) -> None:
        self.problem = problem
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        data = problem.data
        n = data.n_replicas
        W = uniform_weights(n) if weights is None else np.asarray(weights, float)
        if W.shape != (n, n):
            raise ValidationError("weights must be (N, N)")
        if not is_doubly_stochastic(W, tol=1e-8):
            raise ValidationError("weights must be doubly stochastic")
        self.weights = W
        self.step = step if step is not None else ConstantStep(
            default_cdpsm_step(data))
        if max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.dykstra_iter = int(dykstra_iter)
        self.track_objective = bool(track_objective)
        self.converged_ = False

    def iterations(self, initial: np.ndarray | None = None):
        """Generator over consensus iterations (the runtime steps this).

        Yields ``(k, consensus_mean, change)`` after each iteration, where
        ``change`` is the max movement of any replica's estimate.  Stops
        when the estimates no longer move ("until P does not change") or
        at ``max_iter``.

        ``initial`` seeds every replica's estimate (each is projected
        into its own local set before the first consensus round) — the
        runtime passes the previous batch's projected consensus mean here
        to warm-start the solve.  ``self.converged_`` reports whether the
        stopping rule fired.
        """
        problem = self.problem
        data = problem.data
        N = data.n_replicas
        cols = np.arange(N)
        base = problem.uniform_allocation() if initial is None \
            else np.asarray(initial, dtype=float)
        if base.shape != data.shape:
            raise ValidationError("initial allocation shape mismatch")
        self.converged_ = False
        # Per-replica estimates, each projected into its own local set.
        X = kernels.project_local_sets_stacked(
            np.repeat(base[None], N, axis=0), data.R, data.mask,
            cols, data.B, max_iter=self.dykstra_iter)
        tol_abs = self.tol * float(max(data.R.max(initial=0.0), 1.0))
        rec = self.recorder
        for k in range(self.max_iter):
            # Consensus: V_i = sum_j W[i, j] X_j.
            V = np.tensordot(self.weights, X, axes=(1, 0))
            d_k = self.step(k)
            stepped = kernels.cdpsm_gradient_step(data, V, d_k)
            X_new = kernels.project_local_sets_stacked(
                stepped, data.R, data.mask, cols, data.B,
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
        pending: list[np.ndarray] = []

        def flush_history() -> None:
            if pending:
                base = len(history)
                values = kernels.objective_history(data, pending, sweeps=10)
                history.extend(values)
                if rec.enabled:
                    for j, v in enumerate(values):
                        rec.sample("solver.objective", v, k=base + j)
                pending.clear()

        for k, mean, change in self.iterations(initial):
            iterations = k + 1
            messages += N * (N - 1)
            comm_floats += N * (N - 1) * C * N
            residuals.append(problem.violation(mean))
            if self.track_objective:
                # Repair lazily in stacked chunks (same curve values,
                # without a full scalar repair every iteration).
                pending.append(mean)
                if len(pending) >= 128:
                    flush_history()
            if change < tol_abs:
                converged = True
        flush_history()
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


def solve_cdpsm(problem: ReplicaSelectionProblem, *,
                aggregate: bool = False,
                warm_start: np.ndarray | None = None, recorder=None,
                **kwargs) -> Solution:
    """One-call convenience wrapper: ``solve(problem, "cdpsm", ...)``.

    All options are keyword-only and named exactly as on
    :func:`repro.core.solve` (``aggregate``, ``warm_start``, ``recorder``,
    plus any :class:`CdpsmSolver` option).  ``aggregate=True`` solves the
    exact class-space reduction (one super-client per distinct
    eligibility row; O(K*N) per iteration) and disaggregates the result —
    see :mod:`repro.core.aggregate`.
    """
    from repro.core.api import solve

    return solve(problem, "cdpsm", aggregate=aggregate,
                 warm_start=warm_start, recorder=recorder, **kwargs)

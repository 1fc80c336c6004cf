"""Lagrangian dual decomposition method (Algorithm 2).

The per-client demand equalities ``h_c(P) = sum_n P[c, n] - R_c = 0`` are
dualized with multipliers ``mu_c`` held by the clients.  Each iteration:

1. every replica ``n`` solves its local subproblem (5) over its own
   column given the current ``mu`` (see :mod:`repro.core.subproblem`);
2. every client updates its multiplier along the dual gradient — the
   demand residual:  ``mu_c <- mu_c + d_k * (sum_n P[c, n] - R_c)``.

Communication per iteration is one solution message per (replica, client)
pair plus one ``mu`` message per (client, replica) pair — the paper's
``O(|C| * |N|)``, strictly cheaper than CDPSM's ``O(|C| * |N|^3)``.

Two documented stabilizations of the textbook method (DESIGN.md §5.2),
both default-on and both removable for the ablation bench:

* a proximal term ``(eps/2)*||p - p_prev||^2`` in the subproblem (the
  paper's exact subproblem is linear in the split across clients, so raw
  dual decomposition chatters between extreme points);
* ergodic (running-average) primal recovery.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.solution import Solution
from repro.core.stepsize import ConstantStep
from repro.core import kernels, model
from repro.errors import ValidationError
from repro.obs import NULL_RECORDER

__all__ = ["LddmSolver", "solve_lddm", "default_lddm_parameters",
           "initial_mu"]


def default_lddm_parameters(data: ProblemData) -> tuple[float, float]:
    """Problem-scaled ``(epsilon, dual_step)``.

    ``epsilon`` makes the proximal curvature comparable to the marginal
    energy cost at the problem's *operating point* (total demand spread
    uniformly) over the demand scale — sizing it to full capacity instead
    over-stiffens small instances by orders of magnitude.  The dual
    gradient is ``N/epsilon``-Lipschitz, so a step of ``1.5*epsilon/N``
    is stable.
    """
    load_typ = float(data.R.sum()) / max(data.n_replicas, 1)
    load_typ = min(load_typ, float(data.B.max()))
    g_typ = float(np.max(data.u * (data.alpha + data.beta * data.gamma
                                   * load_typ ** (data.gamma - 1.0))))
    scale = float(max(data.R.max(initial=0.0), 1e-12))
    epsilon = max(g_typ, 1e-12) / scale
    dual_step = 1.0 * epsilon / max(data.n_replicas, 1)
    return epsilon, dual_step


def initial_mu(problem: ReplicaSelectionProblem) -> np.ndarray:
    """Cold-start ``mu_c``: minus the cheapest eligible marginal cost.

    At optimality ``mu_c = -dE/dP[c, n]`` for every replica carrying
    client c's load; the marginal at the uniform allocation is a good
    first guess and saves most of the dual travel.  Warm starts
    (:mod:`repro.core.warmstart`) fall back to this per client when no
    cached multiplier applies.
    """
    data = problem.data
    loads = problem.uniform_allocation().sum(axis=0)
    best = model.cheapest_eligible_marginal(data, loads)
    return np.where(np.isfinite(best), -best, 0.0)


class LddmSolver:
    """Synchronous matrix-form execution of Algorithm 2.

    Every iteration solves all replica columns in one vectorized
    KKT/bisection pass (:func:`repro.core.kernels.lddm_solve_columns`).
    """

    method = "lddm"

    def __init__(self, problem: ReplicaSelectionProblem,
                 step=None, epsilon: float | None = None,
                 max_iter: int = 600, tol: float = 1e-4,
                 averaging: bool = True, exact_subproblem: bool = False,
                 track_objective: bool = True,
                 warm_start_mu: bool = True,
                 recorder=None) -> None:
        self.problem = problem
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        data = problem.data
        eps_default, step_default = default_lddm_parameters(data)
        if epsilon is None:
            epsilon = eps_default
        if epsilon < 0:
            raise ValidationError("epsilon must be nonnegative")
        self.epsilon = float(epsilon)
        if step is None:
            # Dual gradient is (N/eps)-Lipschitz => step < 2*eps/N stable;
            # eps/N keeps a comfortable margin against limit cycles.
            eps_eff = self.epsilon if self.epsilon > 0 else eps_default
            step = ConstantStep(1.0 * eps_eff / max(data.n_replicas, 1))
        self.step = step
        if max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.averaging = bool(averaging)
        self.exact_subproblem = bool(exact_subproblem)
        self.track_objective = bool(track_objective)
        self.warm_start_mu = bool(warm_start_mu)
        # Final dual state of the last iterations() run (cached by the
        # runtime's warm-start layer).
        self.mu_: np.ndarray | None = None
        self.converged_ = False

    # -- pieces -------------------------------------------------------------
    def _initial_mu(self) -> np.ndarray:
        """Cold-start multipliers (see :func:`initial_mu`)."""
        if not self.warm_start_mu:
            return np.zeros(self.problem.data.n_clients)
        return initial_mu(self.problem)

    def _solve_columns(self, mu: np.ndarray, prev: np.ndarray) -> np.ndarray:
        """One round of local subproblem solves (all replicas)."""
        data = self.problem.data
        epsilon = 0.0 if self.exact_subproblem else self.epsilon
        return kernels.lddm_solve_columns(data, mu, prev, epsilon)

    # -- main loop -----------------------------------------------------------
    def iterations(self, initial: np.ndarray | None = None,
                   mu0: np.ndarray | None = None):
        """Generator over solver iterations (the runtime steps this).

        Yields ``(k, candidate, residual)`` after each iteration, where
        ``candidate`` is the current primal recovery (averaged if
        averaging is on) and ``residual`` is the max demand violation of
        the *raw* iterate.  The generator stops once the stopping rule is
        met or ``max_iter`` is reached.

        ``initial`` seeds the primal reference point and ``mu0`` the dual
        multipliers (both default to the cold start); together they form
        the cross-batch warm-start entry point used by the runtime.
        After the generator finishes, ``self.mu_`` holds the final
        multipliers and ``self.converged_`` whether the stopping rule
        fired — the state the runtime caches for the next batch.
        """
        problem = self.problem
        data = problem.data
        prev = problem.uniform_allocation() if initial is None \
            else np.asarray(initial, dtype=float)
        if prev.shape != data.shape:
            raise ValidationError("initial allocation shape mismatch")
        if mu0 is None:
            mu = self._initial_mu()
        else:
            mu = np.array(mu0, dtype=float, copy=True)
            if mu.shape != (data.n_clients,):
                raise ValidationError("mu0 must have one entry per client")
        self.mu_ = mu
        self.converged_ = False
        # Suffix averaging: restart the running mean at k = 1, 2, 4, 8, ...
        # so the recovered primal always averages (roughly) the last half
        # of the iterates — plain ergodic averaging would dilute the
        # solution with the uniform-ish burn-in forever.
        average = np.zeros(data.shape)
        avg_count = 0
        next_restart = 1
        tol_abs = self.tol * float(max(data.R.max(initial=0.0), 1.0))
        rec = self.recorder
        for k in range(self.max_iter):
            P = self._solve_columns(mu, prev)
            r = P.sum(axis=1) - data.R
            d_k = self.step(k)
            mu = mu + d_k * r
            self.mu_ = mu
            prev = P
            if k == next_restart:
                average = np.zeros(data.shape)
                avg_count = 0
                next_restart *= 2
            average = (average * avg_count + P) / (avg_count + 1)
            avg_count += 1
            candidate = average if self.averaging else P
            # Stop on the recovered primal's residual: the raw iterate can
            # limit-cycle around the optimum while its average settles.
            res_raw = float(np.max(np.abs(r), initial=0.0))
            res_cand = float(np.max(
                np.abs(candidate.sum(axis=1) - data.R), initial=0.0))
            res = min(res_raw, res_cand)
            if rec.enabled:
                rec.event("lddm.iteration", k=k, residual=res,
                          step=float(d_k),
                          mu_max=float(np.max(np.abs(mu), initial=0.0)))
            yield k, candidate, res
            if res < tol_abs and k >= 1:
                self.converged_ = True
                return

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

        for k, candidate, res in self.iterations(initial, mu0=mu0):
            iterations = k + 1
            messages += 2 * C * N
            comm_floats += 2 * C * N
            residuals.append(res)
            if self.track_objective:
                # Repair lazily in stacked chunks (same curve values,
                # without a full scalar repair every iteration).
                pending.append(candidate)
                if len(pending) >= 128:
                    flush_history()
            if res < tol_abs and k >= 1:
                converged = True
        flush_history()
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


def solve_lddm(problem: ReplicaSelectionProblem, *,
               aggregate: bool = False, warm_start: np.ndarray | None = None,
               mu0: np.ndarray | None = None, recorder=None,
               **kwargs) -> Solution:
    """One-call convenience wrapper: ``solve(problem, "lddm", ...)``.

    All options are keyword-only and named exactly as on
    :func:`repro.core.solve` (``aggregate``, ``warm_start``, ``mu0``,
    ``recorder``, plus any :class:`LddmSolver` option).  ``aggregate=True``
    solves the exact class-space reduction (one super-client per distinct
    eligibility row; O(K*N) per iteration) and disaggregates the result —
    see :mod:`repro.core.aggregate`.
    """
    from repro.core.api import solve

    return solve(problem, "lddm", aggregate=aggregate,
                 warm_start=warm_start, mu0=mu0, recorder=recorder,
                 **kwargs)

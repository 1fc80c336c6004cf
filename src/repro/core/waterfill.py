"""Certified water-fill solve: the control plane's class-space solver.

The replica-selection program (Eq. 1) is separable per row once every
other row's load is fixed: a row water-fills its demand over its
eligible headroom so each loaded column sits at one marginal level — the
exact per-row KKT solution.  :class:`WaterfillSolver` solves an instance
in three steps:

1. **Sweep.**  One :class:`~repro.core.shard.SolveShard` holding every
   row at zero background runs the exchange rounds'
   loop (:func:`~repro.core.shard.exchange_rounds`) — each round a
   batched :func:`~repro.core.kernels.waterfill_rows` best response plus
   the Gauss–Seidel refine — until the coordinator's residual
   (:func:`~repro.core.shard.plane_residual`: capacity overshoot, KKT
   gap, demand shortfall) is within the shard's KKT tolerance or stops
   contracting, the rounds' stall test.  One round is the usual case.
2. **Certify.**  Per-row best response can stall where a capacity-bound
   column couples two rows (moving load needs a two-row swap the per-row
   KKT gap cannot see), so the sweep's answer is checked against the
   LDDM dual bound (:func:`~repro.core.certify.certify`).
3. **Escalate** only when that proof fails: runs of LDDM (Algorithm 2)
   warm started from the best rows so far and their certificate's
   multipliers (minus ``Certificate.mu``:
   :func:`~repro.core.warmstart.recover_mu` with headroom, so a row
   loaded only on full columns starts at their price, not at their bare
   marginal), each followed by a Gauss–Seidel polish of its rows and a
   new certificate, until one certifies, a run stops improving, or
   ``max_iter`` (sweep rounds plus LDDM iterations) is spent.  The
   certified answer is returned, else the feasible one with the lower
   objective.

``converged`` means certified: the returned rows are within ``tol``
(relative objective) of the optimum by weak duality.  The solver works
on the rows it is given; :func:`repro.core.solve` with
``aggregate=True`` groups clients into eligibility classes first.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from repro.core import model
from repro.core.certify import certify
from repro.core.lddm import LddmSolver
from repro.core.problem import ReplicaSelectionProblem
from repro.core.shard import (
    _KKT_RTOL,
    SolveShard,
    exchange_rounds,
    plane_residual,
)
from repro.core.solution import Solution
from repro.errors import ValidationError
from repro.obs import NULL_RECORDER

__all__ = ["WaterfillSolver"]

#: Demand-residual tolerance of the escalation's LDDM runs: tight enough
#: that the load a stalled two-row swap leaves on the wrong column is
#: below the answer's tolerance before the polish and the certificate.
_ESCALATION_TOL = 1e-8

#: LDDM iterations per escalation run.  Each run restarts from the last
#: polished rows and their certificate's multipliers, which converges in
#: far fewer iterations than one long run: on three instances where the
#: sweep stalls, 200 / 200 / 202 iterations against 1 846 / 4 234 / 726.
_ESCALATION_CHUNK = 200


def _shard(problem: ReplicaSelectionProblem,
           rows: np.ndarray | None) -> SolveShard:
    """Every row of ``problem`` on one shard, holding ``rows``."""
    data = problem.data
    return SolveShard(
        0, tokens=[k.to_bytes(8, "little") for k in range(data.n_clients)],
        demands=data.R, capacities=data.B, prices=data.u, alpha=data.alpha,
        beta=data.beta, gamma=data.gamma, mask=data.mask, allocation=rows)


def _rank(cert, tol: float) -> tuple:
    """Order of preference between two answers: certified first, then
    feasible, then the lower primal."""
    return (cert.gap > tol, math.isinf(cert.gap), cert.primal)


class WaterfillSolver:
    """Sweep, certify, and escalate to LDDM only if the proof fails."""

    method = "waterfill"

    def __init__(self, problem: ReplicaSelectionProblem,
                 max_iter: int = 5000, tol: float = 1e-9,
                 recorder=None) -> None:
        if max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        if tol <= 0.0:
            raise ValidationError("tol must be positive")
        self.problem = problem
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    def solve(self, initial: np.ndarray | None = None) -> Solution:
        """Solve the instance; ``initial`` seeds the sweep's rows."""
        problem = self.problem
        problem.require_feasible()
        data = problem.data
        if initial is not None and np.shape(initial) != data.shape:
            raise ValidationError("initial allocation shape mismatch")
        t0 = perf_counter()
        shard = _shard(problem, initial)
        zero = np.zeros(data.n_replicas)
        swept = exchange_rounds(
            lambda damping: [shard.solve_round(zero, damping)],
            lambda: plane_residual([shard], shard.loads, data.B,
                                   lambda _: zero),
            tol=_KKT_RTOL, max_rounds=self.max_iter, damping=1.0,
            on_stall=lambda _: None)
        rounds = swept.rounds
        rows = shard.state.Q
        cert = certify(problem, rows)
        iterations = rounds
        escalated = cert.gap > self.tol and rounds < self.max_iter
        while cert.gap > self.tol and iterations < self.max_iter:
            lddm = LddmSolver(
                problem, max_iter=min(self.max_iter - iterations,
                                      _ESCALATION_CHUNK),
                tol=_ESCALATION_TOL, track_objective=False,
                recorder=self.recorder)
            found = lddm.solve(rows, mu0=-cert.mu)
            iterations += found.iterations
            polish = _shard(problem, found.allocation)
            polish.state.refine()
            polished = certify(problem, polish.state.Q)
            if _rank(polished, self.tol) >= _rank(cert, self.tol):
                break
            rows, cert = polish.state.Q, polished
        solution = Solution(
            allocation=rows.copy(),
            objective=model.total_energy(data, rows),
            iterations=iterations,
            converged=cert.gap <= self.tol,
            residual_history=swept.history,
            method=self.method,
            solve_time_s=perf_counter() - t0,
            warm_started=initial is not None)
        if self.recorder.enabled:
            self.recorder.event(
                "solver.solve", method=self.method, iterations=iterations,
                converged=solution.converged,
                objective=float(solution.objective),
                solve_time_s=solution.solve_time_s,
                warm_started=solution.warm_started, rounds=rounds,
                gap=cert.gap, escalated=escalated,
                n_clients=data.n_clients, n_replicas=data.n_replicas)
        return solution

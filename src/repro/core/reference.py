"""Centralized reference solver.

Solves problem (2) with scipy (SLSQP, falling back to trust-constr) over
the latency-eligible variables only.  This is *not* part of EDR — a
centralized coordinator is exactly what the paper argues against — but it
provides the ground-truth optimum the distributed solvers are verified
against, and the ideal objective value for convergence plots.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy import optimize

from repro.core import model
from repro.core.problem import ReplicaSelectionProblem
from repro.core.solution import Solution
from repro.errors import ConvergenceError, ValidationError

__all__ = ["solve_reference"]


def solve_reference(problem: ReplicaSelectionProblem, *,
                    x0: np.ndarray | None = None,
                    tol: float = 1e-9, max_iter: int = 500,
                    warm_start: np.ndarray | None = None,
                    recorder=None) -> Solution:
    """Solve the instance centrally; returns a :class:`Solution`.

    ``warm_start`` is the facade-standard spelling of the initial point
    (``x0`` is the historical alias; passing both is an error).  Raises
    :class:`~repro.errors.InfeasibleProblemError` if the instance is
    infeasible and :class:`~repro.errors.ConvergenceError` if both scipy
    methods fail.
    """
    if warm_start is not None:
        if x0 is not None:
            raise ValidationError("pass warm_start or x0, not both")
        x0 = warm_start
    t_start = perf_counter()
    problem.require_feasible()
    data = problem.data
    mask = data.mask
    idx = np.nonzero(mask.ravel())[0]  # eligible entries, row-major

    def unpack(x: np.ndarray) -> np.ndarray:
        P = np.zeros(data.shape)
        P.ravel()[idx] = x
        return P

    def fun(x: np.ndarray) -> float:
        # trust-constr may probe slightly outside the x >= 0 bounds;
        # price such a point at clipped loads, as ``jac`` already does.
        loads = np.maximum(model.replica_loads(unpack(x)), 0.0)
        return float(model.replica_energy(data, loads).sum())

    def jac(x: np.ndarray) -> np.ndarray:
        return model.energy_gradient(data, unpack(x)).ravel()[idx]

    # Row (client) index and column (replica) index of each variable.
    rows = idx // data.n_replicas
    cols = idx % data.n_replicas

    A_eq = np.zeros((data.n_clients, idx.size))
    A_eq[rows, np.arange(idx.size)] = 1.0
    A_cap = np.zeros((data.n_replicas, idx.size))
    A_cap[cols, np.arange(idx.size)] = 1.0

    if x0 is None:
        P0 = problem.uniform_allocation()
        # Pull capacity violations inside the box before handing to scipy.
        loads = P0.sum(axis=0)
        over = loads > data.B
        if over.any():
            scale = np.where(over, data.B / np.maximum(loads, 1e-300), 1.0)
            P0 = P0 * scale  # no longer demand-exact; SLSQP restores it
        x_init = P0.ravel()[idx]
    else:
        x_init = np.asarray(x0, dtype=float).ravel()[idx]

    constraints = [
        {"type": "eq", "fun": lambda x: A_eq @ x - data.R,
         "jac": lambda x: A_eq},
        {"type": "ineq", "fun": lambda x: data.B - A_cap @ x,
         "jac": lambda x: -A_cap},
    ]
    bounds = [(0.0, None)] * idx.size
    result = optimize.minimize(
        fun, x_init, jac=jac, bounds=bounds, constraints=constraints,
        method="SLSQP", options={"maxiter": max_iter, "ftol": tol})
    if not result.success or _violation(problem, unpack(result.x)) > 1e-5:
        lincon = [
            optimize.LinearConstraint(A_eq, data.R, data.R),
            optimize.LinearConstraint(A_cap, -np.inf, data.B),
        ]
        result = optimize.minimize(
            fun, x_init, jac=jac, bounds=bounds, constraints=lincon,
            method="trust-constr",
            options={"maxiter": max(1000, 4 * max_iter), "gtol": 1e-10,
                     "xtol": 1e-12})
        if not result.success and _violation(problem, unpack(result.x)) > 1e-4:
            raise ConvergenceError(
                f"reference solver failed: {result.message}",
                iterations=int(getattr(result, "nit", 0)))
    P = unpack(np.maximum(result.x, 0.0))
    solution = Solution(
        allocation=P,
        objective=model.total_energy(data, P),
        iterations=int(getattr(result, "nit", 0)),
        converged=True,
        method="reference",
        solve_time_s=perf_counter() - t_start,
        warm_started=x0 is not None,
    )
    if recorder is not None and recorder.enabled:
        recorder.event("solver.solve", method="reference",
                       iterations=solution.iterations, converged=True,
                       objective=float(solution.objective),
                       solve_time_s=solution.solve_time_s,
                       warm_started=solution.warm_started,
                       n_clients=data.n_clients, n_replicas=data.n_replicas)
    return solution


def _violation(problem: ReplicaSelectionProblem, P: np.ndarray) -> float:
    return problem.violation(P)

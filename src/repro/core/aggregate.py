"""Exact client-class aggregation: solve in O(K*N) instead of O(C*N).

The objective ``E_g = sum_n u_n (alpha_n L_n + beta_n L_n^gamma_n)``
depends on an allocation only through its column loads ``L_n``, and every
constraint a client contributes is determined by two quantities: its
demand ``R_c`` and its latency-eligibility row ``mask[c]``.  Clients with
identical eligibility rows are therefore *exchangeable* — any feasible
split of their combined demand over the shared support can be re-split
among them without changing loads, feasibility, or cost.

This module groups the ``C`` clients into ``K`` equivalence classes by
eligibility row (``K <= 2^N``; single digits in the paper's scenarios)
and solves a reduced instance with one *super-client* per class:

* **Reduction** (:meth:`ClassStructure.reduce_data`): class ``k`` gets
  demand ``D_k = sum_{c in k} R_c`` and the shared mask row; replicas are
  untouched.  Any feasible ``C x N`` allocation row-sums to a feasible
  ``K x N`` one with identical column loads, so the reduced optimum is no
  worse than the original.
* **Exact disaggregation** (:meth:`ClassStructure.expand_rows`): a class
  row ``Q[k]`` is split over its members proportionally to their demands,
  ``P[c] = (R_c / D_k) * Q[k]``.  Row sums are ``R_c``, the mask and
  nonnegativity are inherited, and column loads — hence the objective —
  are preserved, so the original optimum is no worse than the reduced.

Together the two maps prove the optima coincide *exactly*: aggregation is
a lossless problem transformation, not an approximation.  (This is the
same observation that lets the geographical load-balancing literature —
Adnan et al., arXiv:1204.2320; Mathew et al., arXiv:1109.5641 — plan
over aggregate regional demand instead of individual users.)

Class ordering is stable (first occurrence), so when every client has a
unique eligibility row the reduced instance *is* the original instance
and the aggregated solve is bit-identical to the direct one — the
pass-through guarantee the regression tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import model
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.projection import group_rows
from repro.core.solution import Solution
from repro.errors import ValidationError
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = ["ClassStructure", "AggregatedProblem", "aggregate_problem",
           "solve_aggregated", "expand_class_rows"]


def _class_weights(demands: np.ndarray, class_of: np.ndarray,
                   class_demands: np.ndarray) -> np.ndarray:
    """``R_c / D_k(c)`` per client, 0 where the class demand is not
    positive: one (C,) buffer, gathered then divided in place (a
    demand-free class divides by inf)."""
    weights = np.take(np.where(class_demands > 0.0, class_demands, np.inf),
                      class_of)
    np.divide(demands, weights, out=weights)
    return weights


def expand_class_rows(rows: np.ndarray, class_of: np.ndarray,
                      demands: np.ndarray,
                      class_demands: np.ndarray) -> np.ndarray:
    """Exact disaggregation ``P[c] = rows[k(c)] * R_c / D_k(c)`` -> (C, N).

    ``rows`` is (K, N), ``class_of`` (C,) indexes its rows, ``demands``
    the (C,) client demands and ``class_demands`` the (K,) class totals
    the rows sum to.  Members of a class whose demand is not positive
    get zero rows.  The one disaggregation formula: class structures,
    the service's event plane and its wire responses all expand through
    it, so the three agree bit for bit.
    """
    P = np.take(rows, class_of, axis=0)
    P *= _class_weights(demands, class_of, class_demands)[:, None]
    return P


@dataclass(frozen=True)
class ClassStructure:
    """Partition of clients into eligibility-mask equivalence classes.

    Attributes
    ----------
    class_of_client: (C,) index of each client's class.
    masks: (K, N) class eligibility patterns, in order of first
        occurrence among the clients (stable: appending new clients never
        renumbers existing classes, and K == C reduces to the identity).
    demands: (K,) per-class total demand ``D_k``.
    client_demands: (C,) the original per-client demands ``R_c``.
    """

    class_of_client: np.ndarray
    masks: np.ndarray
    demands: np.ndarray
    client_demands: np.ndarray

    @classmethod
    def from_mask(cls, mask: np.ndarray, demands: np.ndarray
                  ) -> "ClassStructure":
        """Group rows of ``mask`` by identical pattern (first-occurrence
        order) and accumulate ``demands`` per group."""
        M = np.asarray(mask, dtype=bool)
        R = np.array(demands, dtype=float)
        if M.ndim != 2 or R.shape != (M.shape[0],):
            raise ValidationError("mask must be (C, N) with one demand per row")
        if M.shape[0] == 0:
            raise ValidationError("need at least one client")
        first, class_of_client = group_rows(M)
        class_demand = np.bincount(class_of_client, weights=R,
                                   minlength=first.size)
        return cls(class_of_client=class_of_client, masks=M[first],
                   demands=class_demand, client_demands=R)

    # -- views ---------------------------------------------------------------
    @property
    def n_clients(self) -> int:
        """C, the original client count."""
        return self.class_of_client.shape[0]

    @property
    def n_classes(self) -> int:
        """K, the number of distinct eligibility patterns."""
        return self.masks.shape[0]

    @property
    def n_replicas(self) -> int:
        """N, the replica count."""
        return self.masks.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """(C,) exact disaggregation weights ``R_c / D_k(c)`` (zero for
        clients of zero-demand classes)."""
        return _class_weights(self.client_demands, self.class_of_client,
                              self.demands)

    @property
    def keys(self) -> tuple[bytes, ...]:
        """Stable per-class tokens (the packed eligibility pattern).

        A class's identity is its eligibility row, which depends on the
        topology and the live replica set — not on which clients happen
        to be in a batch.  The runtime keys its warm-start cache rows by
        these tokens so cached class allocations survive arbitrary client
        churn between batches.
        """
        return tuple(row.tobytes() for row in self.masks)

    def members(self, k: int) -> np.ndarray:
        """Client indices of class ``k``."""
        if not 0 <= k < self.n_classes:
            raise ValidationError(f"class index {k} out of range")
        return np.nonzero(self.class_of_client == k)[0]

    # -- reduction / expansion maps ------------------------------------------
    def reduce_data(self, data: ProblemData) -> ProblemData:
        """The super-client instance: one row per class, replicas as-is."""
        if data.mask.shape != (self.n_clients, self.n_replicas):
            raise ValidationError("data shape does not match class structure")
        return ProblemData(demands=self.demands, capacities=data.B,
                           prices=data.u, alpha=data.alpha, beta=data.beta,
                           gamma=data.gamma, mask=self.masks)

    def reduce_rows(self, allocation: np.ndarray) -> np.ndarray:
        """Sum a (C, N) allocation's rows per class -> (K, N).

        The row-sum image of a feasible allocation is feasible for the
        reduced instance and has identical column loads.
        """
        P = np.asarray(allocation, dtype=float)
        if P.shape != (self.n_clients, self.n_replicas):
            raise ValidationError("allocation shape mismatch in reduce_rows")
        K = self.n_classes
        out = np.empty((K, self.n_replicas))
        for n in range(self.n_replicas):
            out[:, n] = np.bincount(self.class_of_client,
                                    weights=P[:, n], minlength=K)
        return out

    def expand_rows(self, reduced: np.ndarray) -> np.ndarray:
        """Exact disaggregation of a (K, N) class allocation -> (C, N).

        ``P[c] = (R_c / D_k) * Q[k]``: demand rows, the mask, and
        nonnegativity hold exactly, column loads (and therefore the
        objective) are preserved, and members of a zero-demand class get
        zero rows.  For singleton classes the weight is exactly 1.0, so
        pass-through expansion is bit-identical.
        """
        Q = np.asarray(reduced, dtype=float)
        if Q.shape != (self.n_classes, self.n_replicas):
            raise ValidationError("reduced allocation shape mismatch")
        return expand_class_rows(Q, self.class_of_client,
                                 self.client_demands, self.demands)


@dataclass(frozen=True)
class AggregatedProblem:
    """A problem instance paired with its class-space reduction."""

    original: ReplicaSelectionProblem
    problem: ReplicaSelectionProblem     # the reduced (K-row) instance
    structure: ClassStructure

    @property
    def n_classes(self) -> int:
        """K, the reduced row count."""
        return self.structure.n_classes

    def expand_solution(self, solution: Solution) -> Solution:
        """Disaggregate a reduced-space :class:`Solution` to client space.

        The allocation is expanded exactly; the objective is re-evaluated
        on the expanded matrix (it agrees with the reduced objective to
        float round-off because column loads are preserved); iteration and
        communication counts are the reduced solve's — that *is* what the
        aggregated execution performs.
        """
        P = self.structure.expand_rows(solution.allocation)
        return Solution(
            allocation=P,
            objective=model.total_energy(self.original.data, P),
            iterations=solution.iterations,
            converged=solution.converged,
            objective_history=solution.objective_history,
            residual_history=solution.residual_history,
            messages=solution.messages,
            comm_floats=solution.comm_floats,
            method=solution.method,
            solve_time_s=solution.solve_time_s,
            warm_started=solution.warm_started,
            n_classes=self.n_classes,
        )


def aggregate_problem(problem: ReplicaSelectionProblem, *,
                      recorder: Recorder | None = None) -> AggregatedProblem:
    """Build the class structure and reduced instance for ``problem``.

    ``recorder`` times the two steps as ``aggregate.group`` and
    ``aggregate.reduce`` spans.
    """
    rec = recorder if recorder is not None else NULL_RECORDER
    with rec.span("aggregate.group"):
        structure = ClassStructure.from_mask(problem.data.mask,
                                             problem.data.R)
    with rec.span("aggregate.reduce"):
        reduced = ReplicaSelectionProblem(structure.reduce_data(problem.data))
    return AggregatedProblem(original=problem, problem=reduced,
                             structure=structure)


def solve_aggregated(problem: ReplicaSelectionProblem, method: str = "lddm",
                     *, initial: np.ndarray | None = None,
                     mu0: np.ndarray | None = None,
                     recorder: Recorder | None = None, **kwargs) -> Solution:
    """Solve ``problem`` in class space and disaggregate exactly.

    ``method`` is ``"lddm"``, ``"cdpsm"`` or ``"waterfill"``; ``kwargs``
    go to the solver.
    ``initial`` (and, for LDDM, ``mu0``) warm-start the reduced solve and
    must therefore be *class-space* arrays — (K, N) / (K,).  The
    per-iteration cost is O(K*N) regardless of the client count.  The
    returned solution's ``solve_time_s`` covers the whole call
    (reduction + solve + expansion) and ``n_classes`` reports K.
    ``recorder`` goes to the solver and also times the four stages as
    ``aggregate.group`` / ``.reduce`` / ``.solve`` / ``.expand`` spans.
    """
    from time import perf_counter

    from repro.core.cdpsm import CdpsmSolver
    from repro.core.lddm import LddmSolver
    from repro.core.waterfill import WaterfillSolver

    solvers = {"lddm": LddmSolver, "cdpsm": CdpsmSolver,
               "waterfill": WaterfillSolver}
    if method not in solvers:
        raise ValidationError(f"unknown aggregated solver {method!r}")
    if mu0 is not None and method != "lddm":
        raise ValidationError("mu0 applies to the lddm solver only")
    rec = recorder if recorder is not None else NULL_RECORDER
    t0 = perf_counter()
    agg = aggregate_problem(problem, recorder=rec)
    with rec.span("aggregate.solve"):
        solver = solvers[method](agg.problem, recorder=rec, **kwargs)
        if method == "lddm":
            reduced_solution = solver.solve(initial, mu0=mu0)
        else:
            reduced_solution = solver.solve(initial)
    with rec.span("aggregate.expand"):
        solution = agg.expand_solution(reduced_solution)
    solution.solve_time_s = perf_counter() - t0
    return solution

"""The replica-selection problem instance (Sec. III-A, problem (2)).

Bundles :class:`~repro.core.params.ProblemData` with feasibility
certification (bipartite max-flow over the eligibility mask) and common
helpers the solvers share (initial points, objective/gradient, violation
reports).
"""

from __future__ import annotations

import numpy as np
import networkx as nx

from repro.core import model
from repro.core.params import ProblemData
from repro.core.projection import group_rows
from repro.errors import InfeasibleProblemError, ValidationError

__all__ = ["ReplicaSelectionProblem"]

_FLOW_SCALE = 10 ** 6  # max-flow on integers scaled from float loads


class ReplicaSelectionProblem:
    """One instance of the energy-aware replica-selection problem."""

    def __init__(self, data: ProblemData) -> None:
        self.data = data

    # -- feasibility -------------------------------------------------------
    def feasibility_report(self) -> dict:
        """Certify feasibility by max-flow on the class-replica bipartite graph.

        Clients with identical eligibility rows are merged into one source
        node whose capacity is their summed demand — merging sources with
        identical adjacency preserves the max-flow value, so the
        certificate is exact while the graph has at most ``2^N`` client
        nodes regardless of the client count.  Source -> class k with
        capacity ``sum R_c``; class -> replica for every eligible pair
        (unbounded); replica n -> sink with capacity ``B_n``.  The
        instance is feasible iff max-flow equals total demand.
        """
        data = self.data
        orphans = np.nonzero((data.R > 0) & ~data.mask.any(axis=1))[0].tolist()
        first, inverse = group_rows(data.mask)
        patterns = data.mask[first]
        class_demand = np.bincount(inverse, weights=data.R,
                                   minlength=first.size)
        g = nx.DiGraph()
        for k in range(patterns.shape[0]):
            g.add_edge("source", ("class", k),
                       capacity=int(round(class_demand[k] * _FLOW_SCALE)))
            for n in np.nonzero(patterns[k])[0]:
                g.add_edge(("class", k), ("replica", int(n)))  # uncapacitated
        for n in range(data.n_replicas):
            g.add_edge(("replica", n), "sink",
                       capacity=int(round(data.B[n] * _FLOW_SCALE)))
        total = int(round(float(data.R.sum()) * _FLOW_SCALE))
        if total == 0:
            flow = 0
        else:
            flow, _ = nx.maximum_flow(g, "source", "sink")
        feasible = (flow >= total - data.n_clients) and not orphans
        return {
            "feasible": bool(feasible),
            "max_flow": flow / _FLOW_SCALE,
            "total_demand": float(data.R.sum()),
            "orphan_clients": orphans,
            "slack": flow / _FLOW_SCALE - float(data.R.sum()),
        }

    def is_feasible(self) -> bool:
        """True iff a feasible allocation exists."""
        return self.feasibility_report()["feasible"]

    def require_feasible(self) -> None:
        """Raise :class:`InfeasibleProblemError` with a diagnosis if infeasible."""
        report = self.feasibility_report()
        if report["feasible"]:
            return
        if report["orphan_clients"]:
            raise InfeasibleProblemError(
                f"clients {report['orphan_clients']} have positive demand "
                f"but no latency-eligible replica")
        raise InfeasibleProblemError(
            f"total demand {report['total_demand']:g} exceeds reachable "
            f"capacity (max-flow {report['max_flow']:g})")

    # -- helpers shared by solvers -------------------------------------------
    def uniform_allocation(self) -> np.ndarray:
        """Demand spread evenly over each client's eligible replicas.

        Satisfies demand equalities and the mask; may violate capacity
        (solvers project it into their local sets before use).
        """
        data = self.data
        counts = data.mask.sum(axis=1)
        orphaned = (counts == 0) & (data.R > 0)
        if orphaned.any():
            raise InfeasibleProblemError(
                f"client {int(np.nonzero(orphaned)[0][0])} has no "
                f"eligible replica")
        share = np.divide(data.R, counts, out=np.zeros(data.n_clients),
                          where=counts > 0)
        return np.where(data.mask, share[:, None], 0.0)

    def aggregated(self):
        """Class-space reduction of this instance (exact; see
        :mod:`repro.core.aggregate`).

        Returns an :class:`~repro.core.aggregate.AggregatedProblem` whose
        ``problem`` has one super-client per distinct eligibility row;
        solving it and expanding costs O(K*N) per iteration instead of
        O(C*N).
        """
        from repro.core.aggregate import aggregate_problem

        return aggregate_problem(self)

    def objective(self, allocation: np.ndarray) -> float:
        """``E_g`` at an allocation."""
        return model.total_energy(self.data, allocation)

    def gradient(self, allocation: np.ndarray) -> np.ndarray:
        """Gradient of ``E_g`` (masked)."""
        return model.energy_gradient(self.data, allocation)

    def violation(self, allocation: np.ndarray) -> float:
        """Worst constraint violation of an allocation."""
        P = np.asarray(allocation, dtype=float)
        if P.shape != self.data.shape:
            raise ValidationError("allocation shape mismatch")
        demand = float(np.max(np.abs(P.sum(axis=1) - self.data.R),
                              initial=0.0))
        capacity = float(np.max(P.sum(axis=0) - self.data.B, initial=0.0))
        mask = float(np.abs(P[~self.data.mask]).sum())
        negativity = float(-min(P.min(initial=0.0), 0.0))
        return max(demand, capacity, mask, negativity)

    def repair(self, allocation: np.ndarray, sweeps: int = 2000,
               tol: float = 1e-10) -> np.ndarray:
        """Round an approximate solution to a (near-)feasible allocation.

        Alternates exact row-demand projection with proportional column
        scaling onto the capacity caps, ending on the demand projection so
        client demands are met exactly.  Any residual capacity overshoot
        is reported by :meth:`violation` (tests bound it).  The sweep
        budget is sized for tight masked instances, where the
        alternation's geometric rate can be slow — the loop exits as
        soon as no column is over capacity, so easy instances never pay
        for it.
        """
        from repro.core.projection import project_demands

        data = self.data
        x = np.asarray(allocation, dtype=float)
        if x.shape != data.shape:
            raise ValidationError("allocation shape mismatch")
        x = project_demands(x, data.R, data.mask)
        for _ in range(sweeps):
            loads = x.sum(axis=0)
            over = loads > data.B * (1 + tol)
            if not over.any():
                break
            scale = np.where(over, data.B / np.maximum(loads, 1e-300), 1.0)
            x = project_demands(x * scale, data.R, data.mask)
        return x

    def lower_bound_loads(self) -> np.ndarray:
        """Price-greedy fractional relaxation: route all demand to replicas
        in order of marginal cost at zero load, ignoring the mask.

        Used as a sanity lower-bound check in tests (it relaxes latency
        constraints, so any feasible solution costs at least as much when
        the mask is all-True and cannot be cheaper than the relaxation).
        """
        data = self.data
        remaining = float(data.R.sum())
        loads = np.zeros(data.n_replicas)
        base_cost = data.u * data.alpha  # marginal at zero load
        for n in np.argsort(base_cost):
            take = min(remaining, float(data.B[n]))
            loads[n] = take
            remaining -= take
            if remaining <= 0:
                break
        return loads

"""Distributed solve sessions: solver iterations driven over the network.

The numeric iterations come from the matrix-form solvers
(:class:`~repro.core.lddm.LddmSolver` / :class:`~repro.core.cdpsm.CdpsmSolver`
via their ``iterations()`` generators); this module adds what the testbed
adds on top of the math — per-round communication over the simulated
network (real messages with real latencies), local computation time, and
the node activity changes the PDU observes.  The message *pattern* per
iteration is exactly the paper's: all-pairs replica exchange for CDPSM
(``O(|C||N|^3)`` volume), replica<->client exchange for LDDM
(``O(|C||N|)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cluster.node import NodeActivity, ReplicaNode
from repro.core.aggregate import AggregatedProblem
from repro.core.cdpsm import CdpsmSolver
from repro.core.lddm import LddmSolver
from repro.core.problem import ReplicaSelectionProblem
from repro.edr.messages import MsgKind, Ports
from repro.errors import ValidationError
from repro.net.transport import Network
from repro.obs import NULL_RECORDER

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["SolveTimingModel", "SessionCommPlan", "DistributedSolveSession"]

#: Bytes-in-MB of one float share in a coordination message.
_FLOAT_MB = 8e-6


@dataclass(frozen=True)
class SessionCommPlan:
    """Precomputed per-iteration messaging for one solve session.

    The message pattern, pairwise delays and sizes are fixed for a
    session's lifetime (the topology is immutable and the participant
    sets don't change mid-solve), so the endpoint handles, the send list
    and the round's max delay are all computed once at construction —
    the old per-iteration rebuild recomputed ``O(C*N)`` latency/capacity
    lookups on every round.

    ``sends`` holds ``(endpoint, dst, port, kind, size)`` tuples replayed
    verbatim each round; ``round_delay`` is the constant max one-round
    coordination delay.
    """

    sends: tuple
    round_delay: float

    @classmethod
    def build(cls, network: Network, algorithm: str,
              replicas: Sequence[str], clients: Sequence[str],
              n_clients: int, n_replicas: int) -> "SessionCommPlan":
        topo = network.topology
        ep = {name: network.endpoint(name)
              for name in set(replicas) | set(clients)}
        sends = []
        max_delay = 0.0
        if algorithm == "cdpsm":
            # All-pairs solution exchange: C*N floats per message.
            size = n_clients * n_replicas * _FLOAT_MB
            for src in replicas:
                for dst in replicas:
                    if src == dst:
                        continue
                    sends.append((ep[src], dst, Ports.REPLICA,
                                  MsgKind.SOLVE_SYNC, size))
                    delay = topo.latency(src, dst) \
                        + size / min(topo.capacity(src), topo.capacity(dst))
                    max_delay = max(max_delay, delay)
        else:
            # Replica -> client solution rows, client -> replica mu.
            for rep in replicas:
                for cli in clients:
                    if rep == cli:
                        continue
                    sends.append((ep[rep], cli, "solve",
                                  MsgKind.SOLUTION, _FLOAT_MB))
                    sends.append((ep[cli], rep, Ports.REPLICA,
                                  MsgKind.MU_UPDATE, _FLOAT_MB))
                    delay = 2 * topo.latency(rep, cli) \
                        + 2 * _FLOAT_MB / min(topo.capacity(rep),
                                              topo.capacity(cli))
                    max_delay = max(max_delay, delay)
        return cls(sends=tuple(sends), round_delay=max_delay)


@dataclass(frozen=True)
class SolveTimingModel:
    """Computation-time model for one solver iteration on one replica.

    ``per_client`` dominates: each local solve touches every client's
    variable (subproblem KKT for LDDM, projection rows for CDPSM), so the
    per-iteration CPU time grows linearly in the batch size — this is what
    makes Fig. 9's response time scale near-linearly in request count.
    CDPSM's constants are higher (Dykstra projection plus full-matrix
    consensus handling), matching its measured "higher workload intensity".
    """

    base: float = 2e-4            # fixed per-iteration overhead (s)
    per_client: float = 2e-5      # s per client per iteration
    cdpsm_factor: float = 3.0     # CDPSM's extra local work multiplier
    event_base: float = 1e-5      # fixed per-event-update overhead (s)
    per_event: float = 5e-6       # s per class-demand change applied
    per_sweep: float = 5e-6       # s per Gauss-Seidel refinement sweep

    def iteration_time(self, n_clients: int, algorithm: str) -> float:
        """Local computation seconds for one iteration."""
        t = self.base + self.per_client * n_clients
        if algorithm == "cdpsm":
            t *= self.cdpsm_factor
        return t

    def event_time(self, events: int, sweeps: int) -> float:
        """Local computation seconds for one incremental event update.

        The update is O(sweeps * K * N) on the lead replica — no
        per-iteration network rounds, which is why the event path's
        decision latency sits orders of magnitude under a batch solve's.
        """
        return self.event_base + self.per_event * events \
            + self.per_sweep * sweeps

    def round_time(self, max_shard_rows: int, lan_latency: float) -> float:
        """Wall seconds one sharded dual-price exchange round charges.

        Shards best-respond concurrently, so a round's compute cost is
        the *widest* shard's batched water-fill and polish — charged at
        the per-client iteration rate over that shard's class rows —
        plus one broadcast/gather round trip to the coordinator.
        """
        return 2.0 * lan_latency + self.base \
            + self.per_client * max(int(max_shard_rows), 0)


class DistributedSolveSession:
    """One batched replica-selection solve executed over the network.

    Parameters
    ----------
    sim, network: the substrate.
    problem: the batch's optimization instance (columns = live replicas).
    replica_names: node names of the live replicas (column order).
    client_names: node names of the batch's clients (row order).
    algorithm: ``"lddm"`` or ``"cdpsm"``.
    nodes: the emulated nodes, for activity/power bookkeeping.
    timing: per-iteration computation model.
    aggregation: optional class-space reduction of ``problem``
        (:class:`~repro.core.aggregate.AggregatedProblem`).  When given,
        the numeric iterations run on the reduced K-row instance —
        O(K*N) local work per round instead of O(C*N) — while the
        communication plan keeps the paper's per-client message pattern
        (every client still sends/receives its rows; aggregation is a
        local-computation optimization, not a protocol change).  The
        client-space allocation is expanded lazily on first read of
        :attr:`allocation`; ``solver_allocation`` holds the K-row result.
    initial: optional warm-start allocation (feasible, same shape as the
        *solved* instance — class space when ``aggregation`` is given) —
        typically the previous batch's projected solution from
        :mod:`repro.core.warmstart`.
    mu0: optional warm-start LDDM multipliers (one per solved row;
        ignored by CDPSM).
    recorder: optional :class:`~repro.obs.Recorder`; threaded into the
        underlying solver (per-iteration events) and given one
        ``session.solve`` event per run with the simulated-time duration
        and the session's exact message/byte totals.
    solver_kwargs: forwarded to the underlying solver.

    After :meth:`run` finishes, ``converged`` reports whether the solver's
    stopping rule fired within its budget and ``final_mu`` (LDDM only)
    holds the final multipliers — the state the runtime caches for the
    next batch's warm start (class-space when aggregating).
    """

    def __init__(self, sim: "Simulator", network: Network,
                 problem: ReplicaSelectionProblem,
                 replica_names: Sequence[str],
                 client_names: Sequence[str],
                 algorithm: str,
                 nodes: dict[str, ReplicaNode] | None = None,
                 timing: SolveTimingModel | None = None,
                 aggregation: AggregatedProblem | None = None,
                 initial: np.ndarray | None = None,
                 mu0: np.ndarray | None = None,
                 recorder=None,
                 **solver_kwargs) -> None:
        if algorithm not in ("lddm", "cdpsm"):
            raise ValidationError(f"unknown algorithm {algorithm!r}")
        if len(replica_names) != problem.data.n_replicas:
            raise ValidationError("replica_names length mismatch")
        if len(client_names) != problem.data.n_clients:
            raise ValidationError("client_names length mismatch")
        if aggregation is not None \
                and aggregation.structure.class_of_client.shape[0] \
                != problem.data.n_clients:
            raise ValidationError("aggregation does not match problem rows")
        self.sim = sim
        self.network = network
        self.problem = problem
        self.aggregation = aggregation
        self._solve_problem = problem if aggregation is None \
            else aggregation.problem
        self.replicas = list(replica_names)
        self.clients = list(client_names)
        self.algorithm = algorithm
        self.nodes = nodes or {}
        self.timing = timing or SolveTimingModel()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        solver_kwargs.setdefault("recorder", self.recorder)
        if algorithm == "lddm":
            self.solver = LddmSolver(self._solve_problem,
                                     track_objective=False, **solver_kwargs)
        else:
            self.solver = CdpsmSolver(self._solve_problem,
                                      track_objective=False, **solver_kwargs)
        C, N = problem.data.shape
        self.comm_plan = SessionCommPlan.build(
            network, algorithm, self.replicas, self.clients, C, N)
        self.initial = None if initial is None \
            else np.asarray(initial, dtype=float)
        self.mu0 = None if mu0 is None else np.asarray(mu0, dtype=float)
        # Results, populated by run():
        self.solver_allocation: np.ndarray | None = None
        self._allocation: np.ndarray | None = None
        self.iterations = 0
        self.duration = 0.0
        self.converged = False
        self.final_mu: np.ndarray | None = None

    @property
    def allocation(self) -> np.ndarray | None:
        """The client-space allocation, expanded lazily.

        In aggregated mode the solve produces only the K-row
        ``solver_allocation``; the full (C, N) matrix is materialized on
        first read — sessions whose per-client splits are never inspected
        never build it.
        """
        if self._allocation is None and self.solver_allocation is not None:
            if self.aggregation is None:
                self._allocation = self.solver_allocation
            else:
                self._allocation = self.aggregation.structure.expand_rows(
                    self.solver_allocation)
        return self._allocation

    # -- communication rounds ---------------------------------------------------
    def _round_messages(self) -> float:
        """Send one iteration's coordination messages; return max delay."""
        for ep, dst, port, kind, size in self.comm_plan.sends:
            ep.send(dst, port, kind, payload=None, size=size)
        return self.comm_plan.round_delay

    def _set_activity(self, activity: NodeActivity) -> None:
        for name in self.replicas:
            node = self.nodes.get(name)
            if node is not None:
                node.set_activity(activity, now=self.sim.now)
                if self.algorithm == "cdpsm" \
                        and activity is NodeActivity.SELECTING:
                    # Continuous all-pairs coordination keeps extra cores
                    # busy (observed as CDPSM's higher average power).
                    node.set_cpu_overlay(0.15)
                elif activity is not NodeActivity.SELECTING:
                    node.set_cpu_overlay(0.0)

    # -- the session process -------------------------------------------------------
    def run(self):
        """Simulated process: run the solve, leave results on ``self``."""
        start = self.sim.now
        self._set_activity(NodeActivity.SELECTING)
        # Local per-iteration work is proportional to the number of rows
        # the solver actually touches — K classes when aggregating.
        rows = self._solve_problem.data.n_clients
        candidate = self.initial if self.initial is not None \
            else self._solve_problem.uniform_allocation()
        if self.algorithm == "lddm":
            steps = self.solver.iterations(self.initial, mu0=self.mu0)
        else:
            steps = self.solver.iterations(self.initial)
        try:
            for k, candidate, _metric in steps:
                self.iterations = k + 1
                comm_delay = self._round_messages()
                compute = self.timing.iteration_time(rows, self.algorithm)
                yield self.sim.timeout(compute + comm_delay)
        finally:
            self._set_activity(NodeActivity.IDLE)
        self.converged = self.solver.converged_
        self.final_mu = getattr(self.solver, "mu_", None)
        self.solver_allocation = self._solve_problem.repair(candidate)
        self._allocation = None
        self.duration = self.sim.now - start
        rec = self.recorder
        if rec.enabled:
            C, N = self.problem.data.shape
            round_mb = sum(s[4] for s in self.comm_plan.sends)
            rec.event(
                "session.solve", algorithm=self.algorithm, rows=rows,
                n_clients=C, n_replicas=N, iterations=self.iterations,
                converged=self.converged, sim_start=start,
                sim_duration=self.duration,
                messages=self.iterations * len(self.comm_plan.sends),
                mb=self.iterations * round_mb,
                msgs_per_round=len(self.comm_plan.sends),
                mb_per_round=round_mb)
        return self.solver_allocation

"""DONAR runtime for the Fig. 9 head-to-head.

The batching loop of :class:`~repro.edr.system.EDRSystem` (one
:class:`~repro.edr.system.BatchingRuntime`) with DONAR's architecture:
dedicated *mapping nodes* (not the replicas) receive client requests and
run DONAR's decomposition among themselves, then hand each client its
split.  Replicas only serve files.  Response-time semantics match EDR's:
request issued -> decision received.

It reads the scenario fields of :class:`~repro.edr.system.RuntimeConfig`
it shares with EDR: ``prices`` (for the replica count only), ``net``,
``poll_interval``, ``batch_capacity_fraction``, ``horizon`` and
``solver.timing``.

The numeric solve runs via :class:`~repro.baselines.donar.DonarSolver`;
each Gauss-Seidel sweep costs one round of mapping-node aggregate
exchanges (real messages) plus local computation proportional to the
batch's client count, exactly parallel to how EDR's sessions are timed.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.donar import DonarSolver
from repro.core.projection import project_demands
from repro.edr.messages import MsgKind, Ports
from repro.edr.system import BatchingRuntime, RuntimeConfig
from repro.metrics.report import ExperimentResult
from repro.workload.requests import RequestTrace

__all__ = ["DonarRuntime", "N_MAPPING_NODES", "MIN_ROUNDS"]

#: DONAR mapping nodes, as in the paper's Fig. 9 setup.
N_MAPPING_NODES = 3
#: Floor on coordination rounds per batch: a *distributed* system cannot
#: detect convergence instantly — DONAR's mapping nodes keep exchanging
#: aggregates for a few rounds after the solution settles.
MIN_ROUNDS = 10


class DonarRuntime(BatchingRuntime):
    """DONAR mapping-node runtime over the same substrate as EDR."""

    def __init__(self, trace: RequestTrace,
                 config: RuntimeConfig | None = None) -> None:
        self.mapping_names = [f"mapper{i + 1}"
                              for i in range(N_MAPPING_NODES)]
        super().__init__(trace, config, extra_nodes=self.mapping_names)
        self._start_clients(lambda: self.mapping_names[:1])
        self.sim.process(self._intake_loop())
        self._start_driver()

    def _intake_loop(self):
        """Lead mapping node's request intake."""
        ep = self.network.endpoint(self.mapping_names[0])
        while True:
            msg = yield ep.recv(Ports.CLIENT)
            if msg.kind == MsgKind.REQUEST:
                self._batch.append(dict(msg.payload))

    def _decide(self, chunk: list[dict]):
        cfg = self.config
        live = self.replica_names
        clients, demands = self._chunk_demands(chunk)
        demand = np.array([demands[c] for c in clients])
        capacity = self._live_bandwidths()
        cost = np.array([[self.topology.latency(c, r) for r in live]
                         for c in clients])
        mask = self.topology.eligibility(clients, live, cfg.net.max_latency)
        solver = DonarSolver(cost, demand, capacity, mask=mask,
                             n_mapping_nodes=N_MAPPING_NODES)
        # One communication round per Gauss-Seidel sweep: mapping nodes
        # exchange their per-replica aggregates, then compute locally.
        # The numeric sweeps come from the solver's generator so the
        # simulation timing and the math advance in lockstep.
        eps = {m: self.network.endpoint(m) for m in self.mapping_names}
        pair_delay = max(
            (self.topology.latency(a, b)
             for a in self.mapping_names for b in self.mapping_names
             if a != b), default=0.0)
        n_floats_mb = len(live) * 8e-6

        def one_round():
            for src in self.mapping_names:
                for dst in self.mapping_names:
                    if src != dst:
                        eps[src].send(dst, Ports.REPLICA, MsgKind.SOLVE_SYNC,
                                      size=n_floats_mb)
            return cfg.solver.timing.iteration_time(len(clients), "donar") \
                + pair_delay

        allocation = None
        rounds = 0
        for _k, P, _obj in solver.sweeps_iter():
            allocation = P
            rounds += 1
            yield self.sim.timeout(one_round())
        # A distributed system needs extra quiet rounds to *detect*
        # convergence; pad up to the floor.
        for _ in range(max(0, MIN_ROUNDS - rounds)):
            yield self.sim.timeout(one_round())
        allocation = np.array(allocation, dtype=float)
        # Final capacity rounding, as in DonarSolver.solve().
        loads = allocation.sum(axis=0)
        over = loads > capacity
        if over.any():
            scale = np.where(over, capacity / np.maximum(loads, 1e-300), 1.0)
            allocation = project_demands(allocation * scale, demand, mask)
        # DONAR hands out its split as solved: no sliver pruning.
        self._announce(self._shares_per_request(
            chunk, clients, demands, allocation, live, 0.0),
            self.mapping_names[0])

    def run(self, app: str = "unknown") -> ExperimentResult:
        """Run to completion; returns the measured result."""
        self._run_to_completion()
        n = len(self.replica_names)
        return ExperimentResult(
            method="donar", app=app,
            joules_by_replica=np.zeros(n),  # DONAR runtime: perf-only run
            cents_by_replica=np.zeros(n),
            makespan=self.sim.now,
            response_times=list(self.stats.samples),
            extras={
                "messages": self.network.messages_sent,
                "batches": self._batches,
                "delivered_mb": self._delivered_mb,
            })

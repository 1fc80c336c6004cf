"""EDRSystem: the full runtime wired together.

Builds the emulated cluster (nodes + PDUs + prices), the network, the
replica servers and client agents, then drives batched replica selection
with the configured algorithm (LDDM / CDPSM / Round-Robin) until every
request in the trace has been served.  Returns an
:class:`~repro.metrics.report.ExperimentResult` with per-replica energy
and cost, the makespan, and per-request response times — the raw material
for Figs. 3, 4, 6, 7, 8 and 9.  The batching loop itself is
:class:`BatchingRuntime`, which Fig. 9's DONAR runtime shares.

Harness notes (see DESIGN.md §5): clients broadcast requests to all live
replicas exactly as in the paper; the *lead* (first live) replica's intake
feeds the batch queue, and final ASSIGN decisions are announced by the
lead on behalf of the group.  The solve itself exchanges per-iteration
messages with the paper's exact pattern and counts via
:class:`~repro.edr.scheduler.DistributedSolveSession`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.baselines.round_robin import RoundRobinScheduler
from repro.cluster.datacenter import ReplicaSite
from repro.cluster.node import NodeActivity, ReplicaNode
from repro.cluster.pdu import PowerSampler
from repro.cluster.power import SYSTEMG_POWER_MODEL, PowerModel
from repro.cluster.pricing import JOULES_PER_KWH, PriceSchedule
from repro.core.params import (
    PAPER_ALPHA,
    PAPER_BETA,
    PAPER_GAMMA,
    PAPER_MAX_LATENCY,
    ProblemData,
)
from repro.core.problem import ReplicaSelectionProblem
from repro.core.warmstart import (
    AdaptiveBudget,
    WarmStartCache,
    project_warm_start,
    recover_mu,
)
from repro.edr.client import ClientAgent
from repro.edr.coordinator import ShardCoordinator, ShardingConfig
from repro.edr.membership import HeartbeatProtocol, MembershipRing
from repro.edr.messages import MsgKind, Ports
from repro.edr.scheduler import DistributedSolveSession, SolveTimingModel
from repro.edr.server import ReplicaServer
from repro.errors import SimulationError, ValidationError
from repro.metrics.latency import ResponseTimeStats
from repro.metrics.report import ExperimentResult
from repro.net.faults import FaultInjector
from repro.net.flows import FlowManager
from repro.net.topology import Topology
from repro.net.transport import Network
from repro.obs import NULL_RECORDER
from repro.sim.engine import Simulator
from repro.workload.requests import Request, RequestTrace

__all__ = ["SolverOptions", "NetConfig", "FaultConfig", "RuntimeConfig",
           "BatchingRuntime", "EDRSystem"]


#: Capacity of the cross-batch warm-start cache (converged allocations
#: keyed by live replicas and prices).
_WARM_CACHE_ENTRIES = 32


@dataclass
class SolverOptions:
    """Scheduling/solver knobs: which algorithm runs and how hard.

    One of :class:`RuntimeConfig`'s three composable sub-configs (with
    :class:`NetConfig` and :class:`FaultConfig`; the fourth,
    :class:`~repro.edr.coordinator.ShardingConfig`, nests under
    :attr:`sharding`).
    """

    #: "lddm" | "cdpsm" | "round_robin" | "weighted"
    algorithm: str = "lddm"
    timing: SolveTimingModel = field(default_factory=SolveTimingModel)
    #: Solve each sub-batch in eligibility-class space (one super-client
    #: per distinct latency-mask row; see :mod:`repro.core.aggregate`).
    #: The reduction is exact — identical objective and per-client
    #: constraint satisfaction — while per-iteration local work drops
    #: from O(C*N) to O(K*N), and warm-start entries become keyed by
    #: class (so they survive client churn).  The per-iteration message
    #: pattern over the network is unchanged.
    aggregate: bool = True
    #: Warm-start each sub-batch solve from the previous round's projected
    #: solution (same live replicas and prices; see
    #: :mod:`repro.core.warmstart`).  Membership changes invalidate the
    #: cache, falling back to a cold start.  The per-batch iteration
    #: budget shrinks adaptively while warm solves keep converging early
    #: (and resets to the full budget the moment one does not).
    warm_start: bool = True
    #: Event plane (see :mod:`repro.core.incremental` and
    #: :mod:`repro.edr.coordinator`): every batch solve arms a
    #: :class:`~repro.edr.coordinator.ShardCoordinator` with its
    #: converged class-space rows, and small sub-batches are absorbed by
    #: retargeting those rows one class-demand delta at a time on the
    #: lead replica — no per-iteration network rounds — falling back to
    #: the batch solve (which re-arms the plane) when the plane declines
    #: (capacity, drift, convergence) or is keyed to different live
    #: replicas / prices.  Requires ``aggregate=True`` (the plane lives
    #: in class space).
    incremental: bool = False
    #: Sub-batches with at most this many distinct clients route through
    #: the event plane; larger ones take the batch solve (their demand
    #: shift is no longer a small perturbation).
    incremental_max_clients: int = 4
    #: Shard layout of the event plane (classes partition across solve
    #: shards; see :mod:`repro.edr.coordinator`).  Setting it turns the
    #: event plane on; ``None`` with ``incremental=True`` is one shard.
    #: Requires ``aggregate=True`` and ``algorithm="lddm"``.
    sharding: "ShardingConfig | None" = None
    #: For ``algorithm="weighted"``: fixed per-replica split weights
    #: (normalized internally).  A static, oblivious scheduler — used by
    #: the planning-model validation experiment and as an extra baseline.
    weights: Sequence[float] | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ("lddm", "cdpsm", "round_robin",
                                  "weighted"):
            raise ValidationError(f"unknown algorithm {self.algorithm!r}")
        if self.incremental and not self.aggregate:
            raise ValidationError(
                "incremental=True requires aggregate=True (the event "
                "state lives in eligibility-class space)")
        if (self.incremental or self.sharding is not None) \
                and self.incremental_max_clients < 1:
            raise ValidationError("incremental_max_clients must be >= 1")
        if self.sharding is not None:
            if not self.aggregate:
                raise ValidationError(
                    "sharding requires aggregate=True (shards own "
                    "eligibility-class slices)")
            if self.algorithm != "lddm":
                raise ValidationError(
                    "sharding currently implements the LDDM-style "
                    "dual-price plane only")


@dataclass
class NetConfig:
    """Data-plane knobs: link capacities, latency bounds, flow engine."""

    #: MB/s per node (SystemG Ethernet).
    bandwidth: float = 100.0
    #: Optional per-replica NIC capacities (MB/s); overrides ``bandwidth``
    #: for the replicas (clients keep ``bandwidth``).  The paper's testbed
    #: is homogeneous; heterogeneous clusters are the common real case.
    bandwidths: Sequence[float] | None = None
    lan_latency: float = 0.0005      # one-way propagation (s)
    max_latency: float = PAPER_MAX_LATENCY   # the paper's T
    #: Coalesce each ASSIGN batch's downloads per (replica, client) pair
    #: into one weighted aggregate flow (weight = live request
    #: multiplicity; see :class:`~repro.net.flows.AggregateFlow`).  Exact
    #: under max-min fairness — every request completes at the instant
    #: its own flow would have — while the flow table and fair-share
    #: recompute scale with (replica, client) pairs per epoch instead of
    #: requests.  ``False`` restores one flow per request (the legacy
    #: data-plane cost profile, used by parity benches).
    coalesce: bool = True
    #: Fair-share allocator inside the :class:`~repro.net.flows.
    #: FlowManager`: ``"vector"`` (default) runs the numpy progressive-
    #: filling kernel over flat arrays; ``"scalar"`` keeps the dict-based
    #: oracle in the loop.
    flow_kernel: str = "vector"
    #: Drop per-request shares below this fraction of the request size and
    #: redistribute them over the kept replicas.  Slivers of a few MB keep
    #: a replica's execution window open for an entire download at almost
    #: no throughput benefit; the paper's clients open one download thread
    #: per *meaningfully loaded* replica.
    min_share_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.flow_kernel not in ("vector", "scalar"):
            raise ValidationError(f"unknown flow kernel {self.flow_kernel!r}")
        if self.bandwidths is not None and min(self.bandwidths) <= 0:
            raise ValidationError("bandwidths must be positive")


@dataclass
class FaultConfig:
    """Failure-detection and power-state knobs."""

    #: Run the ring failure detector (heartbeats over the transport).
    heartbeats: bool = False
    hb_interval: float = 0.05
    hb_timeout: float = 0.25
    #: Standby extension: replicas idle for this many seconds drop into a
    #: deep low-power state (``ReplicaNode.standby_w`` watts) until new
    #: work arrives.  ``None`` disables (the paper's setup: machines on
    #: 24x7, which its related-work section calls out as the waste).
    standby_after: float | None = None

    def __post_init__(self) -> None:
        if self.standby_after is not None and self.standby_after <= 0:
            raise ValidationError("standby_after must be positive")


@dataclass(kw_only=True, eq=False)
class RuntimeConfig:
    """Scenario knobs for one runtime experiment.

    Composed of the three sub-configs::

        RuntimeConfig(solver=SolverOptions(algorithm="cdpsm"),
                      net=NetConfig(bandwidth=50.0),
                      faults=FaultConfig(heartbeats=True),
                      prices=(1, 8, 1))

    plus the scenario-level fields below.

    * ``prices`` — per-replica electricity prices (also fixes N);
    * ``alpha``/``beta``/``gamma`` — the paper's energy-model constants;
    * ``power_model``, ``pdu_rate_hz`` — metering;
    * ``poll_interval``, ``batch_capacity_fraction`` — batching driver;
    * ``price_schedule``, ``solve_with_stale_prices`` — dynamic tariffs
      (when set, each batch is solved at the prices in force at schedule
      time unless ``solve_with_stale_prices`` keeps the static vector);
    * ``recorder`` — optional :class:`~repro.obs.Recorder` threaded
      through the whole runtime (``None`` = shared no-op recorder;
      tracing requires serial ``jobs=1`` sweeps);
    * ``horizon`` — safety cap on simulated seconds.
    """

    solver: SolverOptions = field(default_factory=SolverOptions)
    net: NetConfig = field(default_factory=NetConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    prices: Sequence[float] = (1, 8, 1, 6, 1, 5, 2, 3)
    alpha: float = PAPER_ALPHA
    beta: float = PAPER_BETA
    gamma: float = PAPER_GAMMA
    power_model: PowerModel = SYSTEMG_POWER_MODEL
    pdu_rate_hz: float = 50.0
    poll_interval: float = 0.02
    batch_capacity_fraction: float = 0.8
    price_schedule: "PriceSchedule | None" = None
    solve_with_stale_prices: bool = False
    recorder: "object | None" = None
    horizon: float = 100000.0

    def __post_init__(self) -> None:
        """Cross-field checks spanning sub-configs and scenario fields."""
        # Private copies: configs built from one SolverOptions/NetConfig
        # instance stay independent (a non-dataclass here is a TypeError).
        self.solver = dataclasses.replace(self.solver)
        self.net = dataclasses.replace(self.net)
        self.faults = dataclasses.replace(self.faults)
        solver, net = self.solver, self.net
        if solver.algorithm == "weighted":
            if solver.weights is None \
                    or len(solver.weights) != len(self.prices):
                raise ValidationError(
                    "weighted scheduling needs one weight per replica")
            if min(solver.weights) < 0 or sum(solver.weights) <= 0:
                raise ValidationError("weights must be nonnegative, not all 0")
        if not 0 < self.batch_capacity_fraction <= 1:
            raise ValidationError("batch_capacity_fraction must be in (0, 1]")
        if self.price_schedule is not None \
                and self.price_schedule.n_replicas != len(self.prices):
            raise ValidationError(
                "price_schedule replica count must match prices length")
        if net.bandwidths is not None \
                and len(net.bandwidths) != len(self.prices):
            raise ValidationError(
                "bandwidths must have one entry per replica")

    def replica_bandwidths(self):
        """Per-replica NIC capacities as an array."""
        if self.net.bandwidths is not None:
            return np.asarray(self.net.bandwidths, dtype=float)
        return np.full(len(self.prices), float(self.net.bandwidth))

    def prices_at(self, t: float):
        """Per-replica prices the *scheduler* sees at simulated time ``t``."""
        if self.price_schedule is not None and not self.solve_with_stale_prices:
            return self.price_schedule.prices_at(t)
        return np.asarray(self.prices, dtype=float)


class BatchingRuntime:
    """The batching loop: intake -> capacity chunks -> decide -> announce.

    Shared by :class:`EDRSystem` and
    :class:`~repro.edr.donar_runtime.DonarRuntime`.  The base wires the
    simulator, the LAN (replicas, then ``extra_nodes``, then clients),
    the network and the flow manager.  A subclass wires its own agents,
    then starts the trace's clients (:meth:`_start_clients`) and the
    epoch driver (:meth:`_start_driver`) in the order its simulator
    processes must start; its intake appends requests to ``_batch``, and
    its ``_decide(chunk)`` generator spends the decision's simulated
    time and ends in :meth:`_announce`.
    """

    def __init__(self, trace: RequestTrace, config: RuntimeConfig | None,
                 n_replicas: int | None = None,
                 topology: Topology | None = None,
                 extra_nodes: Sequence[str] = ()) -> None:
        self.config = config or RuntimeConfig()
        cfg = self.config
        self.recorder = cfg.recorder if cfg.recorder is not None \
            else NULL_RECORDER
        self.trace = trace
        n_rep = n_replicas if n_replicas is not None else len(cfg.prices)
        if len(cfg.prices) != n_rep:
            raise ValidationError("prices length must match replica count")
        self.replica_names = [f"replica{i + 1}" for i in range(n_rep)]
        self.client_names = list(trace.clients)
        if not self.client_names:
            raise ValidationError("trace has no requests")

        self.sim = Simulator()
        all_nodes = self.replica_names + list(extra_nodes) \
            + self.client_names
        if topology is not None:
            self.topology = topology
        elif cfg.net.bandwidths is None:
            self.topology = Topology.lan(
                all_nodes, latency=cfg.net.lan_latency,
                capacity=cfg.net.bandwidth)
        else:
            n_all = len(all_nodes)
            lat = np.full((n_all, n_all), float(cfg.net.lan_latency))
            np.fill_diagonal(lat, 0.0)
            caps = np.concatenate([cfg.replica_bandwidths(),
                                   np.full(n_all - n_rep,
                                           float(cfg.net.bandwidth))])
            self.topology = Topology(all_nodes, lat, caps)
        self.network = Network(self.sim, self.topology,
                               recorder=self.recorder)
        self.flows = FlowManager(self.sim, self.topology,
                                 crashed=self.network.is_crashed,
                                 kernel=cfg.net.flow_kernel,
                                 recorder=self.recorder)
        self.stats = ResponseTimeStats()
        self._batch: list[dict] = []
        self._batches = 0
        self._delivered_mb = 0.0

    def _start_clients(self, live_replicas, on_transfer_event=None) -> None:
        """One :class:`ClientAgent` per trace client; each broadcasts its
        requests to ``live_replicas()``."""
        by_client = {c: [] for c in self.client_names}
        for req in self.trace:
            by_client[req.client].append(req)
        self.clients: dict[str, ClientAgent] = {
            cname: ClientAgent(
                self.sim, self.network, self.flows, cname,
                by_client[cname], live_replicas=live_replicas,
                stats=self.stats, on_transfer_event=on_transfer_event,
                on_delivered=self._on_delivered,
                coalesce=self.config.net.coalesce, recorder=self.recorder)
            for cname in self.client_names}

    def _start_driver(self) -> None:
        self._driver = self.sim.process(self._drive())

    def _on_delivered(self, _client: str, mb: float) -> None:
        self._delivered_mb += mb

    def _live(self) -> list[str]:
        """Replicas a decision may load, in ring order."""
        return self.replica_names

    def _live_bandwidths(self) -> np.ndarray:
        """NIC capacities of the live replicas, in ring order."""
        bw = self.config.replica_bandwidths()
        return np.array([bw[self.replica_names.index(r)]
                         for r in self._live()])

    def _sub_batches(self, batch: list[dict]) -> list[list[dict]]:
        """Split a batch so each chunk's demand fits live capacity."""
        live_bw = self._live_bandwidths()
        cap = self.config.batch_capacity_fraction \
            * float(live_bw.sum() if live_bw.size else
                    self.config.net.bandwidth)
        chunks: list[list[dict]] = []
        current: list[dict] = []
        load = 0.0
        for item in batch:
            if current and load + item["size"] > cap:
                chunks.append(current)
                current, load = [], 0.0
            current.append(item)
            load += item["size"]
        if current:
            chunks.append(current)
        return chunks

    @staticmethod
    def _chunk_demands(chunk: list[dict]
                       ) -> tuple[list[str], dict[str, float]]:
        """A chunk's clients, sorted, and each one's summed request sizes."""
        demands: dict[str, float] = {}
        for item in chunk:
            demands[item["client"]] = demands.get(item["client"], 0.0) \
                + item["size"]
        return sorted(demands), demands

    @staticmethod
    def _shares_per_request(chunk, clients, demands, allocation, live,
                            min_frac: float) -> dict[str, dict]:
        """Split per-client allocations back to per-request shares.

        Shares smaller than ``min_frac`` of the request are dropped and
        their mass redistributed proportionally over the kept replicas
        (``0.0`` keeps every share).
        """
        out: dict[str, dict] = {}
        for item in chunk:
            c_idx = clients.index(item["client"])
            frac = item["size"] / demands[item["client"]]
            raw = {live[n]: float(allocation[c_idx, n]) * frac
                   for n in range(len(live))
                   if allocation[c_idx, n] * frac > 1e-12}
            total = sum(raw.values())
            kept = {r: v for r, v in raw.items()
                    if v >= min_frac * item["size"]}
            if not kept:  # degenerate: keep the single largest share
                best = max(raw, key=raw.get)
                kept = {best: raw[best]}
            scale = total / sum(kept.values())
            shares = {r: v * scale for r, v in kept.items()}
            out[item["uid"]] = {"client": item["client"], "shares": shares}
        return out

    # -- the epoch driver ---------------------------------------------------------
    def _drive(self):
        cfg = self.config
        total_mb = self.trace.total_mb()
        while True:
            if self._batch:
                batch, self._batch = self._batch, []
                for chunk in self._sub_batches(batch):
                    yield from self._decide(chunk)
                continue
            done = (self.stats.pending == 0
                    and len(self.flows.active) == 0
                    and self._delivered_mb >= total_mb - 1e-6
                    and all(not c._issuer.is_alive
                            for c in self.clients.values()))
            if done:
                return
            yield self.sim.timeout(cfg.poll_interval)

    def _announce(self, assignments: dict, sender: str) -> None:
        """Send a chunk's ASSIGN decisions from node ``sender``."""
        self._batches += 1
        if self.recorder.enabled:
            self.recorder.count("runtime.batches")
        endpoint = self.network.endpoint(sender)
        per_client: dict[str, dict] = {}
        for uid, entry in assignments.items():
            per_client.setdefault(entry["client"], {})[uid] = entry["shares"]
        for cname, shares in per_client.items():
            payload = {"batch": self._batches, "shares": shares}
            if self.config.net.coalesce:
                # Pre-group per source replica: the client opens one
                # aggregate download per entry.
                by_replica: dict[str, list] = {}
                for uid, req_shares in shares.items():
                    for replica, amount in req_shares.items():
                        if amount > 0:
                            by_replica.setdefault(replica, []).append(
                                (uid, amount))
                payload["by_replica"] = by_replica
            endpoint.send(cname, Ports.ASSIGN, MsgKind.ASSIGN,
                          payload=payload, size=1e-4)

    def _run_to_completion(self) -> None:
        """Step until the driver finishes, within ``horizon``."""
        cfg = self.config
        # Background processes (PDUs, heartbeats) tick forever, so a
        # plain sim.run() would never drain the queue.
        while not self._driver.processed and self.sim.peek() <= cfg.horizon:
            self.sim.step()
        if not self._driver.triggered:
            raise SimulationError(
                f"run did not complete within horizon={cfg.horizon}s "
                f"(delivered {self._delivered_mb:.1f} MB of "
                f"{self.trace.total_mb():.1f})")


class EDRSystem(BatchingRuntime):
    """One fully wired runtime scenario."""

    def __init__(self, trace: RequestTrace, config: RuntimeConfig | None = None,
                 n_replicas: int | None = None,
                 topology: Topology | None = None) -> None:
        super().__init__(trace, config, n_replicas, topology)
        cfg = self.config
        opts = cfg.solver
        self.faults = FaultInjector(self.sim, self.network, self.flows,
                                    on_restore=self._on_node_restored)

        # -- cluster -----------------------------------------------------------
        self.nodes: dict[str, ReplicaNode] = {}
        self.sites: list[ReplicaSite] = []
        for i, name in enumerate(self.replica_names):
            node = ReplicaNode(
                name, cfg.power_model,
                net_probe=(lambda n=name: self.flows.utilization(n)))
            self.nodes[name] = node
            meter = PowerSampler(self.sim, node, rate_hz=cfg.pdu_rate_hz)
            self.sites.append(ReplicaSite(
                node=node, meter=meter,
                price_cents_per_kwh=float(cfg.prices[i]), index=i))

        # -- membership --------------------------------------------------------
        self.ring = MembershipRing(list(self.replica_names),
                                   recorder=self.recorder)
        self.heartbeats = None
        if cfg.faults.heartbeats:
            self.heartbeats = HeartbeatProtocol(
                self.sim, self.network, self.ring,
                interval=cfg.faults.hb_interval,
                timeout=cfg.faults.hb_timeout)

        # -- agents -------------------------------------------------------------
        self.servers: dict[str, ReplicaServer] = {}
        for name in self.replica_names:
            server = ReplicaServer(self.sim, self.network, self.nodes[name],
                                   on_request=self._on_request)
            self.servers[name] = server
            self.faults.register_process(name, server._listener)
        self._transferred_mb: dict[str, float] = {}
        self._start_clients(lambda: self.ring.live,
                            on_transfer_event=self._on_transfer_event)
        self._solve_time_total = 0.0
        self._solve_iterations = 0
        # Per-replica execution windows (paper accounting: each replica's
        # energy is integrated until *it* finishes its work — selection
        # rounds plus its own transfers; see Figs. 3-4 where per-replica
        # execution times differ and unselected replicas stay short/low).
        self._busy_end: dict[str, float] = {n: 0.0 for n in self.replica_names}
        # Persistent round-robin state (only used by that algorithm): the
        # cursor and in-flight commitments live across batches.
        self._rr_sched: RoundRobinScheduler | None = None
        # Cross-batch warm-start state (LDDM/CDPSM): cache of converged
        # allocations + duals, the adaptive iteration budget, and the live
        # set the cache was built against (membership change -> flush).
        self._warm_cache = WarmStartCache(max_entries=_WARM_CACHE_ENTRIES)
        self._warm_budget = AdaptiveBudget()
        self._warm_live: tuple[str, ...] = tuple(self.ring.live)
        self._warm_solves = 0
        self._cold_solves = 0
        # The event plane: one coordinator (one shard unless ``sharding``
        # lays out more) armed from every batch solve's class rows, keyed
        # to (live replicas, prices) like a warm cache entry, replaced on
        # decline by the next solve's rows.
        self._plane_cfg: "ShardingConfig | None" = None
        if opts.incremental or opts.sharding is not None:
            self._plane_cfg = opts.sharding or ShardingConfig(n_shards=1)
        self._plane: "ShardCoordinator | None" = None
        self._plane_key: tuple | None = None
        self._inc_events = 0
        self._inc_chunks = 0
        self._inc_fallback_reasons: dict[str, int] = {}
        self._plane_rounds = 0
        self._plane_migrations = 0
        # The decision step, chosen once: a static split, a cyclic
        # one, or a distributed solve.
        self._decide = {"weighted": self._decide_weighted,
                        "round_robin": self._decide_round_robin,
                        }.get(opts.algorithm, self._decide_solver)
        if cfg.faults.standby_after is not None:
            for name in self.replica_names:
                self.sim.process(self._standby_watchdog(name))
        self._start_driver()

    def _standby_watchdog(self, name: str):
        """Drop ``name`` into standby after a sustained idle stretch."""
        node = self.nodes[name]
        timeout = self.config.faults.standby_after
        idle_since = self.sim.now
        prev = node.activity
        while True:
            yield self.sim.timeout(timeout / 4.0)
            activity = node.activity
            if activity is not prev:
                prev = activity
                idle_since = self.sim.now
                continue
            if activity is NodeActivity.IDLE \
                    and self.sim.now - idle_since >= timeout:
                node.set_activity(NodeActivity.STANDBY, now=self.sim.now)
                prev = NodeActivity.STANDBY

    # -- callbacks -----------------------------------------------------------
    def lead(self) -> str:
        """The current lead replica (first live ring member)."""
        live = self.ring.live
        if not live:
            raise SimulationError("no live replicas remain")
        return live[0]

    def _on_request(self, server: ReplicaServer, msg) -> None:
        if server.name != self.lead():
            return  # every replica hears the broadcast; the lead batches it
        self._batch.append(dict(msg.payload))

    def _on_transfer_event(self, replica: str, what: str,
                           size_mb: float) -> None:
        server = self.servers.get(replica)
        if server is None:
            return
        if what == "start":
            server.transfer_started()
            self._transferred_mb[replica] = \
                self._transferred_mb.get(replica, 0.0) + size_mb
        else:
            server.transfer_finished()
            self._busy_end[replica] = max(self._busy_end[replica],
                                          self.sim.now)
            if self._rr_sched is not None:
                self._rr_sched.release(replica, size_mb)

    def _live(self) -> list[str]:
        return self.ring.live

    # -- batching --------------------------------------------------------------
    def _build_problem(self, chunk: list[dict]
                       ) -> tuple[ReplicaSelectionProblem, list[str], dict]:
        """Problem instance over the chunk's clients and live replicas."""
        cfg = self.config
        live = self.ring.live
        clients, demands = self._chunk_demands(chunk)
        mask = self.topology.eligibility(clients, live, cfg.net.max_latency)
        now_prices = cfg.prices_at(self.sim.now)
        data = ProblemData(
            demands=[demands[c] for c in clients],
            capacities=self._live_bandwidths(),
            prices=[now_prices[self.replica_names.index(r)] for r in live],
            alpha=cfg.alpha, beta=cfg.beta, gamma=cfg.gamma, mask=mask)
        return ReplicaSelectionProblem(data), clients, demands

    # -- the decision step (one of three, bound in __init__) -------------------
    def _decide_weighted(self, chunk: list[dict]):
        """Static proportional split: every request divided by the fixed
        weights over its *eligible* replicas.  One RTT of decision
        latency, like round-robin."""
        cfg = self.config
        live = self.ring.live
        yield self.sim.timeout(2 * cfg.net.lan_latency + 1e-4)
        w_all = np.asarray(cfg.solver.weights, dtype=float)
        assignments = {}
        for item in chunk:
            elig = self.topology.eligibility(
                [item["client"]], live, cfg.net.max_latency)[0]
            w = np.array([w_all[self.replica_names.index(r)]
                          for r in live]) * elig
            if w.sum() <= 0:
                w = elig.astype(float)
            if w.sum() <= 0:
                # No eligible live replica at all (every replica within the
                # latency bound is dead): fail over to the nearest live one
                # rather than divide by zero into NaN shares that corrupt
                # transfer accounting.
                nearest = int(np.argmin([
                    self.topology.latency(item["client"], r)
                    for r in live]))
                w = np.zeros(len(live))
                w[nearest] = 1.0
            w = w / w.sum()
            assignments[item["uid"]] = {
                "client": item["client"],
                "shares": {live[n]: float(w[n] * item["size"])
                           for n in range(len(live)) if w[n] > 0}}
        self._announce(assignments, self.lead())

    def _decide_round_robin(self, chunk: list[dict]):
        """Per-request cyclic assignment; one RTT of decision latency.

        The scheduler persists across batches (cursor + commitments) but
        is rebuilt if the live replica set changed.
        """
        cfg = self.config
        live = self.ring.live
        if self._rr_sched is None or self._rr_sched.replicas != live:
            self._rr_sched = RoundRobinScheduler(
                live, self._live_bandwidths(),
                eligibility={
                    c: self.topology.eligibility(
                        [c], live, cfg.net.max_latency)[0]
                    for c in self.client_names})
        sched = self._rr_sched
        yield self.sim.timeout(2 * cfg.net.lan_latency + 1e-4)
        assignments = {}
        for item in chunk:
            replica = sched.assign(Request(
                client=item["client"], arrival=self.sim.now,
                size_mb=item["size"], app="runtime"))
            assignments[item["uid"]] = {
                "client": item["client"],
                "shares": {replica: item["size"]}}
        self._announce(assignments, self.lead())

    def _decide_solver(self, chunk: list[dict]):
        """A distributed LDDM / CDPSM session over the chunk, or an event
        plane absorb when the chunk is small and the plane is current."""
        cfg = self.config
        opts = cfg.solver
        live = self.ring.live
        problem, clients, demands = self._build_problem(chunk)
        # Runtime defaults: bounded iteration budgets keep per-batch
        # decision latency in the paper's sub-200 ms regime (constant steps
        # reach a good neighborhood quickly; exact convergence is not
        # worth the decision latency at runtime).
        kwargs = {"max_iter": 150, "tol": 1e-3} \
            if opts.algorithm == "lddm" else {"max_iter": 100, "tol": 1e-4}
        # Class-space reduction: the solver (and the warm-start cache) see
        # one row per distinct eligibility pattern instead of one per
        # client; cache entries are keyed by the classes' packed mask
        # tokens, which outlive any particular client set.
        agg = problem.aggregated() if opts.aggregate else None
        # Event plane: a small sub-batch is a per-class demand delta on
        # the plane's rows — apply it on the lead (one RTT + O(K*N)
        # compute) instead of a batch solve.  The plane is keyed to (live,
        # prices) exactly like a warm cache entry; any decline takes the
        # batch path, which re-arms it.
        plane_key = (tuple(live), problem.data.u.tobytes())
        if (self._plane is not None and self._plane_key == plane_key
                and len(clients) <= opts.incremental_max_clients):
            result = self._plane.retarget(
                list(agg.structure.keys), agg.structure.masks,
                agg.structure.demands)
            if result.ok:
                yield from self._absorb_chunk(
                    chunk, clients, demands, problem, agg, live, result)
                return
            reason = result.fallback_reason
            self._inc_fallback_reasons[reason] = \
                self._inc_fallback_reasons.get(reason, 0) + 1
            if self.recorder.enabled:
                self.recorder.count("incremental.fallback", reason=reason)
        solve_problem = problem if agg is None else agg.problem
        warm_tokens = clients if agg is None else list(agg.structure.keys)
        warm_mask = solve_problem.data.mask
        initial = mu0 = None
        if opts.warm_start:
            if tuple(live) != self._warm_live:
                # Membership changed (death or rejoin): every cached
                # allocation is stale — flush and cold start.
                if len(self._warm_cache) and self.recorder.enabled:
                    self.recorder.count("warmstart.invalidation")
                self._warm_cache.invalidate()
                self._warm_budget.reset()
                self._warm_live = tuple(live)
            entry = self._warm_cache.lookup(live, problem.data.u)
            if entry is not None:
                initial = project_warm_start(entry, solve_problem, warm_tokens)
                if opts.algorithm == "lddm":
                    mu0 = recover_mu(solve_problem, initial)
        warm = initial is not None
        base_iter = int(kwargs["max_iter"])
        if opts.warm_start:
            kwargs["max_iter"] = self._warm_budget.budget(base_iter, warm)
        session = DistributedSolveSession(
            self.sim, self.network, problem, live, clients,
            opts.algorithm, nodes=self.nodes, timing=opts.timing,
            aggregation=agg, initial=initial, mu0=mu0,
            recorder=self.recorder, **kwargs)
        yield from session.run()
        self._solve_time_total += session.duration
        self._solve_iterations += session.iterations
        if warm:
            self._warm_solves += 1
        else:
            self._cold_solves += 1
        rec = self.recorder
        if rec.enabled:
            rec.count("warmstart.hit" if warm else "warmstart.miss")
            rec.event(
                "runtime.batch", sim_time=self.sim.now,
                algorithm=opts.algorithm, n_requests=len(chunk),
                n_clients=len(clients),
                n_classes=None if agg is None else agg.n_classes,
                iterations=session.iterations,
                converged=session.converged, warm_started=warm,
                solve_sim_s=session.duration)
        if opts.warm_start:
            self._warm_budget.observe(
                session.iterations, int(kwargs["max_iter"]),
                session.converged, warm)
            self._warm_cache.store(
                live, problem.data.u, warm_tokens,
                session.solver_allocation, warm_mask,
                mu=session.final_mu,
                iterations=session.iterations,
                converged=session.converged)
        for r in live:  # every live replica worked through the solve
            self._busy_end[r] = max(self._busy_end[r], self.sim.now)
        assignments = self._shares_per_request(
            chunk, clients, demands, session.allocation, live,
            cfg.net.min_share_fraction)
        if self._plane_cfg is not None:
            # Arm the plane with the session's class rows; later small
            # sub-batches at the same key retarget them.
            if self._plane is not None:
                self._plane_migrations += self._plane.migrations
                self._plane.close()
            self._plane = ShardCoordinator(
                agg.problem.data, list(agg.structure.keys),
                self._plane_cfg, allocation=session.solver_allocation,
                recorder=self.recorder)
            self._plane_key = plane_key
        self._announce(assignments, self.lead())

    def _absorb_chunk(self, chunk, clients, demands, problem, agg, live,
                      result):
        """Announce a chunk the event plane absorbed (``result.ok``).

        Decision latency charges one lead RTT plus the plane's event
        work, plus one broadcast/gather RTT and the widest shard's
        compute per refresh round the retarget ran.
        """
        cfg = self.config
        opts = cfg.solver
        plane = self._plane
        delay = 2 * cfg.net.lan_latency \
            + opts.timing.event_time(result.events, result.sweeps) \
            + result.rounds * opts.timing.round_time(plane.max_shard_rows,
                                                     cfg.net.lan_latency)
        yield self.sim.timeout(delay)
        tokens = list(agg.structure.keys)
        rows = plane.rows_for(tokens)
        self._inc_chunks += 1
        self._inc_events += result.events
        self._plane_rounds += result.rounds
        if opts.warm_start:
            # Keep the warm layer coherent: the next *batch* solve
            # warm-starts from the updated allocation.
            self._warm_cache.store(
                live, problem.data.u, tokens, rows, agg.structure.masks,
                mu=plane.mu_for(tokens), iterations=0, converged=True)
        # Refresh rounds involve every live replica (price broadcast /
        # gather); a chunk absorbed without them only the lead.
        for r in (live if result.rounds else live[:1]):
            self._busy_end[r] = max(self._busy_end[r], self.sim.now)
        rec = self.recorder
        if rec.enabled:
            rec.count("incremental.event", result.events)
            rec.event(
                "runtime.incremental", sim_time=self.sim.now,
                n_requests=len(chunk), n_clients=len(clients),
                events=result.events, sweeps=result.sweeps,
                rounds=result.rounds, solve_sim_s=delay)
        self._announce(self._shares_per_request(
            chunk, clients, demands, agg.structure.expand_rows(rows), live,
            cfg.net.min_share_fraction), self.lead())

    # -- running ---------------------------------------------------------------------
    def crash_replica(self, name: str, at: float) -> None:
        """Schedule a crash of replica ``name`` at time ``at``.

        The crash drops its traffic and flows; the ring marks it dead —
        via heartbeats if enabled, else immediately (detection stand-in).
        """
        def _do():
            self.faults.crash(name)
            if not self.config.faults.heartbeats:
                self.ring.mark_dead(name)
        self.sim.call_at(at, _do)

    def restore_replica(self, name: str, at: float) -> None:
        """Schedule a restore of replica ``name`` at time ``at``.

        The transport reconnects and the replica rejoins the ring — via
        the heartbeat protocol's rejoin path if enabled, else immediately.
        """
        self.sim.call_at(at, lambda: self.faults.restore(name))

    def _on_node_restored(self, name: str) -> None:
        """Fault-injector hook: re-admit restored replicas to the ring."""
        if name not in self.servers:
            return  # clients don't participate in the ring
        if self.heartbeats is not None:
            self.heartbeats.rejoin(name)
        else:
            self.ring.mark_alive(name)

    def run(self, app: str = "unknown") -> ExperimentResult:
        """Run to completion; returns the measured result."""
        cfg = self.config
        self._run_to_completion()
        makespan = self.sim.now
        for site in self.sites:
            site.meter.stop()
        if self.heartbeats is not None:
            self.heartbeats.stop()
        if self._plane is not None:
            # Release the worker fleet's executors and shared memory;
            # the coordinator itself stays warm for a follow-up run.
            self._plane.close()
        # Paper accounting: integrate each replica's power over its own
        # execution window [0, busy_end] — a replica is "done" when it has
        # finished its selection work and its assigned transfers.
        joules = np.array([
            s.meter.profile.integrate_between(0.0, self._busy_end[s.name])
            for s in self.sites])
        if cfg.price_schedule is not None:
            cents = np.array([
                cfg.price_schedule.cost_cents(
                    i, s.meter.profile, self._busy_end[s.name])
                for i, s in enumerate(self.sites)])
        else:
            cents = np.array([
                j / JOULES_PER_KWH * s.price_cents_per_kwh
                for j, s in zip(joules, self.sites)])
        wall_joules = np.array([
            s.meter.profile.integrate_between(0.0, makespan)
            for s in self.sites])
        return ExperimentResult(
            method=cfg.solver.algorithm, app=app,
            joules_by_replica=joules, cents_by_replica=cents,
            makespan=makespan,
            response_times=list(self.stats.samples),
            extras={
                "messages": self.network.messages_sent,
                "comm_mb": self.network.mb_sent,
                "batches": self._batches,
                "solve_time": self._solve_time_total,
                "solve_iterations": self._solve_iterations,
                "warm_solves": self._warm_solves,
                "cold_solves": self._cold_solves,
                "incremental_chunks": self._inc_chunks,
                "incremental_events": self._inc_events,
                "incremental_fallbacks":
                    sum(self._inc_fallback_reasons.values()),
                "incremental_fallback_reasons":
                    dict(self._inc_fallback_reasons),
                "shard_rounds": self._plane_rounds,
                "shard_migrations": self._plane_migrations + (
                    self._plane.migrations
                    if self._plane is not None else 0),
                "warm_cache_invalidations":
                    self._warm_cache.invalidations,
                "retries": sum(c.retries for c in self.clients.values()),
                "delivered_mb": self._delivered_mb,
                "flow_recomputes": self.flows.recomputes,
                "flows_settled": self.flows.parts_settled,
                "flows_coalesced": self.flows.parts_coalesced,
                "wall_clock_joules": wall_joules,
                "busy_end": dict(self._busy_end),
                "transferred_mb": dict(self._transferred_mb),
            })

    def power_profiles(self) -> dict[str, "np.ndarray"]:
        """Per-replica power profiles (the Fig. 3/4 time series)."""
        return {s.name: s.meter.profile for s in self.sites}

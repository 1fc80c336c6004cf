"""Fig. 9 — system performance: EDR vs DONAR response time scaling.

Three EDR replicas (LDDM) against three DONAR mapping nodes; the request
count sweeps 24..192 (YouTube-patterned).  Published shape: the two
systems' response times are very close, under ~200 ms per request, and
grow near-linearly with the request count; EDR's asymptotic communication
complexity is lower, so it wins at scale.

Beyond the paper's sweep, :func:`run_solver_scaling` pushes the *solver*
(the batched replica-selection step that dominates EDR's decision
latency) into the 10^4-10^5-client range, comparing the direct per-client
path against the exact class-space aggregation of
:mod:`repro.core.aggregate` — the regime the ROADMAP's "millions of
users" north star cares about, where the full runtime's dense topology
matrices are no longer the bottleneck that matters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.aggregate import ClassStructure, solve_aggregated
from repro.core.lddm import solve_lddm
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.edr.coordinator import ShardCoordinator, ShardingConfig, \
    solve_sharded
from repro.edr.donar_runtime import DonarRuntime, DonarRuntimeConfig
from repro.edr.system import EDRSystem, RuntimeConfig, SolverOptions
from repro.errors import ValidationError
from repro.experiments.parallel import parallel_map
from repro.experiments.scenarios import Scenario, churn_events, make_trace
from repro.util.rng import make_rng
from repro.util.tables import render_series
from repro.workload.apps import FILE_SERVICE

__all__ = ["Fig9Result", "run", "run_point", "DEFAULT_REQUEST_COUNTS",
           "SolverScalingResult", "scaling_problem", "run_scaling_point",
           "run_solver_scaling", "DEFAULT_SCALING_CLIENTS",
           "IncrementalEventResult", "run_incremental_events",
           "ShardScalingResult", "run_sharded_point",
           "run_sharded_scaling", "ShardEventResult",
           "run_sharded_events", "DEFAULT_SHARD_CLIENTS",
           "SkewResult", "run_elastic_skew"]

DEFAULT_REQUEST_COUNTS = (24, 48, 72, 96, 120, 144, 168, 192)

#: Client counts for the large-C solver scaling sweep (fig. 9 regime,
#: pushed to the 10^5 clients the aggregated path makes tractable).
DEFAULT_SCALING_CLIENTS = (2_000, 10_000, 20_000, 50_000, 100_000)

#: Largest client count the direct O(C*N) path is timed at by default.
DEFAULT_DIRECT_LIMIT = 20_000

#: 3-replica price vector (prices do not affect response time).
_PRICES_3 = (1.0, 8.0, 1.0)


@dataclass
class Fig9Result:
    """Mean response time per request count for both systems."""

    request_counts: list[int]
    edr_mean_response: list[float]
    donar_mean_response: list[float]
    edr_total_response: list[float] = field(default_factory=list)
    donar_total_response: list[float] = field(default_factory=list)
    #: Simulated seconds EDR spent inside LDDM solves, per request count.
    edr_solve_time: list[float] = field(default_factory=list)
    #: Total LDDM iterations across all of EDR's solves, per request count.
    edr_solve_iterations: list[int] = field(default_factory=list)

    def render(self) -> str:
        table = render_series(
            {"EDR_ms": [1000 * v for v in self.edr_mean_response],
             "DONAR_ms": [1000 * v for v in self.donar_mean_response],
             "EDR_total_s": self.edr_total_response,
             "DONAR_total_s": self.donar_total_response},
            x=self.request_counts, x_label="requests",
            title=("Fig. 9 — response time vs request count, "
                   "EDR (3 replicas, LDDM) vs DONAR (3 mapping nodes)"))
        worst = max(self.edr_mean_response) * 1000
        return (table + f"\nworst EDR mean response: {worst:.1f} ms "
                "(paper: < 200 ms per request, near-linear growth)")


def _scenario(count: int, max_clients: int = 24) -> Scenario:
    # All requests submitted (nearly) together, as in the paper's sweep:
    # the whole count lands within ~20 ms, so the systems must schedule
    # one large backlog and later requests queue behind earlier chunks —
    # this is what makes response time grow with the request count.
    return Scenario(name=f"fig9-{count}", app=FILE_SERVICE,
                    n_requests=count, n_clients=min(count, max_clients),
                    arrival_rate=count * 50.0)


def run_point(point: int | tuple, recorder=None) -> dict:
    """One sweep point: both systems at one request count.

    Module-level and driven entirely by its argument — a count, or a
    ``(count, warm_start[, aggregate[, max_clients[, sharding]]])``
    tuple — so it pickles cleanly into worker processes and gives
    bit-identical results at any ``--jobs`` level (every random draw
    derives from the scenario's fixed seed).  ``sharding`` lays EDR's
    event plane out over shards (and turns it on): a shard count or a
    :class:`~repro.edr.coordinator.ShardingConfig`.  ``recorder``
    threads a :class:`~repro.obs.Recorder` through the EDR runtime
    (serial sweeps only — events captured in worker processes would be
    lost).
    """
    defaults = (True, True, 24, None)
    vals = (point,) if isinstance(point, int) else tuple(point)
    count, warm, aggregate, max_clients, sharding = \
        (vals + defaults[len(vals) - 1:])[:5]
    shard_cfg = None
    if sharding:
        shard_cfg = sharding if isinstance(sharding, ShardingConfig) \
            else ShardingConfig(n_shards=int(sharding))
    scenario = _scenario(int(count), max_clients=int(max_clients))
    trace = make_trace(scenario)
    if recorder is not None and recorder.enabled:
        recorder.event("experiment.point", figure="fig9",
                       requests=int(count))
    edr = EDRSystem(trace, RuntimeConfig(
        solver=SolverOptions(warm_start=warm, aggregate=aggregate,
                             sharding=shard_cfg),
        prices=_PRICES_3, batch_capacity_fraction=0.35,
        recorder=recorder)).run(app="dfs")
    donar = DonarRuntime(trace, DonarRuntimeConfig(
        n_replicas=3, n_mapping_nodes=3)).run(app="dfs")
    return {
        "count": int(count),
        "edr_mean": edr.mean_response,
        "donar_mean": donar.mean_response,
        "edr_total": sum(edr.response_times),
        "donar_total": sum(donar.response_times),
        "edr_solve_time": float(edr.extras.get("solve_time", 0.0)),
        "edr_solve_iterations": int(edr.extras.get("solve_iterations", 0)),
    }


def run(request_counts=DEFAULT_REQUEST_COUNTS, jobs: int = 1,
        warm_start: bool = True, aggregate: bool = True,
        max_clients: int = 24, sharding=None, recorder=None) -> Fig9Result:
    """Sweep the request count for both systems.

    ``jobs > 1`` spreads the (independent) sweep points over worker
    processes; ``warm_start=False`` forces every EDR batch to cold-start,
    for the warm-vs-cold regression and benchmarks; ``aggregate=False``
    disables the class-space solve; ``max_clients`` lifts the paper's
    24-client population cap so the sweep can grow the client count with
    the request count; ``sharding`` (a shard count or a
    :class:`~repro.edr.coordinator.ShardingConfig`) lays EDR's event
    plane out over that many shards.  An enabled ``recorder``
    forces ``jobs=1`` — events captured inside worker processes would
    be lost.
    """
    counts = [int(c) for c in request_counts]
    if not counts or min(counts) < 1:
        raise ValidationError("request_counts must be positive")
    point_fn = run_point
    if recorder is not None and getattr(recorder, "enabled", False):
        jobs = 1
        point_fn = partial(run_point, recorder=recorder)
    points = parallel_map(
        point_fn,
        [(c, warm_start, aggregate, int(max_clients), sharding)
         for c in counts],
        jobs=jobs)
    return Fig9Result(
        request_counts=counts,
        edr_mean_response=[p["edr_mean"] for p in points],
        donar_mean_response=[p["donar_mean"] for p in points],
        edr_total_response=[p["edr_total"] for p in points],
        donar_total_response=[p["donar_total"] for p in points],
        edr_solve_time=[p["edr_solve_time"] for p in points],
        edr_solve_iterations=[p["edr_solve_iterations"] for p in points])


# -- large-C solver scaling (the aggregation regime) -------------------------

#: Solver budget used by the runtime's LDDM batches (see EDRSystem).
_RUNTIME_LDDM_KWARGS = {"max_iter": 150, "tol": 1e-3,
                        "track_objective": False}


@dataclass
class SolverScalingResult:
    """Direct vs aggregated LDDM solve times across client counts.

    ``direct_solve_s`` entries are ``None`` where the direct path was not
    timed (above ``direct_limit``).
    """

    client_counts: list[int]
    n_classes: list[int]
    aggregate_solve_s: list[float]
    aggregate_objective: list[float]
    aggregate_iterations: list[int]
    direct_solve_s: list[float | None]
    direct_objective: list[float | None]
    direct_iterations: list[int | None]

    def speedup(self) -> float | None:
        """Direct/aggregated wall-time ratio at the largest count with both."""
        best = None
        for i, c in enumerate(self.client_counts):
            if self.direct_solve_s[i] is not None \
                    and self.aggregate_solve_s[i] > 0:
                if best is None or c > self.client_counts[best]:
                    best = i
        if best is None:
            return None
        return self.direct_solve_s[best] / self.aggregate_solve_s[best]

    def render(self) -> str:
        table = render_series(
            {"K": self.n_classes,
             "agg_ms": [1000 * v for v in self.aggregate_solve_s],
             "direct_ms": [None if v is None else 1000 * v
                           for v in self.direct_solve_s]},
            x=self.client_counts, x_label="clients",
            title=("Fig. 9 extension — LDDM solve time vs client count, "
                   "class-space aggregation vs direct"))
        sp = self.speedup()
        tail = "" if sp is None else \
            f"\nspeedup at largest common size: {sp:.1f}x"
        return table + tail


def scaling_problem(n_clients: int, seed: int = 2013, *,
                    n_replicas: int = 3, n_patterns: int = 4
                    ) -> ReplicaSelectionProblem:
    """A fig9-style batch instance with ``n_clients`` clients.

    By default three replicas at the sweep's prices, per-client demands
    drawn from the DFS profile's lognormal size distribution (drawn
    vectorized — same distribution as ``FILE_SERVICE.sample_size``),
    and four latency-eligibility patterns standing in for client
    regions; replica capacities scale with total demand so every count
    stays feasible.  ``n_replicas`` / ``n_patterns`` widen the instance
    for the sharded sweeps (more class rows to partition); the default
    ``(3, 4)`` instance is byte-identical to what this function has
    always produced.
    """
    if n_clients < 1:
        raise ValidationError("n_clients must be positive")
    if n_replicas < 1 or n_patterns < 1:
        raise ValidationError("n_replicas and n_patterns must be positive")
    rng = make_rng(seed)
    sigma = FILE_SERVICE.size_sigma
    mu = float(np.log(FILE_SERVICE.mean_size_mb)) - sigma ** 2 / 2.0
    demands = rng.lognormal(mean=mu, sigma=sigma, size=n_clients)
    if (n_replicas, n_patterns) == (3, 4):
        patterns = np.array([[1, 1, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1]],
                            dtype=bool)
        prices = _PRICES_3
    else:
        # All-ones first, then random patterns with >= 2 eligible
        # replicas each (>= 2 keeps every demand split feasible under
        # the 0.6*total per-column capacity, by Hall's condition).
        patterns = np.ones((n_patterns, n_replicas), dtype=bool)
        lo = min(2, n_replicas)
        for p in range(1, n_patterns):
            k = int(rng.integers(lo, n_replicas + 1))
            off = rng.choice(n_replicas, size=n_replicas - k, replace=False)
            patterns[p, off] = False
        prices = tuple(np.resize(np.asarray(_PRICES_3, dtype=float),
                                 n_replicas))
    mask = patterns[rng.integers(0, len(patterns), size=n_clients)]
    total = float(demands.sum())
    data = ProblemData.paper_defaults(
        demands=demands, prices=prices, bandwidth=0.6 * total, mask=mask)
    return ReplicaSelectionProblem(data)


def run_scaling_point(point: int | tuple) -> dict:
    """Time one client count (module-level: pickles into workers).

    ``point`` is a count or a ``(count, time_direct[, seed])`` tuple.
    """
    count, time_direct, seed = \
        ((point, True, 2013) if isinstance(point, int)
         else (tuple(point) + (True, 2013))[:3])
    problem = scaling_problem(int(count), seed=int(seed))
    agg_sol = solve_lddm(problem, aggregate=True, **_RUNTIME_LDDM_KWARGS)
    out = {
        "count": int(count),
        "n_classes": agg_sol.n_classes,
        "agg_s": agg_sol.solve_time_s,
        "agg_objective": agg_sol.objective,
        "agg_iterations": agg_sol.iterations,
        "direct_s": None, "direct_objective": None,
        "direct_iterations": None,
    }
    if time_direct:
        direct_sol = solve_lddm(problem, **_RUNTIME_LDDM_KWARGS)
        out["direct_s"] = direct_sol.solve_time_s
        out["direct_objective"] = direct_sol.objective
        out["direct_iterations"] = direct_sol.iterations
    return out


# -- per-event incremental updates (the delta-event regime) -------------------

@dataclass
class IncrementalEventResult:
    """Per-event incremental update cost vs the warm full re-solve.

    One :func:`run_incremental_events` run applies a churn stream —
    client arrivals, departures and demand changes — to an
    :class:`~repro.core.incremental.IncrementalState` built from a
    converged fig9-style instance, timing every ``apply_event`` and,
    at every compared event, the warm full LDDM re-solve of the *same*
    post-event instance (warm-started from the incremental state's rows
    and recovered multipliers, at the runtime's solver budget) plus the
    relative objective gap between the two answers.
    """

    n_clients: int
    n_classes: int
    event_ms: list[float]            # per-event apply_event wall time
    resolve_ms: list[float]          # warm full re-solve wall time
    rel_gaps: list[float]            # |obj_inc - obj_solve| / |obj_solve|
    fallbacks: int                   # events the state declined
    arrivals: int
    departures: int
    demand_changes: int
    #: Open side-channel; ``extras["fallback_reasons"]`` histograms the
    #: decline triggers (capacity / drift / convergence / stale).
    extras: dict = field(default_factory=dict)

    @property
    def n_events(self) -> int:
        return len(self.event_ms)

    def event_p(self, q: float) -> float:
        """``q``-th percentile of the per-event latency, in ms."""
        return float(np.percentile(self.event_ms, q))

    def mean_event_ms(self) -> float:
        return float(np.mean(self.event_ms))

    def mean_resolve_ms(self) -> float:
        return float(np.mean(self.resolve_ms))

    def speedup(self) -> float:
        """Warm-full-re-solve mean cost over per-event mean cost."""
        return self.mean_resolve_ms() / max(self.mean_event_ms(), 1e-12)

    def worst_gap(self) -> float:
        return max(self.rel_gaps, default=0.0)

    def render(self) -> str:
        lines = [
            ("Fig. 9 extension — per-event incremental update vs warm "
             "full re-solve"),
            (f"clients {self.n_clients}  classes {self.n_classes}  "
             f"events {self.n_events} "
             f"(arrive {self.arrivals} / depart {self.departures} / "
             f"demand {self.demand_changes})"),
            (f"event   mean {self.mean_event_ms():.3f} ms   "
             f"p50 {self.event_p(50):.3f} ms   "
             f"p99 {self.event_p(99):.3f} ms"),
            (f"resolve mean {self.mean_resolve_ms():.3f} ms   "
             f"speedup {self.speedup():.1f}x   "
             f"worst gap {self.worst_gap():.2e}   "
             f"fallbacks {self.fallbacks}{self._reasons_suffix()}"),
        ]
        return "\n".join(lines)

    def _reasons_suffix(self) -> str:
        reasons = self.extras.get("fallback_reasons") or {}
        if not reasons:
            return ""
        inner = ", ".join(f"{k} {v}" for k, v in sorted(reasons.items()))
        return f" ({inner})"


def run_incremental_events(n_clients: int = 10_000, n_events: int = 200,
                           seed: int = 2013, event_seed: int = 7,
                           compare_every: int = 1,
                           drift_limit: float = 10.0
                           ) -> IncrementalEventResult:
    """Apply a churn stream to an incremental state and time every event.

    Builds the fig9-style instance at ``n_clients``, solves it in class
    space at the runtime's LDDM budget, seeds an
    :class:`~repro.core.incremental.IncrementalState` with every client
    registered, then applies ``n_events`` drawn from a fixed-seed mix —
    half demand changes, a quarter arrivals (fresh clients on random
    eligibility patterns), a quarter departures.  Every
    ``compare_every``-th event also runs the warm full re-solve of the
    post-event instance for the latency baseline and the objective-gap
    check.  A declined event (fallback) runs the full solve and rebuilds
    the state from it, exactly as the runtime would.
    """
    from repro.core.incremental import IncrementalState
    import time

    if n_events < 1:
        raise ValidationError("n_events must be positive")
    if compare_every < 1:
        raise ValidationError("compare_every must be >= 1")
    problem = scaling_problem(int(n_clients), seed=int(seed))
    data = problem.data
    structure = ClassStructure.from_mask(data.mask, data.R)
    reduced = structure.reduce_data(data)
    base = solve_lddm(ReplicaSelectionProblem(reduced),
                      **_RUNTIME_LDDM_KWARGS)
    tokens = list(structure.keys)
    clients = {f"c{i}": (tokens[structure.class_of_client[i]],
                         float(data.R[i]))
               for i in range(data.n_clients)}
    state = IncrementalState(reduced, tokens, base.allocation,
                             clients=clients, drift_limit=drift_limit)
    patterns = np.array([[1, 1, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1]],
                        dtype=bool)
    event_ms, resolve_ms, gaps = [], [], []
    sweeps = 0
    kinds: Counter = Counter()
    fallback_reasons: Counter = Counter()
    for i, event in enumerate(churn_events(
            make_rng(int(event_seed)), list(clients), patterns,
            int(n_events))):
        kinds[type(event).__name__] += 1
        t0 = time.perf_counter()
        result = state.apply_event(event)
        event_ms.append(1e3 * (time.perf_counter() - t0))
        sweeps += result.sweeps
        if not result.ok:
            fallback_reasons[result.reason or "unknown"] += 1
        if not result.ok or i % int(compare_every) == 0:
            post = ReplicaSelectionProblem(state.class_data())
            warm = state.Q.copy()
            mu0 = state.mu()
            t0 = time.perf_counter()
            sol = solve_lddm(post, warm_start=warm, mu0=mu0,
                             **_RUNTIME_LDDM_KWARGS)
            resolve_ms.append(1e3 * (time.perf_counter() - t0))
            if result.ok:
                gaps.append(abs(state.objective() - sol.objective)
                            / max(abs(sol.objective), 1e-12))
            else:
                # The runtime path: the declined event is already in the
                # state's registry and demands; rebuild from the solve.
                state = IncrementalState(
                    state.class_data(), list(state.tokens),
                    sol.allocation, clients=dict(state.clients),
                    drift_limit=drift_limit)
    return IncrementalEventResult(
        n_clients=int(n_clients), n_classes=state.n_classes,
        event_ms=event_ms, resolve_ms=resolve_ms, rel_gaps=gaps,
        fallbacks=sum(fallback_reasons.values()),
        arrivals=kinds["ClientArrival"],
        departures=kinds["ClientDeparture"],
        demand_changes=kinds["DemandChange"],
        extras={"fallback_reasons": dict(fallback_reasons),
                "sweeps": sweeps})


def run_solver_scaling(client_counts=DEFAULT_SCALING_CLIENTS,
                       direct_limit: int = DEFAULT_DIRECT_LIMIT,
                       jobs: int = 1, seed: int = 2013
                       ) -> SolverScalingResult:
    """Time aggregated vs direct LDDM solves across client counts.

    Every point runs the aggregated path; the direct path is only timed
    up to ``direct_limit`` clients (beyond that it is minutes-per-solve —
    the point of the aggregation).  Uses the runtime's LDDM budget, so
    the timings are the decision-latency the EDR scheduler would see.
    """
    counts = [int(c) for c in client_counts]
    if not counts or min(counts) < 1:
        raise ValidationError("client_counts must be positive")
    points = parallel_map(
        run_scaling_point,
        [(c, c <= int(direct_limit), int(seed)) for c in counts],
        jobs=jobs)
    return SolverScalingResult(
        client_counts=counts,
        n_classes=[p["n_classes"] for p in points],
        aggregate_solve_s=[p["agg_s"] for p in points],
        aggregate_objective=[p["agg_objective"] for p in points],
        aggregate_iterations=[p["agg_iterations"] for p in points],
        direct_solve_s=[p["direct_s"] for p in points],
        direct_objective=[p["direct_objective"] for p in points],
        direct_iterations=[p["direct_iterations"] for p in points])


# -- sharded control plane (the 10^6-10^7-client regime) ----------------------

#: Client counts for the sharded scaling sweep.
DEFAULT_SHARD_CLIENTS = (100_000, 1_000_000)

#: A tight monolithic baseline: the aggregated LDDM pushed well past
#: the runtime budget, the reference the sharded gap is measured against.
_TIGHT_LDDM_KWARGS = {"max_iter": 5000, "tol": 1e-10,
                      "track_objective": False}


@dataclass
class ShardScalingResult:
    """Sharded dual-price solve vs tight monolithic aggregated LDDM.

    One row per client count: end-to-end wall time of
    :func:`~repro.edr.coordinator.solve_sharded` (aggregation +
    exchange rounds + expansion), the tight monolithic baseline's wall
    time, the relative objective gap between the two, the exchange
    rounds used, and whether a second execution mode reproduced the
    serial allocation bit-for-bit.
    """

    client_counts: list[int]
    n_shards: int
    n_classes: list[int]
    sharded_solve_s: list[float]
    monolithic_solve_s: list[float]
    rel_gaps: list[float]
    rounds: list[int]
    modes_identical: list[bool]

    def worst_gap(self) -> float:
        return max(self.rel_gaps, default=0.0)

    def render(self) -> str:
        table = render_series(
            {"K": self.n_classes,
             "shard_ms": [1000 * v for v in self.sharded_solve_s],
             "mono_ms": [1000 * v for v in self.monolithic_solve_s],
             "rounds": self.rounds,
             "gap": self.rel_gaps},
            x=self.client_counts, x_label="clients",
            title=(f"Fig. 9 extension — sharded plane ({self.n_shards} "
                   "shards) vs tight monolithic aggregated LDDM"))
        modes = "yes" if all(self.modes_identical) else "NO"
        return (table + f"\nworst objective gap: {self.worst_gap():.2e}   "
                f"execution modes bit-identical: {modes}")


def run_sharded_point(point: int | tuple) -> dict:
    """One sharded scaling point (module-level: pickles into workers).

    ``point`` is a count or a ``(count, n_shards[, seed[, n_replicas[,
    n_patterns[, check_mode]]]])`` tuple.  ``check_mode`` names a second
    execution mode whose allocation is compared bit-for-bit against the
    serial one (empty string skips the check).
    """
    defaults = (4, 2013, 6, 24, "process")
    vals = (point,) if isinstance(point, int) else tuple(point)
    count, n_shards, seed, n_replicas, n_patterns, check_mode = \
        (vals + defaults[len(vals) - 1:])[:6]
    problem = scaling_problem(int(count), seed=int(seed),
                              n_replicas=int(n_replicas),
                              n_patterns=int(n_patterns))
    import time
    t0 = time.perf_counter()
    sharded = solve_sharded(problem, int(n_shards))
    shard_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    mono = solve_aggregated(problem, "lddm", **_TIGHT_LDDM_KWARGS)
    mono_s = time.perf_counter() - t0
    gap = abs(sharded.objective - mono.objective) \
        / max(abs(mono.objective), 1e-12)
    identical = True
    if check_mode:
        other = solve_sharded(problem, int(n_shards), mode=str(check_mode))
        identical = bool(np.array_equal(sharded.allocation,
                                        other.allocation))
    return {
        "count": int(count),
        "n_classes": sharded.n_classes,
        "shard_s": shard_s,
        "mono_s": mono_s,
        "gap": float(gap),
        "rounds": int(sharded.iterations),
        "identical": identical,
    }


def run_sharded_scaling(client_counts=DEFAULT_SHARD_CLIENTS,
                        n_shards: int = 4, seed: int = 2013,
                        n_replicas: int = 6, n_patterns: int = 24,
                        check_mode: str = "process",
                        jobs: int = 1) -> ShardScalingResult:
    """Compare the sharded plane against the tight monolithic solve.

    Every point builds the widened fig9-style instance (``n_replicas``
    replicas, ``n_patterns`` eligibility patterns, so the class space is
    worth partitioning), solves it through
    :func:`~repro.edr.coordinator.solve_sharded` and through the tight
    monolithic aggregated LDDM, and records walls, the relative
    objective gap and the ``check_mode`` bit-identity verdict.
    """
    counts = [int(c) for c in client_counts]
    if not counts or min(counts) < 1:
        raise ValidationError("client_counts must be positive")
    if n_shards < 1:
        raise ValidationError("n_shards must be >= 1")
    points = parallel_map(
        run_sharded_point,
        [(c, int(n_shards), int(seed), int(n_replicas), int(n_patterns),
          str(check_mode)) for c in counts],
        jobs=jobs)
    return ShardScalingResult(
        client_counts=counts,
        n_shards=int(n_shards),
        n_classes=[p["n_classes"] for p in points],
        sharded_solve_s=[p["shard_s"] for p in points],
        monolithic_solve_s=[p["mono_s"] for p in points],
        rel_gaps=[p["gap"] for p in points],
        rounds=[p["rounds"] for p in points],
        modes_identical=[p["identical"] for p in points])


@dataclass
class ShardEventResult:
    """Per-event cost of the shard-routed churn stream.

    Events route to exactly one shard and are absorbed incrementally
    against the other shards' (fixed) loads, so the per-event wall time
    depends on the owning shard's class rows — *not* on the total client
    count.  :func:`run_sharded_events` at two counts demonstrates that
    independence; the bench gate pins it.
    """

    n_clients: int
    n_classes: int
    n_shards: int
    event_ms: list[float]            # per-event apply_event wall time
    refreshes: int                   # residual-triggered exchange refreshes
    fallbacks: int                   # shard declines recovered in place
    rounds: int                      # exchange rounds across all refreshes
    arrivals: int
    departures: int
    demand_changes: int
    final_residual: float

    @property
    def n_events(self) -> int:
        return len(self.event_ms)

    def event_p(self, q: float) -> float:
        """``q``-th percentile of the per-event latency, in ms."""
        return float(np.percentile(self.event_ms, q))

    def mean_event_ms(self) -> float:
        return float(np.mean(self.event_ms))

    def render(self) -> str:
        lines = [
            ("Fig. 9 extension — shard-routed per-event updates "
             f"({self.n_shards} shards)"),
            (f"clients {self.n_clients}  classes {self.n_classes}  "
             f"events {self.n_events} "
             f"(arrive {self.arrivals} / depart {self.departures} / "
             f"demand {self.demand_changes})"),
            (f"event mean {self.mean_event_ms():.3f} ms   "
             f"p50 {self.event_p(50):.3f} ms   "
             f"p99 {self.event_p(99):.3f} ms"),
            (f"refreshes {self.refreshes}   fallbacks {self.fallbacks}   "
             f"rounds {self.rounds}   "
             f"final residual {self.final_residual:.2e}"),
        ]
        return "\n".join(lines)


def run_sharded_events(n_clients: int = 100_000, n_events: int = 200,
                       n_shards: int = 4, seed: int = 2013,
                       event_seed: int = 7, n_replicas: int = 3,
                       n_patterns: int = 4) -> ShardEventResult:
    """Apply a churn stream through the sharded plane and time every event.

    Builds the fig9-style instance, aggregates it, stands up a
    :class:`~repro.edr.coordinator.ShardCoordinator` with every client
    registered, converges it, then applies ``n_events`` drawn from the
    same fixed-seed mix as :func:`run_incremental_events` — half demand
    changes, a quarter arrivals, a quarter departures — via
    :meth:`~repro.edr.coordinator.ShardCoordinator.apply_event`.
    Declines and residual drift are recovered inside the coordinator
    (counted, not special-cased here), so the timing is the cost the
    runtime would actually pay per event.
    """
    import time

    if n_events < 1:
        raise ValidationError("n_events must be positive")
    problem = scaling_problem(int(n_clients), seed=int(seed),
                              n_replicas=int(n_replicas),
                              n_patterns=int(n_patterns))
    data = problem.data
    structure = ClassStructure.from_mask(data.mask, data.R)
    reduced = structure.reduce_data(data)
    tokens = list(structure.keys)
    clients = {f"c{i}": (tokens[structure.class_of_client[i]],
                         float(data.R[i]))
               for i in range(data.n_clients)}
    coord = ShardCoordinator(reduced, tokens,
                             ShardingConfig(n_shards=int(n_shards)),
                             clients=clients)
    coord.solve()

    patterns = np.asarray(data.mask[
        np.unique(structure.class_of_client,
                  return_index=True)[1]], dtype=bool)
    event_ms = []
    kinds: Counter = Counter()
    for event in churn_events(make_rng(int(event_seed)), list(clients),
                              patterns, int(n_events)):
        kinds[type(event).__name__] += 1
        t0 = time.perf_counter()
        coord.apply_event(event)
        event_ms.append(1e3 * (time.perf_counter() - t0))
    return ShardEventResult(
        n_clients=int(n_clients), n_classes=coord.n_classes,
        n_shards=coord.n_shards, event_ms=event_ms,
        refreshes=coord.refreshes, fallbacks=coord.fallbacks,
        rounds=coord.rounds_total, arrivals=kinds["ClientArrival"],
        departures=kinds["ClientDeparture"],
        demand_changes=kinds["DemandChange"],
        final_residual=coord.residual())


# -- elasticity (the long-lived-plane regime) ---------------------------------

@dataclass
class SkewResult:
    """Online re-partitioning under a skewed arrival hot-spot.

    :func:`run_elastic_skew` concentrates arrivals onto one class until
    the owning shard's demand skews past the rebalance threshold; the
    coordinator must re-lay its shards *while* the stream runs — no
    shard-count change (``resizes`` stays 0), no allocation jump (classes
    move with their rows), and a second execution mode must still
    reproduce the serial allocation bit-for-bit afterwards.
    """

    n_clients: int
    n_classes: int
    n_shards: int
    events: int
    migrations: int
    resizes: int
    refreshes: int
    fallbacks: int
    skew_before: float
    skew_peak: float
    skew_after: float
    modes_identical: bool
    final_residual: float

    def render(self) -> str:
        return "\n".join([
            ("Fig. 9 extension — elastic online re-partitioning "
             f"({self.n_shards} shards)"),
            (f"clients {self.n_clients}  classes {self.n_classes}  "
             f"hot-spot events {self.events}"),
            (f"skew {self.skew_before:.2f} -> peak {self.skew_peak:.2f} "
             f"-> {self.skew_after:.2f}   migrations {self.migrations}   "
             f"resizes {self.resizes}"),
            (f"refreshes {self.refreshes}   fallbacks {self.fallbacks}   "
             f"final residual {self.final_residual:.2e}   "
             f"modes bit-identical: "
             f"{'yes' if self.modes_identical else 'NO'}"),
        ])


def run_elastic_skew(n_clients: int = 20_000, n_events: int = 60,
                     n_shards: int = 3, seed: int = 2013,
                     n_replicas: int = 6, n_patterns: int = 12,
                     rebalance_skew: float = 1.5,
                     check_mode: str = "process") -> SkewResult:
    """Drive a hot-spot arrival stream until a skew re-layout fires.

    Every arrival lands on the single heaviest class (the all-eligible
    pattern), each carrying a fixed fraction of the instance's total
    demand, so one shard's share grows steadily while the others stand
    still — the skewed-demand scenario the elasticity exists for.  The
    identical stream runs through a serial and a ``check_mode``
    coordinator; both must re-lay the same classes at the same events
    and end bit-identical.
    """
    from repro.core.incremental import ClientArrival

    if n_events < 1:
        raise ValidationError("n_events must be positive")
    problem = scaling_problem(int(n_clients), seed=int(seed),
                              n_replicas=int(n_replicas),
                              n_patterns=int(n_patterns))
    data = problem.data
    structure = ClassStructure.from_mask(data.mask, data.R)
    reduced = structure.reduce_data(data)
    tokens = list(structure.keys)
    clients = {f"c{i}": (tokens[structure.class_of_client[i]],
                         float(data.R[i]))
               for i in range(data.n_clients)}
    # Hot class: the largest class on the *crowded* shard (most rows),
    # so the growing skew is repairable — the shard's sibling classes
    # can be laid out elsewhere around the hot class.  Uses the same
    # deterministic partition the coordinator builds.
    from repro.core.shard import partition_classes
    shard_of = partition_classes(structure.demands, int(n_shards))
    crowded = int(np.argmax(np.bincount(shard_of, minlength=int(n_shards))))
    idx = np.flatnonzero(shard_of == crowded)
    hot = int(idx[np.argmax(structure.demands[idx])])
    hot_elig = np.asarray(structure.masks[hot], dtype=bool)
    # Per-event demand sized so the stream pushes the crowded shard
    # well past the threshold within n_events.
    per_event = float(structure.demands.sum()) * 0.5 / int(n_events)

    def stream(mode: str):
        cfg = ShardingConfig(n_shards=int(n_shards), mode=mode,
                             rebalance_skew=float(rebalance_skew))
        with ShardCoordinator(reduced, tokens, cfg,
                              clients=dict(clients)) as coord:
            coord.solve()
            skew0 = coord.demand_skew()
            peak = skew0
            for i in range(int(n_events)):
                coord.apply_event(ClientArrival(
                    f"hot{i}", per_event, hot_elig.copy()))
                peak = max(peak, coord.demand_skew())
            rows = coord.rows_for(tokens)
            out = SkewResult(
                n_clients=int(n_clients), n_classes=coord.n_classes,
                n_shards=coord.n_shards, events=int(n_events),
                migrations=coord.migrations, resizes=coord.resizes,
                refreshes=coord.refreshes, fallbacks=coord.fallbacks,
                skew_before=skew0, skew_peak=peak,
                skew_after=coord.demand_skew(), modes_identical=True,
                final_residual=coord.residual())
        return out, rows

    result, serial_rows = stream("serial")
    if check_mode:
        other, other_rows = stream(str(check_mode))
        result.modes_identical = bool(
            np.array_equal(serial_rows, other_rows)
            and other.migrations == result.migrations)
    return result

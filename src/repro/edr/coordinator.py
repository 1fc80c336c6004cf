"""Sharded dual-price control plane: coordinator over solve shards.

The runtime's remaining monolith is the solve itself: even with class
aggregation and incremental events, one ``EDRSystem`` re-touches the
whole class space in lockstep.  This module splits the plane into
independent :class:`~repro.core.shard.SolveShard`\\ s and reconciles the
*shared* resource — replica capacity — with a small number of dual-price
exchange rounds, the decomposition-by-prices structure Mathew et al.'s
energy-aware CDN balancing (arXiv:1109.5641) exploits across clusters
and Lučanin's geo-distributed pricing work (arXiv:1809.05853) uses
across data centers.

The exchange protocol (one :meth:`ShardCoordinator.solve` round):

1. the coordinator snapshots the aggregate column loads ``L`` and
   broadcasts to shard ``s`` its *background* ``L - L_s`` — together
   with the energy curve this fixes the marginal-price field
   ``mu = E'(L)`` every shard prices against;
2. every shard best-responds simultaneously (Jacobi): a batched
   water-fill of all its rows against the background
   (:func:`repro.core.kernels.waterfill_rows`), an intra-shard
   Gauss–Seidel polish, and damping against its previous rows;
3. the coordinator gathers the new loads and re-evaluates the global
   residual — the worst of relative capacity overshoot, cross-shard KKT
   gap, and per-row demand shortfall — and stops when it is within
   tolerance.

Because each round's inputs are a single broadcast snapshot, the round
outcome is independent of shard execution order: ``serial`` and
``process`` modes are bit-identical (the process worker rebuilds the
shard from its shipped geometry and runs the same code path).  Events
route to exactly one shard (:meth:`ShardCoordinator.apply_event` /
:meth:`ShardCoordinator.retarget`) and stay incremental inside it; full
exchange rounds re-run only when the global residual drifts past the
refresh threshold, so per-event cost is O(K_s * N) — independent of the
client count and of the other shards.  A shard that declines a chunk
retarget is reported, not repaired: the caller re-solves and re-arms.

The coordinator is a *long-lived* object: its executor — the persistent
shared-memory worker fleet of :mod:`repro.core.shard_workers` — starts
lazily on the first concurrent round and survives across solves and
event storms until :meth:`ShardCoordinator.close` (also a context
manager).  Shards are laid out in one place: an LPT partition of the
class demands (:func:`~repro.core.shard.partition_classes`), each class
carried with its allocation row and client registrations.  Construction
lays out the instance it is given; :meth:`ShardCoordinator.rebalance`
re-lays the plane from its own rows when per-shard demand skews past
``rebalance_skew`` and the LPT layout repairs it, and
:meth:`ShardCoordinator.resize` re-lays it onto another shard count.  A
re-layout moves rows, not load — no allocation change, hence no
residual change — and its decision reads class demands only, so it is
identical across execution modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, Sequence

import numpy as np

from repro.core import model
from repro.core.aggregate import aggregate_problem, solve_aggregated
from repro.core.incremental import (
    ClientArrival,
    ClientDeparture,
    DemandChange,
)
from repro.core.shard import SolveShard, partition_classes
from repro.core.shard_workers import ShardWorkerPool
from repro.core.solution import Solution
from repro.errors import InfeasibleProblemError, ValidationError
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = ["ShardingConfig", "CoordinatorResult", "RoutedResult",
           "ShardCoordinator", "solve_sharded"]

_MODES = ("serial", "process")


@dataclass(frozen=True)
class ShardingConfig:
    """Tuning for the sharded control plane.

    ``mode`` picks shard execution: ``serial`` (deterministic reference,
    zero concurrency overhead) or ``process`` (the shared-memory worker
    fleet of :mod:`repro.core.shard_workers`, kept alive until
    ``close()``, for large K) — both produce bit-identical allocations.
    ``tol`` is the global residual bound a solve converges to;
    ``refresh_residual`` is the looser bound a routed event may leave
    behind before the coordinator schedules full exchange rounds.

    ``max_workers`` caps the process pool size (``None`` follows the
    CPU affinity mask).  Elasticity: once the heaviest shard's demand
    exceeds ``rebalance_skew`` times the mean, a routed event re-lays
    the shards by LPT if that brings the skew back within bound
    (``rebalance_skew=None`` disables online re-partitioning).
    """

    n_shards: int = 4
    mode: str = "serial"
    max_rounds: int = 64
    tol: float = 1e-8
    damping: float = 0.5
    refresh_residual: float = 1e-3
    drift_limit: float = 2.5
    max_workers: int | None = None
    rebalance_skew: float | None = 2.0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValidationError("n_shards must be >= 1")
        if self.mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}")
        if self.max_rounds < 1:
            raise ValidationError("max_rounds must be >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValidationError("damping must be in (0, 1]")
        if self.tol <= 0.0:
            raise ValidationError("tol must be positive")
        if self.refresh_residual < self.tol:
            raise ValidationError("refresh_residual must be >= tol")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValidationError("max_workers must be >= 1")
        if self.rebalance_skew is not None and self.rebalance_skew <= 1.0:
            raise ValidationError("rebalance_skew must be > 1")


@dataclass(frozen=True)
class CoordinatorResult:
    """Outcome of one :meth:`ShardCoordinator.solve` call."""

    rounds: int
    sweeps: int
    residual: float
    converged: bool
    wall_s: float


@dataclass(frozen=True)
class RoutedResult:
    """Outcome of a routed event or chunk retarget.

    ``rounds`` counts the exchange rounds a residual-triggered refresh
    (or an event's fallback recovery) ran — zero for the common
    absorbed-in-shard case.  ``fallback_reason`` names the shard's
    decline: recovered in place by :meth:`ShardCoordinator.apply_event`,
    returned as ``ok=False`` by :meth:`ShardCoordinator.retarget`.
    ``migrations`` counts classes whose owning shard changed when the
    skew check re-laid the plane while absorbing this event — rows move
    with their classes, so it is load-conserving.
    """

    ok: bool
    events: int = 0
    sweeps: int = 0
    rounds: int = 0
    refreshed: bool = False
    residual: float = 0.0
    fallback_reason: str | None = None
    migrations: int = 0


class ShardCoordinator:
    """Owns the shard set, the aggregate loads, and the exchange rounds.

    ``data`` is the *class-space* instance (the K-row reduction from
    :mod:`repro.core.aggregate` — a :class:`~repro.core.params.
    ProblemData` or anything with its array attributes) and ``tokens``
    the classes' packed-mask byte tokens in row order.  Classes are
    laid out across ``config.n_shards`` shards by :meth:`_lay_out`;
    ``clients`` optionally pre-registers client -> (token, demand)
    members, routed to their class's shard, and ``allocation``
    optionally hands over (K, N) class rows solved elsewhere
    (row-aligned with ``tokens``) for the shards to hold instead of
    starting empty.
    """

    def __init__(self, data, tokens: Sequence[bytes],
                 config: ShardingConfig | None = None, *,
                 clients: dict[str, tuple[bytes, float]] | None = None,
                 allocation: np.ndarray | None = None,
                 recorder: Recorder | None = None) -> None:
        cfg = config if config is not None else ShardingConfig()
        tokens = list(tokens)
        mask = np.asarray(data.mask, dtype=bool)
        if len(tokens) != mask.shape[0]:
            raise ValidationError("need one token per class row")
        if allocation is not None:
            allocation = np.asarray(allocation, dtype=float)
            if allocation.shape != mask.shape:
                raise ValidationError("need one allocation row per class")
        self.config = cfg
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.B = np.asarray(data.B, dtype=float).copy()
        self.u = np.asarray(data.u, dtype=float).copy()
        self.alpha = np.asarray(data.alpha, dtype=float).copy()
        self.beta = np.asarray(data.beta, dtype=float).copy()
        self.gamma = np.asarray(data.gamma, dtype=float).copy()
        self.shards: list[SolveShard] = []
        self._token_shard: dict[bytes, int] = {}
        self._lay_out(cfg.n_shards, tokens, mask,
                      np.asarray(data.R, dtype=float), allocation,
                      clients or {})
        self.rounds_total = 0
        self.refreshes = 0
        self.fallbacks = 0
        self.events_applied = 0
        self.migrations = 0
        self.resizes = 0
        self._pool: ShardWorkerPool | None = None
        self._emitted_static = 0
        self._emitted_round = 0
        self._closed = False

    def _lay_out(self, n_shards: int, tokens: list[bytes], masks: np.ndarray,
                 demands: np.ndarray, rows: np.ndarray | None,
                 clients: dict[str, tuple[bytes, float]]) -> int:
        """Lay the classes out on ``n_shards`` shards; classes moved.

        The one shard-layout primitive: an LPT partition of ``demands``
        (:func:`~repro.core.shard.partition_classes`), one
        :class:`SolveShard` per part holding its classes' masks,
        demands, ``rows`` (``None`` = start empty) and client
        registrations, and the token -> shard routing table.  Rows pass
        through unchanged, so re-laying the plane's own snapshot
        conserves loads, residual and every registration.  A layout
        equal to the current one (same shard count, no class moves) is
        a no-op.  Returns how many held classes changed shard.
        """
        shard_of = partition_classes(demands, n_shards)
        token_shard = {t: int(shard_of[i]) for i, t in enumerate(tokens)}
        moved = sum(1 for t, s in token_shard.items()
                    if self._token_shard.get(t, s) != s)
        if n_shards == len(self.shards) and not moved:
            return 0
        for c, (t, _) in clients.items():
            if t not in token_shard:
                raise ValidationError(
                    f"client {c!r} registered to an unknown class")
        cfg = self.config
        shards = []
        for s in range(n_shards):
            idx = np.flatnonzero(shard_of == s)
            stokens = [tokens[int(i)] for i in idx]
            own = set(stokens)
            shards.append(SolveShard(
                s, tokens=stokens, demands=demands[idx],
                capacities=self.B, prices=self.u, alpha=self.alpha,
                beta=self.beta, gamma=self.gamma, mask=masks[idx],
                allocation=None if rows is None else rows[idx],
                clients={c: r for c, r in clients.items() if r[0] in own},
                drift_limit=cfg.drift_limit))
        self.shards = shards
        self._token_shard = token_shard
        self.refresh_loads()
        return moved

    def _relay(self, n_shards: int) -> int:
        """Re-lay the plane's own classes, rows and clients; classes moved."""
        tokens, masks, demands, rows = self.class_snapshot()
        return self._lay_out(n_shards, tokens, masks, demands, rows,
                             {c: (t, d) for c, t, d in self.clients()})

    # -- views ---------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Current shard count (only :meth:`resize` changes it)."""
        return len(self.shards)

    @property
    def n_replicas(self) -> int:
        """N, the replica count the plane is keyed to."""
        return self.B.shape[0]

    @property
    def n_classes(self) -> int:
        """Total class rows across all shards."""
        return sum(sh.n_rows for sh in self.shards)

    @property
    def max_shard_rows(self) -> int:
        """The widest shard's row count — the per-round critical path."""
        return max((sh.n_rows for sh in self.shards), default=0)

    @property
    def worker_pool(self) -> ShardWorkerPool | None:
        """The persistent process-mode worker fleet, if one is live.

        Exposes the fleet's shipped-byte accounting (``static_bytes``,
        ``round_bytes``, ``rounds_shipped``, ``reships``) to experiments
        and benchmarks; ``None`` before the first process-mode round or
        in other execution modes.
        """
        return self._pool

    def refresh_loads(self) -> None:
        """Re-derive the aggregate column loads from the shards."""
        loads = np.zeros(self.B.shape[0])
        for sh in self.shards:
            loads += sh.loads
        self.loads = loads

    def background(self, shard_id: int) -> np.ndarray:
        """Column loads every shard *except* ``shard_id`` contributes."""
        return np.maximum(self.loads - self.shards[shard_id].loads, 0.0)

    def mu(self) -> np.ndarray:
        """The broadcast dual-price vector: marginal energy cost at ``L``.

        This is the shared price field the exchange rounds implicitly
        fix — each shard's background plus the cost curve evaluates to
        exactly these marginals at the aggregate operating point.
        """
        L = np.maximum(self.loads, 0.0)
        return self.u * (self.alpha
                         + self.beta * self.gamma * L ** (self.gamma - 1.0))

    def objective(self) -> float:
        """``E_g`` at the aggregate column loads (Eq. 1)."""
        L = np.maximum(self.loads, 0.0)
        return float(np.sum(self.u * (self.alpha * L
                                      + self.beta * L ** self.gamma)))

    def rows_for(self, tokens: Sequence[bytes]) -> np.ndarray:
        """Class allocation rows for ``tokens``, whichever shard owns them."""
        rows = np.zeros((len(tokens), self.n_replicas))
        for i, t in enumerate(tokens):
            s = self._token_shard.get(t)
            if s is None:
                raise ValidationError("unknown class token")
            rows[i] = self.shards[s].state.row(t)
        return rows

    def mu_for(self, tokens: Sequence[bytes]) -> np.ndarray:
        """Per-class multipliers for ``tokens`` at the current loads.

        Each owning shard recovers its classes' multipliers once against
        its current background (:meth:`~repro.core.incremental.
        IncrementalState.mu` convention: minus the cheapest eligible
        marginal), so a single shard returns exactly its state's values.
        """
        self.refresh_loads()
        by_shard: dict[int, list[int]] = {}
        for i, t in enumerate(tokens):
            s = self._token_shard.get(t)
            if s is None:
                raise ValidationError("unknown class token")
            by_shard.setdefault(s, []).append(i)
        mu = np.zeros(len(tokens))
        for s, idx in by_shard.items():
            st = self.shards[s].state
            st.set_background(self.background(s))
            mu[idx] = st.mu_for([tokens[i] for i in idx])
        return mu

    # -- the client registry (owned by the shards' states) ---------------------
    def registered(self, client: str) -> tuple[bytes, float] | None:
        """The (token, demand) registration of ``client``, or ``None``."""
        for sh in self.shards:
            reg = sh.state.clients.get(client)
            if reg is not None:
                return reg
        return None

    def clients(self) -> Iterator[tuple[str, bytes, float]]:
        """Every registered ``(client, token, demand)``, shard by shard."""
        for sh in self.shards:
            for client, (token, demand) in sh.state.clients.items():
                yield client, token, demand

    def class_snapshot(self) -> tuple[list[bytes], np.ndarray, np.ndarray,
                                      np.ndarray]:
        """``(tokens, masks, demands, rows)`` of every class, in one pass.

        Copies, row-aligned across the four: the class-space instance
        the plane currently solves plus its allocation.
        """
        states = [sh.state for sh in self.shards]
        return ([t for st in states for t in st.tokens],
                np.concatenate([st.masks for st in states]),
                np.concatenate([st.D for st in states]),
                np.concatenate([st.Q for st in states]))

    def residual(self) -> float:
        """The global convergence residual (relative, 0 = converged).

        The worst of: capacity overshoot relative to the column's
        capacity, cross-shard KKT gap (each shard checked against its
        current background), and per-row demand shortfall.
        """
        self.refresh_loads()
        over = (self.loads - self.B) / np.maximum(self.B, 1e-9)
        resid = float(np.max(over, initial=0.0))
        for sh in self.shards:
            if sh.n_rows:
                resid = max(resid, sh.kkt_gap(self.background(sh.shard_id)),
                            sh.demand_error())
        return max(resid, 0.0)

    # -- exchange rounds ------------------------------------------------------
    def solve(self, *, max_rounds: int | None = None,
              tol: float | None = None) -> CoordinatorResult:
        """Run dual-price exchange rounds until the residual is within tol."""
        cfg = self.config
        max_rounds = cfg.max_rounds if max_rounds is None else int(max_rounds)
        tol = cfg.tol if tol is None else float(tol)
        t0 = perf_counter()
        rounds = 0
        sweeps = 0
        resid = self.residual()
        # Adaptive damping: a fixed factor can stall in a small limit
        # cycle (simultaneous best responses overshooting each other);
        # when the residual stops contracting for a few rounds, halve
        # the damping.  The decision uses only the gathered residual,
        # so it is identical across execution modes.
        damping = cfg.damping
        best = resid
        stall = 0
        pool = None
        if len(self.shards) > 1 and cfg.mode == "process":
            if self._pool is None:
                self._pool = ShardWorkerPool(max_workers=cfg.max_workers)
            pool = self._pool
        while resid > tol and rounds < max_rounds:
            r0 = perf_counter()
            results = self._run_round(pool, damping)
            round_wall = perf_counter() - r0
            rounds += 1
            self.rounds_total += 1
            sweeps += sum(r.sweeps for r in results)
            resid = self.residual()
            if resid <= 0.9 * best:
                stall = 0
            else:
                stall += 1
                if stall >= 3:
                    damping = max(0.5 * damping, 0.05)
                    stall = 0
            best = min(best, resid)
            if self.recorder.enabled:
                self.recorder.event(
                    "coordinator.round", round=self.rounds_total,
                    residual=resid, n_shards=self.n_shards,
                    wall_s=round_wall)
                self.recorder.sample("coordinator.residual", resid)
                total_demand = sum(sh.demand() for sh in self.shards)
                for r in results:
                    sh = self.shards[r.shard]
                    self.recorder.event(
                        "shard.solve", shard=r.shard,
                        rows=sh.n_rows, sweeps=r.sweeps,
                        converged=r.converged,
                        demand_share=(sh.demand() / total_demand
                                      if total_demand > 0.0 else 0.0))
        if self.recorder.enabled and self._pool is not None:
            ds = self._pool.static_bytes - self._emitted_static
            dr = self._pool.round_bytes - self._emitted_round
            if ds:
                self.recorder.count("shard.bytes_static", ds)
            if dr:
                self.recorder.count("shard.bytes_round", dr)
            self._emitted_static = self._pool.static_bytes
            self._emitted_round = self._pool.round_bytes
        converged = resid <= tol
        if self.recorder.enabled:
            self.recorder.event(
                "coordinator.solve", rounds=rounds, residual=resid,
                converged=converged, n_shards=self.n_shards,
                n_classes=self.n_classes)
        return CoordinatorResult(rounds=rounds, sweeps=sweeps,
                                 residual=resid, converged=converged,
                                 wall_s=perf_counter() - t0)

    def _run_round(self, pool: ShardWorkerPool | None,
                   damping: float) -> list:
        """One Jacobi round: broadcast backgrounds, gather shard responses.

        Backgrounds all come from the same pre-round load snapshot, so
        the round is order-independent — the two execution modes only
        differ in where the identical arithmetic runs.
        """
        bgs = [self.background(s) for s in range(len(self.shards))]
        if pool is None:
            return [sh.solve_round(bgs[i], damping)
                    for i, sh in enumerate(self.shards)]
        return pool.run_round(self.shards, bgs, damping)

    # -- event / chunk routing ------------------------------------------------
    def _split_target(self, tokens: Sequence[bytes], masks: np.ndarray,
                      demands: np.ndarray) -> list:
        """Split a class target by owning shard; new tokens go lightest."""
        per: list[tuple[list, list, list]] = \
            [([], [], []) for _ in self.shards]
        totals = [sh.demand() for sh in self.shards]
        for i, t in enumerate(tokens):
            s = self._token_shard.get(t)
            if s is None:
                s = self._lightest(totals)
                self._token_shard[t] = s
            totals[s] += float(demands[i])
            per[s][0].append(t)
            per[s][1].append(masks[i])
            per[s][2].append(float(demands[i]))
        out = []
        for tk, mk, dm in per:
            out.append((tk,
                        np.asarray(mk, dtype=bool).reshape(
                            len(tk), self.n_replicas),
                        np.asarray(dm, dtype=float)))
        return out

    @staticmethod
    def _lightest(totals: Sequence[float]) -> int:
        """Home of a new class: the lightest shard, ties to the lowest id."""
        return min(range(len(totals)), key=lambda j: (totals[j], j))

    @staticmethod
    def _touch_after(sh: SolveShard, n_before: int) -> None:
        """Post-mutation touch: geometry bump only on membership change.

        Demand and allocation updates ride the per-round delta (demands
        in the task, rows via the republished state block), so a shard
        whose class set is unchanged keeps its worker-side geometry
        cache warm; adding or removing a class re-ships the static.
        """
        if sh.state.n_classes != n_before:
            sh.touch()
        else:
            sh.touch_demands()

    def retarget(self, tokens: Sequence[bytes], masks: np.ndarray,
                 demands: np.ndarray) -> RoutedResult:
        """Move the plane to a new per-class demand target (chunk turnover).

        Each shard retargets its own slice incrementally against the
        other shards' loads; classes a shard owns that are absent from
        the target drain to zero inside that shard.  Full exchange
        rounds run only if the resulting global residual exceeds the
        refresh threshold.  A shard that declines (capacity, drift,
        convergence, stale) is *not* repaired here: the call returns
        ``ok=False`` with the shard's ``fallback_reason`` and the plane
        is stale — the caller re-solves the target and arms a new plane
        from that solution (``allocation=``).
        """
        masks = np.asarray(masks, dtype=bool)
        demands = np.asarray(demands, dtype=float)
        if masks.shape != (len(tokens), self.n_replicas) \
                or demands.shape != (len(tokens),):
            raise ValidationError("retarget shapes do not match tokens")
        split = self._split_target(tokens, masks, demands)
        events = 0
        sweeps = 0
        for s, sh in enumerate(self.shards):
            self.refresh_loads()
            sh.state.set_background(self.background(s))
            k0 = sh.state.n_classes
            r = sh.state.retarget(*split[s])
            self._touch_after(sh, k0)
            if not r.ok:
                self.fallbacks += 1
                if self.recorder.enabled:
                    self.recorder.count("shard.fallback", reason=r.reason)
                return RoutedResult(ok=False, fallback_reason=r.reason)
            events += r.events
            sweeps += r.sweeps
        return self._maybe_refresh(events, sweeps)

    def _maybe_refresh(self, events: int, sweeps: int) -> RoutedResult:
        """Schedule exchange rounds only when the residual drifted.

        The skew check runs first: a re-layout moves classes *with*
        their allocation rows, so it changes neither the loads nor the
        residual — re-partitioning rides along with routed events.
        """
        migrated = self.rebalance()
        resid = self.residual()
        rounds = 0
        refreshed = False
        if resid > self.config.refresh_residual:
            res = self.solve()
            resid = res.residual
            rounds = res.rounds
            sweeps += res.sweeps
            refreshed = True
            self.refreshes += 1
            if self.recorder.enabled:
                self.recorder.count("coordinator.refresh")
        self.events_applied += events
        return RoutedResult(ok=True, events=events, sweeps=sweeps,
                            rounds=rounds, refreshed=refreshed,
                            residual=resid, migrations=migrated)

    def apply_event(
            self, event: "ClientArrival | ClientDeparture | DemandChange"
    ) -> RoutedResult:
        """Route one client event to its owning shard; O(K_s * N).

        Arrivals go to their class's shard (new classes to the lightest
        shard); departures and demand changes follow the client's
        registration.  The shard absorbs the event incrementally against
        the other shards' loads.  An invalid event raises with the plane
        unchanged: a new class is routed only once its shard has
        recorded the event.  A decline has already recorded the event
        (the state's one decline contract), so recovery is the same
        whatever the reason: clear stale at the state's own ``D`` and
        re-fill with exchange rounds — the plane never goes stale.
        """
        reg = self.registered(event.client)
        if isinstance(event, ClientArrival):
            if reg is not None:
                raise ValidationError(
                    f"client {event.client!r} already registered")
            token = np.asarray(event.eligibility, dtype=bool).tobytes()
        elif reg is None:
            raise ValidationError(f"unknown client {event.client!r}")
        else:
            token = reg[0]
        s = self._token_shard.get(token)
        if s is None:
            s = self._lightest([sh.demand() for sh in self.shards])
        self.refresh_loads()
        sh = self.shards[s]
        st = sh.state
        st.set_background(self.background(s))
        k0 = st.n_classes
        r = st.apply_event(event)
        self._token_shard[token] = s
        self._touch_after(sh, k0)
        if r.ok:
            if self.recorder.enabled:
                self.recorder.count("shard.event", shard=s)
            return self._maybe_refresh(r.events, r.sweeps)
        self.fallbacks += 1
        if self.recorder.enabled:
            self.recorder.count("shard.fallback", reason=r.reason)
        st.force_target(list(st.tokens), st.masks, st.D)
        res = self.solve()
        self.refreshes += 1
        return RoutedResult(ok=True, events=1, sweeps=res.sweeps,
                            rounds=res.rounds, refreshed=True,
                            residual=res.residual, fallback_reason=r.reason)

    # -- membership -----------------------------------------------------------
    def fail_replica(self, index: int) -> None:
        """Drop a dead replica's column across every shard, mid-flight.

        A class left with positive demand but no eligible replica raises
        :class:`~repro.errors.InfeasibleProblemError` — the same
        contract the monolithic runtime enforces via its feasibility
        checks.  Call :meth:`solve` afterwards to re-spread the dead
        column's load.
        """
        j = int(index)
        if not 0 <= j < self.n_replicas:
            raise ValidationError("replica index out of range")
        self.B[j] = 0.0
        for sh in self.shards:
            sh.drop_replica(j)
            st = sh.state
            orphaned = (st.D > 0.0) & ~st.masks.any(axis=1)
            if orphaned.any():
                raise InfeasibleProblemError(
                    "a class has positive demand but no eligible replica "
                    "after the replica failure")
        self.refresh_loads()

    # -- elasticity: skew repair and shard count -------------------------------
    def demand_skew(self) -> float:
        """Heaviest shard's demand over the mean shard demand (>= 1)."""
        if len(self.shards) < 2:
            return 1.0
        demands = [sh.demand() for sh in self.shards]
        total = sum(demands)
        if total <= 0.0:
            return 1.0
        return max(demands) * len(demands) / total

    def rebalance(self) -> int:
        """Skew repair: re-lay the plane by LPT; returns classes moved.

        Runs only while the heaviest shard's demand exceeds
        ``rebalance_skew`` times the mean, and re-lays only if the LPT
        layout of the current class demands brings the skew back within
        that bound — unrepairable skew (one class outweighing a fair
        share) leaves the plane as it is instead of rebuilding it on
        every event.  The decision reads class demands only, and the
        re-layout moves rows with their classes, so it is identical
        across execution modes and needs no refresh of its own.
        """
        cfg = self.config
        n = len(self.shards)
        if cfg.rebalance_skew is None or n < 2:
            return 0
        skew_before = self.demand_skew()
        if skew_before <= cfg.rebalance_skew:
            return 0
        demands = np.concatenate([sh.state.D for sh in self.shards])
        totals = np.bincount(partition_classes(demands, n),
                             weights=demands, minlength=n)
        if totals.max() * n > cfg.rebalance_skew * totals.sum():
            return 0
        moved = self._relay(n)
        self.migrations += moved
        if moved and self.recorder.enabled:
            self.recorder.count("coordinator.migration", moved)
            self.recorder.event(
                "coordinator.repartition", moves=moved, n_shards=n,
                skew_before=skew_before, skew_after=self.demand_skew())
        return moved

    def resize(self, n_shards: int) -> None:
        """Re-lay every class onto ``n_shards`` shards, warm.

        Classes move with their allocation rows and client registries,
        so the aggregate loads — and the residual — survive the resize.
        The persistent worker fleet stays up: the new shard geometries
        simply ship on the next exchange round.
        """
        n = int(n_shards)
        if n < 1:
            raise ValidationError("n_shards must be >= 1")
        if n == len(self.shards):
            return
        old_n = len(self.shards)
        self._relay(n)
        self.resizes += 1
        if self.recorder.enabled:
            self.recorder.event(
                "coordinator.resize", from_shards=old_n, to_shards=n,
                n_classes=self.n_classes)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Release the persistent worker fleet and its shared memory.

        Idempotent, and the coordinator stays usable afterwards: the
        next concurrent solve simply re-creates its executor lazily.
        """
        self._closed = True
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # safety net; close() is the contract
        try:
            self.close()
        except Exception:
            pass


def solve_sharded(problem, n_shards: int = 4, *, mode: str = "serial",
                  config: ShardingConfig | None = None,
                  recorder: Recorder | None = None) -> Solution:
    """Solve one instance end-to-end through the sharded plane.

    Aggregates ``problem`` to class space, partitions the classes across
    shards, runs exchange rounds to the configured tolerance and expands
    the class rows back to a client-space :class:`Solution`.  With
    ``n_shards=1`` the plane degenerates and this delegates *literally*
    to :func:`repro.core.aggregate.solve_aggregated` — bit-identical to
    the monolithic aggregated solve by construction.  Either way
    ``recorder`` times the stages as ``aggregate.group`` / ``.reduce`` /
    ``.solve`` / ``.expand`` spans.
    """
    cfg = config if config is not None \
        else ShardingConfig(n_shards=n_shards, mode=mode)
    if cfg.n_shards == 1:
        return solve_aggregated(problem, "lddm", recorder=recorder)
    rec = recorder if recorder is not None else NULL_RECORDER
    t0 = perf_counter()
    agg = aggregate_problem(problem, recorder=rec)
    with rec.span("aggregate.solve"), \
            ShardCoordinator(agg.problem.data, list(agg.structure.keys),
                             cfg, recorder=rec) as coord:
        res = coord.solve()
        rows = coord.rows_for(list(agg.structure.keys))
    with rec.span("aggregate.expand"):
        P = agg.structure.expand_rows(rows)
    return Solution(
        allocation=P,
        objective=model.total_energy(problem.data, P),
        iterations=res.rounds,
        converged=res.converged,
        method="sharded",
        solve_time_s=perf_counter() - t0,
        n_classes=agg.n_classes)

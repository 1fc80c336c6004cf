"""Sharded dual-price control plane: coordinator over solve shards.

The plane splits the class space into independent
:class:`~repro.core.shard.SolveShard`\\ s and reconciles the *shared*
resource — replica capacity — with a few dual-price exchange rounds, the
decomposition by prices Mathew et al.'s energy-aware CDN balancing
(arXiv:1109.5641) exploits across clusters and Lučanin's geo-distributed
pricing (arXiv:1809.05853) across data centers.

One :meth:`ShardCoordinator.solve` round:

1. the coordinator snapshots the aggregate column loads ``L`` and
   broadcasts to shard ``s`` its *background* ``L - L_s``, which with
   the energy curve fixes the marginal-price field ``mu = E'(L)``;
2. every shard best-responds simultaneously (Jacobi): a batched
   water-fill of its rows against the background
   (:func:`repro.core.kernels.waterfill_rows`), an intra-shard
   Gauss–Seidel polish, and damping against its previous rows;
3. the coordinator gathers the loads and stops once the global residual
   — the worst of relative capacity overshoot, cross-shard KKT gap and
   per-row demand shortfall — is within tolerance.

Each round's inputs are one broadcast snapshot, so ``serial`` and
``process`` modes are bit-identical.  Client events enter through
:meth:`ShardCoordinator.apply_events` — validated and certified feasible
as a batch, recorded on their owning shards, absorbed once per touched
shard — and chunk targets through :meth:`ShardCoordinator.retarget`;
both absorb in the owning shard against the other shards' loads, O(K_s
* N) independent of the client count, and run exchange rounds only when
the residual drifts past the refresh threshold.  A declined event batch
is recovered in place; a declined retarget is reported, and the caller
re-solves and re-arms.

The coordinator is *long-lived*: its process-mode worker fleet
(:mod:`repro.core.shard_workers`) starts on the first concurrent round
and lives until :meth:`ShardCoordinator.close`.  Shards are laid out in
one place, an LPT partition of the class demands
(:func:`~repro.core.shard.partition_classes`);
:meth:`ShardCoordinator.rebalance` re-lays the plane from its own rows
when per-shard demand skews past ``rebalance_skew`` and
:meth:`ShardCoordinator.resize` onto another shard count.  A re-layout
moves rows, not load, and its decision reads class demands only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core import model
from repro.core.aggregate import aggregate_problem
from repro.core.api import solve as core_solve
from repro.core.certify import certify
from repro.core.incremental import (
    ClientArrival,
    ClientDeparture,
    DemandChange,
    EventResult,
    IncrementalState,
    check_event,
)
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.shard import (
    SolveShard,
    exchange_rounds,
    partition_classes,
    plane_residual,
)
from repro.core.shard_workers import ShardWorkerPool
from repro.core.solution import Solution
from repro.errors import InfeasibleProblemError, ValidationError
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = ["ShardingConfig", "CoordinatorResult", "RoutedResult",
           "ShardCoordinator", "solve_sharded"]

_MODES = ("serial", "process")

#: How far the plane's own rows may sit from feasible (relative) and
#: still serve as the batch certificate's witness point.
_WITNESS_RTOL = 1e-12

#: The relative dual-bound gap exchange rounds must certify to
#: (:meth:`ShardCoordinator._settle`).
_CERTIFY_GAP = 1e-6


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
    """Outcome of an event batch or chunk retarget.

    ``rounds`` counts the exchange rounds a residual-triggered refresh
    (or a batch's fallback recovery) ran — zero for the common
    absorbed-in-shard case.  ``fallback_reason`` names the shard's
    decline: recovered in place by :meth:`ShardCoordinator.apply_events`,
    returned as ``ok=False`` by :meth:`ShardCoordinator.retarget`.
    ``migrations`` counts classes whose owning shard changed when the
    skew check re-laid the plane while absorbing the update — rows move
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
        self.resolves = 0
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
        return plane_residual(self.shards, self.loads, self.B,
                              self.background)

    # -- exchange rounds ------------------------------------------------------
    def solve(self, *, max_rounds: int | None = None,
              tol: float | None = None) -> CoordinatorResult:
        """Run dual-price exchange rounds until the residual is within tol.

        A plane whose residual reaches ``tol`` is converged only once it
        certifies (:meth:`_settle`): per-row best response can stop at a
        zero residual far above the optimum, and such a plane is re-laid
        from the certified solve of its own class instance.
        """
        cfg = self.config
        max_rounds = cfg.max_rounds if max_rounds is None else int(max_rounds)
        tol = cfg.tol if tol is None else float(tol)
        t0 = perf_counter()
        pool = None
        if len(self.shards) > 1 and cfg.mode == "process":
            if self._pool is None:
                self._pool = ShardWorkerPool(max_workers=cfg.max_workers)
            pool = self._pool

        def traced(results: list, resid: float, round_wall: float) -> None:
            self.rounds_total += 1
            if not self.recorder.enabled:
                return
            self.recorder.event(
                "coordinator.round", round=self.rounds_total,
                residual=resid, n_shards=self.n_shards, wall_s=round_wall)
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

        # Adaptive damping: a fixed factor can stall in a small limit
        # cycle (simultaneous best responses overshooting each other);
        # when the residual stops contracting for a few rounds, halve
        # the damping.  The decision uses only the gathered residual,
        # so it is identical across execution modes.
        ran = exchange_rounds(
            lambda damping: self._run_round(pool, damping), self.residual,
            tol=tol, max_rounds=max_rounds, damping=cfg.damping,
            on_stall=lambda damping: max(0.5 * damping, 0.05),
            on_round=traced)
        rounds, sweeps, resid = ran.rounds, ran.sweeps, ran.residual
        if self.recorder.enabled and self._pool is not None:
            ds = self._pool.static_bytes - self._emitted_static
            dr = self._pool.round_bytes - self._emitted_round
            if ds:
                self.recorder.count("shard.bytes_static", ds)
            if dr:
                self.recorder.count("shard.bytes_round", dr)
            self._emitted_static = self._pool.static_bytes
            self._emitted_round = self._pool.round_bytes
        if resid <= tol:
            resid = self._settle(resid, tol)
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

    def _update(self, s: int, update: Callable[[IncrementalState],
                                                EventResult]) -> EventResult:
        """Shard ``s`` runs ``update`` priced against the other shards'
        current loads; a decline is counted here."""
        self.refresh_loads()
        st = self.shards[s].state
        st.set_background(self.background(s))
        r = update(st)
        if not r.ok:
            self.fallbacks += 1
            if self.recorder.enabled:
                self.recorder.count("shard.fallback", reason=r.reason)
        return r

    def retarget(self, tokens: Sequence[bytes], masks: np.ndarray,
                 demands: np.ndarray) -> RoutedResult:
        """Move the plane to a new per-class demand target (chunk turnover).

        Each shard retargets its slice (new classes go to the lightest
        shard; classes it owns that are absent drain to zero):
        :meth:`~repro.core.incremental.IncrementalState.record_target`,
        then the absorb :meth:`apply_events` runs.  A
        declining shard is *not* repaired: the call returns ``ok=False``
        with its ``fallback_reason``, the plane is stale, and the caller
        re-solves the target and arms a new plane (``allocation=``).
        """
        masks = np.asarray(masks, dtype=bool)
        demands = np.asarray(demands, dtype=float)
        if masks.shape != (len(tokens), self.n_replicas) \
                or demands.shape != (len(tokens),):
            raise ValidationError("retarget shapes do not match tokens")
        totals = [sh.demand() for sh in self.shards]
        owner = np.zeros(len(tokens), dtype=int)
        for i, t in enumerate(tokens):
            s = self._token_shard.get(t)
            if s is None:
                s = self._token_shard[t] = self._lightest(totals)
            totals[s] += float(demands[i])
            owner[i] = s
        events = sweeps = 0
        for s, sh in enumerate(self.shards):
            idx = np.flatnonzero(owner == s)
            k0 = sh.state.n_classes
            r = self._update(s, lambda st: st.retarget(
                [tokens[i] for i in idx], masks[idx], demands[idx]))
            self._touch_after(sh, k0)
            if not r.ok:
                return RoutedResult(ok=False, fallback_reason=r.reason)
            events += r.events
            sweeps += r.sweeps
        return self._maybe_refresh(events, sweeps)

    def _maybe_refresh(self, events: int, sweeps: int) -> RoutedResult:
        """Schedule exchange rounds only when the residual drifted.

        The skew check runs first: a re-layout moves classes *with*
        their allocation rows, so it changes neither the loads nor the
        residual — re-partitioning rides along with routed events.
        Refresh rounds end settled (:meth:`_settle`).
        """
        migrated = self.rebalance()
        resid = self.residual()
        rounds = 0
        refreshed = False
        if resid > self.config.refresh_residual:
            resid, rounds, swept = self._refresh()
            sweeps += swept
            refreshed = True
            if self.recorder.enabled:
                self.recorder.count("coordinator.refresh")
        self.events_applied += events
        return RoutedResult(ok=True, events=events, sweeps=sweeps,
                            rounds=rounds, refreshed=refreshed,
                            residual=resid, migrations=migrated)

    def _refresh(self) -> tuple[float, int, int]:
        """Exchange rounds for an update, ended settled: ``(residual,
        rounds, sweeps)``.  :meth:`solve` settles a plane that reached
        ``tol``; one whose rounds stopped above it is settled here."""
        res = self.solve()
        self.refreshes += 1
        resid = res.residual if res.converged else self._settle(res.residual)
        return resid, res.rounds, res.sweeps

    def _settle(self, resid: float, tol: float | None = None) -> float:
        """End exchange rounds certified; the residual they end at.

        Runs where exchange rounds ran — :meth:`solve` and an update's
        refresh or decline recovery — and nowhere else: an update its
        shards absorb without rounds is left as the absorb left it (an
        absorb that stalls on a full column declines, see
        :meth:`~repro.core.incremental.IncrementalState.stalled`).  The
        residual is not an optimality certificate: the rounds can stop
        above ``tol``, and per-row best response can stall where a
        capacity-bound column couples two rows (moving load then needs a
        two-row swap no row sees).  So a plane whose rounds ended above
        ``tol`` (default ``config.tol``) or that fails the LDDM dual
        bound (:func:`~repro.core.certify.certify`) at ``_CERTIFY_GAP``
        is re-laid — through the LPT builder — from the certified
        water-fill solve of its own class instance, unless that solve is
        no better than the plane's own feasible rows.
        """
        tol = self.config.tol if tol is None else tol
        tokens, masks, demands, rows, problem, live = self._own_instance()
        held = certify(problem, rows[:, live])
        if resid <= tol and held.gap <= _CERTIFY_GAP:
            return resid
        solved = core_solve(problem, "waterfill")
        if math.isfinite(held.gap) and solved.objective >= held.primal:
            return resid        # the plane's feasible rows are no worse
        rows = np.zeros(masks.shape)
        rows[:, live] = solved.allocation
        clients = {c: (t, d) for c, t, d in self.clients()}
        n_shards = self.n_shards
        self.shards = []        # new rows: `_lay_out` starts afresh
        self._lay_out(n_shards, tokens, masks, demands, rows, clients)
        self.resolves += 1
        if self.recorder.enabled:
            self.recorder.count("coordinator.resolve")
        return self.residual()

    def _own_instance(self) -> tuple[list[bytes], np.ndarray, np.ndarray,
                                     np.ndarray, ReplicaSelectionProblem,
                                     np.ndarray]:
        """:meth:`class_snapshot` plus the instance it solves, on the
        live columns ``live`` (a dead replica has no capacity)."""
        tokens, masks, demands, rows = self.class_snapshot()
        live = self.B > 0.0
        problem = ReplicaSelectionProblem(ProblemData(
            demands=demands, capacities=self.B[live], prices=self.u[live],
            alpha=self.alpha[live], beta=self.beta[live],
            gamma=self.gamma[live], mask=masks[:, live]))
        return tokens, masks, demands, rows, problem, live

    def apply_event(
            self, event: "ClientArrival | ClientDeparture | DemandChange"
    ) -> RoutedResult:
        """One client event: :meth:`apply_events` on a batch of one."""
        return self.apply_events([event])

    def apply_events(self, events: Sequence[
            "ClientArrival | ClientDeparture | DemandChange"]) -> RoutedResult:
        """The one way client events enter the plane; O(K_s * N) per shard.

        1. **Validate** the batch against the registry plus what earlier
           events in it did (``ValidationError("event <i>: ...")``);
        2. **certify** the post-batch instance feasible
           (``InfeasibleProblemError``) — both before anything is
           written (:meth:`_check_batch`);
        3. **Record** every event on its owning shard: arrivals go to
           their class's shard (new classes to the lightest), departures
           and demand changes follow the client's registration;
        4. **Absorb** each touched shard's net class-demand change once
           (:meth:`~repro.core.incremental.IncrementalState.absorb`),
           shrinking shards first — an arrival and a departure in one
           class cancel before any solve — then refresh only if the
           residual drifted;
        5. **Recover** a decline in place: the events are recorded, so
           whatever the reason the shard is force-targeted at its own
           ``D`` and exchange rounds re-fill every row;
        6. **Settle** (:meth:`_settle`): exchange rounds (a refresh or
           the recovery) that end uncertified re-lay the plane from the
           certified solve of its own class instance.
        """
        events = list(events)
        if not events:
            return RoutedResult(ok=True)
        tokens = self._check_batch(events)
        # shard -> ({class row: demand before}, class count before)
        touched: dict[int, tuple[dict[int, float], int]] = {}
        for event, token in zip(events, tokens):
            s = self._token_shard.get(token)
            if s is None:
                s = self._token_shard[token] = self._lightest(
                    [sh.demand() for sh in self.shards])
            st = self.shards[s].state
            before, _ = touched.setdefault(s, ({}, st.n_classes))
            k, d = st.record(event)
            before.setdefault(k, d)
            if self.recorder.enabled:
                self.recorder.count("shard.event", shard=s)
        growth = {}
        for s, (before, n_before) in touched.items():
            self._touch_after(self.shards[s], n_before)
            D = self.shards[s].state.D
            growth[s] = sum(float(D[k]) - d for k, d in before.items())
        sweeps = 0
        # Shrinking shards first, so growing ones see the freed headroom.
        for s in sorted(touched, key=lambda s: (growth[s], s)):
            r = self._update(s, lambda st: st.absorb(touched[s][0]))
            if not r.ok:
                st = self.shards[s].state
                st.force_target(list(st.tokens), st.masks, st.D)
                resid, rounds, swept = self._refresh()
                return RoutedResult(
                    ok=True, events=len(events), sweeps=sweeps + swept,
                    rounds=rounds, refreshed=True, residual=resid,
                    fallback_reason=r.reason)
            sweeps += r.sweeps
        return self._maybe_refresh(len(events), sweeps)

    def _check_batch(self, events: list) -> list[bytes]:
        """Validate and certify a batch without writing; each event's token.

        Every event is checked by :func:`~repro.core.incremental.
        check_event` against the registry under an in-batch overlay
        (``None`` marks a client the batch removed), which sums the net
        demand change per class.  Certificate: if every class's increase
        fits the free headroom ``B - L`` of its eligible columns (placed
        greedily, most constrained class first) and the plane's own rows
        are feasible, those rows — decreases scaled down, increases in
        the free headroom — are a feasible point of the post-batch
        instance.  Only otherwise does the exact bipartite max-flow
        (:meth:`~repro.core.problem.ReplicaSelectionProblem.
        require_feasible`) decide.
        """
        overlay: dict[str, tuple[bytes, float] | None] = {}
        tokens: list[bytes] = []
        delta: dict[bytes, float] = {}
        arrivals: dict[bytes, np.ndarray] = {}
        for i, event in enumerate(events):
            try:
                token, old, new, row = check_event(
                    event, lambda c: overlay[c] if c in overlay
                    else self.registered(c), self.n_replicas)
            except ValidationError as exc:
                raise ValidationError(f"event {i}: {exc}") from None
            if row is not None:
                arrivals.setdefault(token, row)
            overlay[event.client] = None \
                if isinstance(event, ClientDeparture) else (token, new)
            delta[token] = delta.get(token, 0.0) + new - old
            tokens.append(token)
        held, masks, demands, rows = self.class_snapshot()
        index = {t: k for k, t in enumerate(held)}
        fresh = {t: row for t, row in arrivals.items() if t not in index}
        loads = rows.sum(axis=0)
        free = np.maximum(self.B - loads, 0.0)
        fits = bool(np.all(loads <= self.B * (1.0 + _WITNESS_RTOL))) \
            and bool(np.all(np.abs(rows.sum(axis=1) - demands)
                            <= _WITNESS_RTOL * np.maximum(demands, 1.0)))
        grow = [(fresh[t] if t in fresh else masks[index[t]], d)
                for t, d in delta.items() if d > 0.0]
        for mask, need in sorted(grow, key=lambda g: int(g[0].sum())):
            for j in np.flatnonzero(mask):
                take = min(need, float(free[j]))
                free[j] -= take
                need -= take
            fits = fits and need <= 0.0
        if not fits:
            for t, d in delta.items():
                if t in index:
                    demands[index[t]] += d
            ReplicaSelectionProblem(ProblemData(
                demands=np.maximum(np.concatenate(
                    [demands, [delta[t] for t in fresh]]), 0.0),
                capacities=self.B, prices=self.u, alpha=self.alpha,
                beta=self.beta, gamma=self.gamma,
                mask=np.vstack([masks, *fresh.values()]))).require_feasible()
        return tokens

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
    to ``repro.solve(problem, "waterfill", aggregate=True)`` — the
    certified one-shard sweep, bit-identical to it by construction.
    Either way ``recorder`` times the stages as ``aggregate.group`` /
    ``.reduce`` / ``.solve`` / ``.expand`` spans.
    """
    cfg = config if config is not None \
        else ShardingConfig(n_shards=n_shards, mode=mode)
    if cfg.n_shards == 1:
        return core_solve(problem, "waterfill", aggregate=True,
                          recorder=recorder)
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

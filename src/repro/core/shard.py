"""Solve shards: independent class-slice states for the sharded plane.

The sharded control plane splits the class-space instance (the K-row
reduction :mod:`repro.core.aggregate` produces) across independent
:class:`SolveShard`\\ s.  Each shard owns a slice of the classes — its
rows of the allocation and its own :class:`~repro.core.incremental.
IncrementalState` (carrying the slice's drift/fallback accounting and
client registry) — and best-responds to the
*background*: the column loads every other shard contributes, held fixed
for one exchange round.  The coordinator that broadcasts backgrounds
lives in :mod:`repro.edr.coordinator`; the residual it declares
convergence on and the round loop (:func:`plane_residual`,
:func:`exchange_rounds`) live here, shared with the one-shard water-fill
solve (:mod:`repro.core.waterfill`).  This module is deliberately
runtime-free so the shard math can be tested and process-shipped on its
own.

A solve round is Jacobi with an inner Gauss–Seidel polish:

1. every row of the shard re-water-fills simultaneously against the
   round's base loads (:func:`repro.core.kernels.waterfill_rows` — the
   batched form of the incremental row subproblem),
2. the state's Gauss–Seidel refine fixes the intra-shard interactions
   the simultaneous fill ignored (rows of the *same* shard see each
   other exactly, not one round late), and
3. the new rows are damped against the previous round's rows, which
   breaks the ping-pong oscillation undamped parallel best-response is
   known for when two shards chase the same cheap column.

Because every shard responds to the *same* broadcast state, the round's
outcome is independent of the order — or the process — shards run in:
serial and process execution are bit-identical by
construction, which is what lets the runtime pick concurrency per
deployment without forfeiting reproducibility.

Process execution is the worker fleet in :mod:`repro.core.shard_workers`:
static geometry (small ``(K_s, N)`` arrays — classes, not clients) ships
once through shared memory and a round sends only the mutable slice; the
worker rebuilds the shard from the arrays and runs the identical
``solve_round`` code path.  Shipments are keyed off
:attr:`SolveShard.version`, which every geometry-changing operation
bumps via :meth:`SolveShard.touch`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from repro.core.incremental import IncrementalState
from repro.core.kernels import waterfill_rows
from repro.errors import ValidationError

__all__ = ["Exchange", "ShardRound", "SolveShard", "exchange_rounds",
           "partition_classes", "plane_residual"]

#: Monotone shard-geometry version source.  Versions are unique across
#: every shard ever built in the process, so a worker-side cache keyed
#: by (shard_id, version) can never confuse a rebuilt shard (fresh
#: object, same id) with the one whose geometry it cached.
_VERSION_COUNTER = itertools.count(1)

#: Relative KKT gap a shard's Gauss–Seidel polish certifies rows to, and
#: its sweep cap per refine.  Nothing tunes either per plane.
_KKT_RTOL = 1e-9
_MAX_SWEEPS = 64


def plane_residual(shards: Sequence[SolveShard], loads: np.ndarray,
                   capacities: np.ndarray,
                   background: Callable[[int], np.ndarray]) -> float:
    """The exchange rounds' convergence residual (relative, 0 = converged).

    The worst of: capacity overshoot of the aggregate ``loads`` relative
    to each column's capacity, every non-empty shard's KKT gap against
    ``background(shard_id)``, and its per-row demand shortfall.
    """
    over = (loads - capacities) / np.maximum(capacities, 1e-9)
    resid = float(np.max(over, initial=0.0))
    for sh in shards:
        if sh.n_rows:
            resid = max(resid, sh.kkt_gap(background(sh.shard_id)),
                        sh.demand_error())
    return max(resid, 0.0)


@dataclass(frozen=True)
class Exchange:
    """Outcome of :func:`exchange_rounds`: rounds run, the shards' inner
    sweeps, the final residual and the residual after each round."""

    rounds: int
    sweeps: int
    residual: float
    history: list[float]


def exchange_rounds(step: Callable[[float], Sequence[ShardRound]],
                    residual: Callable[[], float], *, tol: float,
                    max_rounds: int, damping: float,
                    on_stall: Callable[[float], float | None],
                    on_round: Callable[[Sequence[ShardRound], float, float],
                                       None] | None = None) -> Exchange:
    """Solve rounds until the residual is within ``tol``.

    ``step(damping)`` runs one round and returns its shards'
    :class:`ShardRound`\\ s; ``residual()`` measures the plane after it
    (:func:`plane_residual`).  A round *contracts* when its residual is
    within 0.9 of the best seen so far; three rounds in a row that do
    not are a stall, and ``on_stall(damping)`` returns the next rounds'
    damping — or ``None`` to stop there.  ``on_round(results, residual,
    wall_s)`` sees every round.  At most ``max_rounds`` rounds run.
    """
    resid = residual()
    best = resid
    misses = rounds = sweeps = 0
    history: list[float] = []
    while resid > tol and rounds < max_rounds:
        r0 = perf_counter()
        results = step(damping)
        wall = perf_counter() - r0
        rounds += 1
        sweeps += sum(r.sweeps for r in results)
        resid = residual()
        history.append(resid)
        if on_round is not None:
            on_round(results, resid, wall)
        misses = 0 if resid <= 0.9 * best else misses + 1
        best = min(best, resid)
        if misses >= 3:
            misses = 0
            nxt = on_stall(damping)
            if nxt is None:
                break
            damping = nxt
    return Exchange(rounds, sweeps, resid, history)


def partition_classes(demands: np.ndarray, n_shards: int) -> np.ndarray:
    """Demand-balanced class -> shard assignment (deterministic greedy LPT).

    Classes are taken in decreasing demand order (ties by class index)
    and each lands on the currently lightest shard (ties by shard id) —
    the classic longest-processing-time heuristic, which keeps per-shard
    demand within 4/3 of balanced and, more importantly here, is a pure
    function of the demand vector so rebuilt planes repartition the same
    way.
    """
    D = np.asarray(demands, dtype=float)
    if D.ndim != 1:
        raise ValidationError("demands must be one-dimensional")
    S = int(n_shards)
    if S < 1:
        raise ValidationError("n_shards must be >= 1")
    shard_of = np.zeros(D.shape[0], dtype=int)
    totals = [0.0] * S
    for k in np.argsort(-D, kind="stable"):
        s = min(range(S), key=lambda i: (totals[i], i))
        shard_of[int(k)] = s
        totals[s] += float(D[k])
    return shard_of


def _class_slice(demands: np.ndarray, capacities: np.ndarray,
                 prices: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                 gamma: np.ndarray, mask: np.ndarray) -> SimpleNamespace:
    """A class-space instance slice, duck-typed for IncrementalState.

    Deliberately *not* a :class:`~repro.core.params.ProblemData`: a
    shard slice is routinely degenerate in ways the full-instance
    validators reject — drained classes with zero demand and no load,
    zero-capacity columns after a replica death — and the incremental
    state only reads the array attributes.
    """
    mask = np.asarray(mask, dtype=bool)
    return SimpleNamespace(
        R=np.asarray(demands, dtype=float),
        B=np.asarray(capacities, dtype=float),
        u=np.asarray(prices, dtype=float),
        alpha=np.asarray(alpha, dtype=float),
        beta=np.asarray(beta, dtype=float),
        gamma=np.asarray(gamma, dtype=float),
        mask=mask, shape=mask.shape, n_clients=mask.shape[0])


@dataclass(frozen=True)
class ShardRound:
    """Outcome of one :meth:`SolveShard.solve_round`.

    ``loads`` are the shard's own column loads after the round;
    ``fit`` is False when some class demand exceeded its headroom (the
    shard grabbed all of it and left demand unmet — the coordinator
    keeps iterating while other shards vacate capacity); ``converged``
    folds ``fit`` with the inner refine's KKT convergence.
    """

    shard: int
    loads: np.ndarray
    sweeps: int
    converged: bool
    fit: bool


class SolveShard:
    """One shard of the sharded plane: a class slice plus its solve state."""

    def __init__(self, shard_id: int, *, tokens: Sequence[bytes],
                 demands: np.ndarray, capacities: np.ndarray,
                 prices: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                 gamma: np.ndarray, mask: np.ndarray,
                 allocation: np.ndarray | None = None,
                 clients: dict[str, tuple[bytes, float]] | None = None,
                 drift_limit: float = 2.5) -> None:
        data = _class_slice(demands, capacities, prices, alpha, beta,
                            gamma, mask)
        Q0 = np.zeros(data.shape) if allocation is None \
            else np.asarray(allocation, dtype=float)
        self.shard_id = int(shard_id)
        self.state = IncrementalState(
            data, tokens, Q0, clients=clients, drift_limit=drift_limit,
            kkt_rtol=_KKT_RTOL, max_sweeps=_MAX_SWEEPS)
        self.rounds_run = 0
        self.version = next(_VERSION_COUNTER)
        self._static_cache: dict | None = None

    def touch(self) -> None:
        """Mark the shard's geometry changed: new version, caches dropped.

        Anything that alters the *static* geometry a process worker
        caches — masks, tokens, capacities, cost constants — must bump
        the version so the fleet re-ships.  Demand-only changes
        (retargets, absorbed events) use :meth:`touch_demands` instead:
        demands travel inside every round's delta, and the allocation
        rows are republished to the shared state block at the start of
        each round, so neither needs a geometry re-ship.  :meth:`adopt`
        touches nothing — the coordinator owns the shipment state.
        """
        self.version = next(_VERSION_COUNTER)
        self._static_cache = None

    def touch_demands(self) -> None:
        """Demand-only change: drop the static cache, keep the version.

        The persistent fleet ships demands in each round's delta, so a
        pure retarget keeps the worker-side geometry cache warm.  The
        static payload cache is still dropped — it holds a reference to
        the demand vector, and a *future* cold rebuild must pickle
        current values, not the ones captured at the last build.
        """
        self._static_cache = None

    # -- views ---------------------------------------------------------------
    @property
    def tokens(self) -> list[bytes]:
        """The shard's class tokens, in row order."""
        return self.state.tokens

    @property
    def loads(self) -> np.ndarray:
        """The shard's own column loads (background excluded)."""
        return self.state.loads

    @property
    def n_rows(self) -> int:
        """Class rows this shard currently owns."""
        return self.state.n_classes

    def demand(self) -> float:
        """Total demand currently assigned to the shard."""
        return float(self.state.D.sum())

    def kkt_gap(self, background: np.ndarray) -> float:
        """Worst cross-row KKT gap against ``background`` (relative)."""
        self.state.set_background(background)
        return self.state.kkt_residual()

    def demand_error(self) -> float:
        """Worst relative row-sum-vs-demand mismatch (0 when feasible)."""
        st = self.state
        if st.n_classes == 0:
            return 0.0
        err = np.abs(st.Q.sum(axis=1) - st.D)
        return float(np.max(err / np.maximum(st.D, 1.0), initial=0.0))

    # -- the exchange-round step ---------------------------------------------
    def solve_round(self, background: np.ndarray,
                    damping: float = 1.0) -> ShardRound:
        """Best-respond to ``background``: Jacobi fill, GS polish, damping.

        ``background`` is the other shards' column loads, held fixed for
        the round.  ``damping`` in (0, 1] blends the new rows with the
        previous round's (1.0 = undamped full step); rows whose demand
        changed since the previous round always take the full step, so
        damping never breaks row-sum feasibility.  So do rows whose best
        response empties a column they loaded: blended, such a share
        would only decay by ``1 - damping`` a round and never drop out of
        the KKT active set.
        """
        st = self.state
        st.set_background(background)
        Q_prev = st.Q.copy()
        if st.n_classes == 0:
            self.rounds_run += 1
            return ShardRound(self.shard_id, st.loads.copy(), 0, True, True)
        other = np.maximum(st.loads[None, :] - st.Q, 0.0)
        base = other + st.background[None, :]
        head = np.where(st.masks,
                        np.maximum(st.B[None, :] - base, 0.0), 0.0)
        P, fits = waterfill_rows(st.u, st.alpha, st.beta, st.gamma,
                                 st.D, base, head)
        st.Q = P
        st.loads = P.sum(axis=0)
        converged, sweeps = st.refine()
        if damping < 1.0:
            ok_rows = np.abs(Q_prev.sum(axis=1) - st.D) \
                <= 1e-9 * np.maximum(st.D, 1.0)
            zero = 1e-12 * st.D[:, None]
            emptied = ((st.Q <= zero) & (Q_prev > zero)).any(axis=1)
            lam = np.where(ok_rows & ~emptied, float(damping), 1.0)[:, None]
            st.Q = (1.0 - lam) * Q_prev + lam * st.Q
            st.loads = st.Q.sum(axis=0)
        self.rounds_run += 1
        return ShardRound(self.shard_id, st.loads.copy(), sweeps,
                          bool(converged) and bool(fits.all()),
                          bool(fits.all()))

    def adopt(self, allocation: np.ndarray) -> None:
        """Install rows computed elsewhere (a process worker's round)."""
        st = self.state
        Q = np.asarray(allocation, dtype=float)
        if Q.shape != st.Q.shape:
            raise ValidationError("adopted allocation shape mismatch")
        st.Q = Q.copy()
        st.loads = st.Q.sum(axis=0)
        self.rounds_run += 1

    def drop_replica(self, index: int) -> None:
        """Remove a dead replica's column from the shard's feasible set."""
        st = self.state
        j = int(index)
        st.B[j] = 0.0
        st.masks[:, j] = False
        st.Q[:, j] = 0.0
        st.loads = st.Q.sum(axis=0)
        self.touch()

    # -- process shipping ----------------------------------------------------
    def static_payload(self) -> dict:
        """The shard's static geometry, cached until :meth:`touch`.

        Holds *references*, not copies: nothing mutates these arrays
        between payload construction and pickling (events and rounds
        never interleave), and every operation that replaces them bumps
        the version and drops this cache.  One dict build per geometry
        version instead of eight array copies per round.
        """
        if self._static_cache is None:
            st = self.state
            self._static_cache = {
                "shard": self.shard_id, "tokens": list(st.tokens),
                "demands": st.D, "capacities": st.B, "prices": st.u,
                "alpha": st.alpha, "beta": st.beta, "gamma": st.gamma,
                "mask": st.masks,
            }
        return self._static_cache

"""Incremental delta-event re-solve: O(K*N) updates instead of batch solves.

Between events the converged allocation is *still optimal for every
untouched row* — the slowly-drifting-operating-point assumption behind
Adnan et al.'s dynamic deferral (arXiv:1204.2320) and Mathew et al.'s
CDN energy balancing (arXiv:1109.5641) — so a client arriving, leaving
or changing demand needs new work on its eligibility class only.

:class:`IncrementalState` holds the converged class-space allocation
``Q`` (one row per eligibility class, keyed by the packed-mask tokens of
:attr:`~repro.core.aggregate.ClassStructure.keys`), the column loads
``L = sum_k Q[k]`` and the client registry.  Every update is two steps:
**record** (:meth:`~IncrementalState.record` an event,
:meth:`~IncrementalState.record_target` a per-class target) writes the
registry and class demands ``D``; **absorb**
(:meth:`~IncrementalState.absorb`, the one tail every update shares)
re-solves each class row whose demand moved against the other rows'
loads:

    minimize  sum_n E_n(L_n^{-k} + p_n)
    s.t.      sum_n p_n = D_k,  0 <= p_n <= B_n - L_n^{-k},  p on mask_k

At the optimum every loaded column sits at a common marginal-cost water
level ``t``, bisected in scalar Python over cost constants hoisted at
construction (the eligible column count is single digits, so numpy
dispatch would dominate).  Gauss–Seidel sweeps over the rows whose
cross-row KKT gap exceeds tolerance follow, since one row's move shifts
the marginals the others see.

The state declines instead of silently degrading — **capacity** (a
class's demand does not fit its eligible headroom), **drift** (one
absorb's |class-demand delta| exceeds ``drift_limit`` of the total the
state was last certified at), **convergence** (the sweep budget ran
out, or the sweeps stopped short of the optimum on a full column:
:meth:`~IncrementalState.stalled`), **stale** (an earlier decline) — and
a caller then solves in full.
Multipliers are recovered as :func:`repro.core.warmstart.recover_mu`
does, so that solve can warm-start from the state's rows.

A *background* load vector — column load of rows other shards own —
offsets every marginal and headroom: the subproblem a solve shard of
:mod:`repro.core.shard` faces.  The default all-zero background is
bit-identical to the monolithic behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.certify import certify
from repro.core.params import ProblemData
from repro.core.subproblem import _BISECT_ITERS
from repro.errors import ValidationError

__all__ = ["ClientArrival", "ClientDeparture", "DemandChange",
           "EventResult", "IncrementalState", "check_event"]

#: Relative share of a row below which an entry counts as unloaded when
#: measuring the cross-row KKT residual.
_ACTIVE_EPS = 1e-12

#: A class demand within this many ulps (relative to the larger term of
#: its update) of zero is rounding left by a cancelling update.
_CANCEL_EPS = 4.0 * float(np.finfo(float).eps)

#: Relative headroom at or below which a live column counts as full.
_FULL_RTOL = 1e-9

#: The relative dual-bound gap an absorb's rows must certify to when a
#: live column is full.
_STALL_GAP = 1e-6


# -- events -------------------------------------------------------------------

@dataclass(frozen=True)
class ClientArrival:
    """A new client with ``demand`` and an eligibility row over replicas."""

    client: str
    demand: float
    eligibility: np.ndarray    # (N,) bool


@dataclass(frozen=True)
class ClientDeparture:
    """A registered client leaves; its demand drains from its class."""

    client: str


@dataclass(frozen=True)
class DemandChange:
    """A registered client's demand becomes ``demand`` (absolute)."""

    client: str
    demand: float


def check_event(
        event: "ClientArrival | ClientDeparture | DemandChange",
        registered: Callable[[str], tuple[bytes, float] | None],
        n_replicas: int) -> tuple[bytes, float, float, np.ndarray | None]:
    """Validate one event against its client's registration; write nothing.

    ``registered`` maps a client name to its ``(token, demand)`` or
    ``None``.  Returns ``(token, old, new, row)``: the client's class
    token, its demand before and after the event (0 for an arrival's
    before and a departure's after) and, for an arrival, its eligibility
    row.  Raises :class:`~repro.errors.ValidationError` on an unknown
    event type, a NaN/inf/negative demand, a duplicate or unknown
    client, a wrong-length eligibility row, or positive demand with no
    eligible replica.
    """
    if not isinstance(event, (ClientArrival, ClientDeparture, DemandChange)):
        raise ValidationError(f"unknown event type {type(event).__name__}")
    name = event.client
    reg = registered(name)
    new = 0.0 if isinstance(event, ClientDeparture) else float(event.demand)
    if not 0.0 <= new < np.inf:
        raise ValidationError(
            f"demand must be finite and nonnegative, got {new}")
    if not isinstance(event, ClientArrival):
        if reg is None:
            raise ValidationError(f"unknown client {name!r}")
        return reg[0], reg[1], new, None
    if reg is not None:
        raise ValidationError(f"client {name!r} already registered")
    row = np.asarray(event.eligibility, dtype=bool)
    if row.shape != (n_replicas,):
        raise ValidationError("eligibility row has wrong length")
    if new > 0.0 and not row.any():
        raise ValidationError(f"client {name!r} has positive demand but no "
                              f"eligible replica")
    return row.tobytes(), 0.0, new, row


@dataclass(frozen=True)
class EventResult:
    """Outcome of one :meth:`IncrementalState.absorb`.

    ``ok`` is False when the state declined the update and a full warm
    solve should run instead; ``reason`` then names the fallback trigger
    (``"capacity"``, ``"drift"``, ``"convergence"``, or ``"stale"``).
    A declined update has still been recorded (registry and class
    demand); only the rows are stale.  ``events`` counts the
    class-demand changes absorbed, ``sweeps`` the Gauss–Seidel
    refinement sweeps the update needed.
    """

    ok: bool
    reason: str | None = None
    events: int = 0
    sweeps: int = 0


class IncrementalState:
    """Converged class-space allocation, updatable one event at a time."""

    def __init__(self, data: ProblemData, tokens: Sequence[bytes],
                 allocation: np.ndarray, *,
                 clients: dict[str, tuple[bytes, float]] | None = None,
                 drift_limit: float = 0.5, kkt_rtol: float = 1e-8,
                 max_sweeps: int = 64,
                 background: np.ndarray | None = None) -> None:
        """Build from a solved *class-space* instance.

        ``data`` is the reduced (K-row) instance — one row per
        eligibility class — and ``allocation`` its converged (K, N)
        allocation; ``tokens`` are the classes' packed-mask byte tokens
        in row order.  ``clients`` optionally pre-registers client ->
        (token, demand) members so client-granular events can be applied
        without a separate registration pass.  ``background`` is column
        load owned by rows outside this state (other shards); it offsets
        every marginal/headroom computation and defaults to zero.
        """
        Q = np.asarray(allocation, dtype=float)
        if Q.shape != data.shape:
            raise ValidationError("allocation shape mismatch")
        if len(tokens) != data.n_clients:
            raise ValidationError("need one token per class row")
        if len(set(tokens)) != len(tokens):
            raise ValidationError("class tokens must be unique")
        if drift_limit <= 0:
            raise ValidationError("drift_limit must be positive")
        if max_sweeps < 1:
            raise ValidationError("max_sweeps must be >= 1")
        self.B = data.B.copy()
        self.u = data.u.copy()
        self.alpha = data.alpha.copy()
        self.beta = data.beta.copy()
        self.gamma = data.gamma.copy()
        self.masks = data.mask.copy()
        self.D = data.R.copy()
        if background is None:
            self.background = np.zeros(self.B.shape[0])
        else:
            bg = np.asarray(background, dtype=float)
            if bg.shape != self.B.shape:
                raise ValidationError("background has wrong length")
            self.background = np.maximum(bg, 0.0)
        self.Q = np.where(self.masks, np.maximum(Q, 0.0), 0.0)
        self.tokens: list[bytes] = list(tokens)
        self._index = {t: k for k, t in enumerate(self.tokens)}
        self.loads = self.Q.sum(axis=0)
        self._clients: dict[str, tuple[bytes, float]] = \
            dict(clients) if clients else {}
        self.drift_limit = float(drift_limit)
        self.kkt_rtol = float(kkt_rtol)
        self.max_sweeps = int(max_sweeps)
        self._baseline_total = max(float(self.D.sum()), 1e-9)
        self.stale = False
        self.events_applied = 0
        self.fallbacks = 0
        self._hoist_cost_scalars()

    def _hoist_cost_scalars(self) -> None:
        """Python-float views of the per-replica cost constants.

        The row subproblem's bisection runs in scalar Python (the
        eligible column count is single digits, so numpy dispatch on
        3-element temporaries dominated the loop); the cost constants
        are fixed for the state's lifetime — a price rotation rebuilds
        the whole state — so they are hoisted once here.
        """
        n = self.B.shape[0]
        u, a, b, g = self.u, self.alpha, self.beta, self.gamma
        self._uf = [float(u[j]) for j in range(n)]
        self._af = [float(a[j]) for j in range(n)]
        self._bgf = [float(b[j] * g[j]) for j in range(n)]
        self._em1f = [float(g[j]) - 1.0 for j in range(n)]
        # Constant-marginal columns (gamma == 1 or beta == 0) step from
        # 0 to full headroom as t crosses their level.
        self._constf = [bool(g[j] == 1.0 or b[j] == 0.0) for j in range(n)]
        self._levelf = [
            float(u[j] * (a[j] + (b[j] * g[j] if g[j] == 1.0 else 0.0)))
            for j in range(n)]
        self._expof = [1.0 / self._em1f[j] if self._em1f[j] > 0.0 else 1.0
                       for j in range(n)]

    def set_background(self, background: np.ndarray) -> None:
        """Adopt a new background load vector (other shards' column loads).

        Cheap by design — the sharded coordinator refreshes backgrounds
        once per exchange round and before every routed event.  Does not
        touch the allocation; the next rebalance/refine sees the offset.
        """
        bg = np.asarray(background, dtype=float)
        if bg.shape != self.B.shape:
            raise ValidationError("background has wrong length")
        self.background = np.maximum(bg, 0.0)

    # -- views ---------------------------------------------------------------
    @property
    def n_classes(self) -> int:
        """K, the number of class rows currently tracked."""
        return len(self.tokens)

    @property
    def n_replicas(self) -> int:
        """N, the replica count the state is keyed to."""
        return self.B.shape[0]

    def row(self, token: bytes) -> np.ndarray:
        """The current allocation row of class ``token`` (copy)."""
        k = self._index.get(token)
        if k is None:
            raise ValidationError("unknown class token")
        return self.Q[k].copy()

    def rows_for(self, tokens: Sequence[bytes]) -> np.ndarray:
        """Class rows for ``tokens`` stacked in the given order."""
        return np.stack([self.row(t) for t in tokens]) \
            if tokens else np.zeros((0, self.n_replicas))

    def mu(self) -> np.ndarray:
        """Per-class multipliers recovered at the current operating point.

        Same convention as :func:`repro.core.warmstart.recover_mu`:
        ``mu_k = -min`` eligible marginal at the current column loads.
        """
        marg = self._marginal(self.loads)
        best = np.where(self.masks, marg[None, :], np.inf).min(
            axis=1, initial=np.inf)
        return np.where(np.isfinite(best), -best, 0.0)

    def mu_for(self, tokens: Sequence[bytes]) -> np.ndarray:
        """Recovered multipliers for ``tokens`` in the given order."""
        mu = self.mu()
        return np.array([mu[self._index[t]] for t in tokens]) \
            if tokens else np.zeros(0)

    def objective(self) -> float:
        """``E_g`` at the current column loads (Eq. 1)."""
        L = np.maximum(self.loads, 0.0)
        return float(np.sum(self.u * (self.alpha * L
                                      + self.beta * L ** self.gamma)))

    def class_data(self) -> ProblemData:
        """The current class-space instance as a :class:`ProblemData`."""
        return ProblemData(demands=self.D, capacities=self.B, prices=self.u,
                           alpha=self.alpha, beta=self.beta,
                           gamma=self.gamma, mask=self.masks)

    # -- the row subproblem --------------------------------------------------
    def _marginal(self, loads: np.ndarray) -> np.ndarray:
        """Marginal energy cost per replica at ``background + loads``."""
        L = np.maximum(loads, 0.0) + self.background
        return self.u * (self.alpha
                         + self.beta * self.gamma * L ** (self.gamma - 1.0))

    def _rebalance_row(self, k: int) -> bool:
        """Re-solve row ``k`` against the other rows' loads (KKT/bisection).

        Water-fills the class's demand over its eligible headroom so
        every loaded column sits at a common marginal level ``t`` —
        bisected with the kernels' iteration/tolerance constants.
        Returns False when the demand does not fit the eligible headroom
        (the caller falls back to a full solve).
        """
        m = self.masks[k]
        other = np.maximum(self.loads - self.Q[k], 0.0)
        D = float(self.D[k])
        if D <= 0.0:
            self.Q[k] = 0.0
            self.loads = other
            return True
        # Fill starts from other rows' loads plus the background; both
        # eat headroom and both raise the marginal the fill sees.
        start = other + self.background
        head = np.where(m, np.maximum(self.B - start, 0.0), 0.0)
        total_head = float(head.sum())
        if total_head < D * (1.0 - 1e-9):
            return False
        cols = np.nonzero(head > 0.0)[0]
        # Scalar bisection over the hoisted constants: inverting the
        # marginal m(L) = u*(alpha + beta*gamma*L^(g-1)) per eligible
        # column costs a handful of float ops, so Python floats beat
        # numpy temporaries by an order of magnitude at this size.
        uf, af, bgf = self._uf, self._af, self._bgf
        constf, levelf = self._constf, self._levelf
        expof, em1f = self._expof, self._em1f
        idx = [int(j) for j in cols]
        nc = len(idx)
        h = [float(head[j]) for j in idx]
        base = [float(start[j]) for j in idx]

        def fill_sum(t: float) -> float:
            """Total load admitted at water level ``t`` (clipped)."""
            s = 0.0
            for i in range(nc):
                j = idx[i]
                if constf[j]:
                    if t >= levelf[j]:
                        s += h[i]
                else:
                    r = (t / uf[j] - af[j]) / bgf[j]
                    if r > 0.0:
                        x = r ** expof[j] - base[i]
                        if x > 0.0:
                            s += x if x < h[i] else h[i]
            return s

        lo, hi = float("inf"), 0.0
        for i in range(nc):
            j = idx[i]
            if constf[j]:
                mlo = mhi = levelf[j]
            else:
                mlo = uf[j] * (af[j] + bgf[j] * base[i] ** em1f[j])
                mhi = uf[j] * (af[j] + bgf[j] * (base[i] + h[i]) ** em1f[j])
            lo = mlo if mlo < lo else lo
            hi = mhi if mhi > hi else hi
        hi = max(hi, lo) + 1e-12
        tol_t = 1e-13 * max(abs(hi), 1.0)
        d_tol = 1e-12 * D
        # Invariant: fill_sum(hi) >= D (all headroom admitted at hi),
        # fill_sum(lo) <= D; bisect t to the demand equality, stopping
        # early once the admitted total overshoots by <= d_tol — far
        # inside the kkt_rtol the refine loop certifies against.
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            s = fill_sum(mid)
            if s < D:
                lo = mid
            else:
                hi = mid
                if s - D <= d_tol:
                    break
            if hi - lo < tol_t:
                break
        p = [0.0] * nc
        S = 0.0
        for i in range(nc):
            j = idx[i]
            if constf[j]:
                x = h[i] if hi >= levelf[j] else 0.0
            else:
                r = (hi / uf[j] - af[j]) / bgf[j]
                x = r ** expof[j] - base[i] if r > 0.0 else 0.0
                x = 0.0 if x < 0.0 else (x if x < h[i] else h[i])
            p[i] = x
            S += x
        # A constant-marginal column whose level the bracket straddles
        # sits at the water level: the overshoot comes off it alone —
        # scaling every column down would push load off the cheaper,
        # full ones.
        step = [i for i in range(nc) if constf[idx[i]] and p[i] > 0.0
                and lo < levelf[idx[i]] <= hi]
        if step and S > D:
            room = sum(p[i] for i in step)
            cut = min(S - D, room)
            for i in step:
                p[i] -= cut * p[i] / room
            S = sum(p)
        if S <= 0.0:  # numerical corner: demand fits but level collapsed
            scale = D / total_head
            p = [hj * scale for hj in h]
        elif S != D:
            # fill(hi) admits >= D, so scaling down lands exactly on the
            # demand while staying inside every column's headroom.
            scale = D / S
            p = [x * scale for x in p]
        row = np.zeros(self.n_replicas)
        row[idx] = p
        self.Q[k] = row
        self.loads = other + row
        return True

    def _kkt_gaps(self) -> np.ndarray:
        """Per-class relative KKT gap at the current column loads.

        A class row is optimal when no mass can move from a loaded column
        to a cheaper column with headroom; its gap is that marginal
        difference divided by the marginal magnitude (one vectorized pass
        over the (K, N) state — no per-class numpy dispatch).
        """
        marg = self._marginal(self.loads)
        # A column is receivable only with meaningful headroom — counting
        # 1e-12 slivers would chase moves the rebalance cannot realize.
        headroom = self.B - self.background - self.loads \
            > 1e-9 * np.maximum(self.B, 1.0)
        scale = float(np.max(marg, initial=0.0)) or 1.0
        loaded = self.masks & (self.Q > _ACTIVE_EPS * self.D[:, None])
        room = self.masks & headroom[None, :]
        worst_loaded = np.where(loaded, marg[None, :], -np.inf).max(axis=1)
        best_room = np.where(room, marg[None, :], np.inf).min(axis=1)
        with np.errstate(invalid="ignore"):
            gaps = (worst_loaded - best_room) / scale
        skip = (self.D <= 0.0) | ~loaded.any(axis=1) | ~room.any(axis=1)
        gaps[skip] = 0.0
        return np.maximum(gaps, 0.0)

    def kkt_residual(self) -> float:
        """Worst cross-row KKT violation, relative to the marginal scale.

        The sharded coordinator folds this — evaluated against each
        shard's current background — into its global convergence
        residual.
        """
        return float(np.max(self._kkt_gaps(), initial=0.0))

    def refine(self) -> tuple[bool, int]:
        """Gauss–Seidel sweeps over violating rows to the KKT residual bound.

        Each sweep rebalances only the rows whose KKT gap exceeds the
        tolerance — a row with zero gap is already optimal against the
        current loads, so re-solving it would be a no-op.  Returns
        ``(converged, sweeps_used)``; a False first element means the
        caller should fall back to a full solve (the state is left
        feasible — every row still sums to its demand — just not
        optimal to tolerance).
        """
        for sweep in range(self.max_sweeps):
            bad = np.flatnonzero(self._kkt_gaps() > self.kkt_rtol)
            if bad.size == 0:
                # Re-derive the loads from the rows: the incremental
                # `other + row` updates accumulate float drift over long
                # event streams.
                self.loads = self.Q.sum(axis=0)
                return True, sweep
            for k in bad:
                if not self._rebalance_row(int(k)):
                    return False, sweep + 1
        self.loads = self.Q.sum(axis=0)
        return self.kkt_residual() <= self.kkt_rtol, self.max_sweeps

    def stalled(self) -> bool:
        """Whether converged sweeps stopped short of the optimum.

        A zero KKT gap is the optimum unless a live column is full:
        there per-row best response can stall, since moving load off the
        full column needs a two-row swap no single row's gap sees.  So
        only then are the rows checked against the LDDM dual bound
        (:func:`~repro.core.certify.certify`, priced at the background)
        at ``_STALL_GAP``.
        """
        room = self.B - self.background - self.loads
        if not np.any((self.B > 0.0) & (room <= _FULL_RTOL * self.B)):
            return False
        return certify(self.class_data(), self.Q,
                       background=self.background).gap > _STALL_GAP

    # -- client registry -----------------------------------------------------
    @property
    def clients(self) -> Mapping[str, tuple[bytes, float]]:
        """Read-only client -> (class token, demand) view of the registry.

        This state is the one place a registration lives: the sharded
        coordinator and the service read it here instead of mirroring it.
        """
        return MappingProxyType(self._clients)

    # -- class bookkeeping ---------------------------------------------------
    def _ensure_class(self, token: bytes,
                      eligibility: np.ndarray | None) -> int:
        """Row index of ``token``, appending a fresh class if unseen."""
        k = self._index.get(token)
        if k is not None:
            return k
        if eligibility is None:
            raise ValidationError("unknown class token needs an eligibility "
                                  "row to be added")
        row = np.asarray(eligibility, dtype=bool)
        if row.shape != (self.n_replicas,):
            raise ValidationError("eligibility row has wrong length")
        if row.tobytes() != token:
            raise ValidationError("eligibility row does not match its token")
        self.masks = np.vstack([self.masks, row[None, :]])
        self.D = np.append(self.D, 0.0)
        self.Q = np.vstack([self.Q, np.zeros((1, self.n_replicas))])
        self.tokens.append(token)
        k = len(self.tokens) - 1
        self._index[token] = k
        return k

    def _fallback(self, reason: str) -> EventResult:
        self.stale = True
        self.fallbacks += 1
        return EventResult(ok=False, reason=reason)

    # -- the event API --------------------------------------------------------
    def record(
            self, event: "ClientArrival | ClientDeparture | DemandChange"
    ) -> tuple[int, float]:
        """Write one event into the registry and its class's demand.

        Returns the class row and its demand before the event, what
        :meth:`absorb` takes.  An invalid event (:func:`check_event`)
        raises before anything is written.
        """
        token, old, new, row = check_event(event, self._clients.get,
                                           self.n_replicas)
        k = self._ensure_class(token, row)
        before = float(self.D[k])
        if isinstance(event, ClientDeparture):
            del self._clients[event.client]
        else:
            self._clients[event.client] = (token, new)
        # What cancels below the terms' rounding is noise, not demand: a
        # class whose clients all left or went to zero holds exactly 0.
        D = before + new - old
        self.D[k] = D if D > _CANCEL_EPS * max(before, old) else 0.0
        return k, before

    def record_target(self, tokens: Sequence[bytes], masks: np.ndarray,
                      demands: np.ndarray) -> dict[int, float]:
        """Write a per-class demand target; ``{row: demand before}``.

        ``tokens``/``masks``/``demands`` are row-aligned (a
        :class:`~repro.core.aggregate.ClassStructure`).  Absent classes
        drain to zero, unseen ones are added; only rows whose demand
        changed are returned.  Allocation rows are not touched.
        """
        masks = np.asarray(masks, dtype=bool)
        demands = np.asarray(demands, dtype=float)
        if masks.shape != (len(tokens), self.n_replicas) \
                or demands.shape != (len(tokens),):
            raise ValidationError("target shapes do not match tokens")
        if not np.all((demands >= 0.0) & (demands < np.inf)):
            raise ValidationError(
                "target demands must be finite and nonnegative")
        for i, t in enumerate(tokens):
            self._ensure_class(t, masks[i])
        target = dict(zip(tokens, demands.tolist()))
        before: dict[int, float] = {}
        for k, t in enumerate(self.tokens):
            new = target.get(t, 0.0)
            if new != self.D[k]:
                before[k] = float(self.D[k])
                self.D[k] = new
        return before

    def absorb(self, before: Mapping[int, float]) -> EventResult:
        """Re-solve the rows whose demand moved off ``before`` (row -> D).

        The one absorb every update shares.  A row whose demand ended
        where it started costs nothing (an arrival and a departure in one
        class cancel); the drift guard bounds the total move against the
        demand last certified; shrinking rows drain first so growing ones
        see the headroom; converged sweeps certify the KKT residual and
        restart the drift baseline.  A decline leaves the recorded
        demands and a stale state until :meth:`force_target`.
        """
        if self.stale:
            return EventResult(ok=False, reason="stale")
        changed = [k for k in sorted(before) if self.D[k] != before[k]]
        if not changed:
            return EventResult(ok=True)
        delta = sum(abs(float(self.D[k]) - before[k]) for k in changed)
        if delta > self.drift_limit * self._baseline_total:
            return self._fallback("drift")
        changed.sort(key=lambda k: float(self.D[k]) - before[k])
        for k in changed:
            if not self._rebalance_row(k):
                return self._fallback("capacity")
        converged, sweeps = self.refine()
        if not converged or self.stalled():
            return self._fallback("convergence")
        self._baseline_total = max(float(self.D.sum()), 1e-9)
        self.events_applied += len(changed)
        return EventResult(ok=True, events=len(changed), sweeps=sweeps)

    def apply_event(
            self, event: "ClientArrival | ClientDeparture | DemandChange"
    ) -> EventResult:
        """One client event: :meth:`record`, then :meth:`absorb`.

        So ``ok=False`` means one thing whatever the reason: the registry
        and ``D`` include the event, the rows were not re-solved, the
        state is stale.  An invalid event raises before anything is
        written.
        """
        k, before = self.record(event)
        return self.absorb({k: before})

    def retarget(self, tokens: Sequence[bytes], masks: np.ndarray,
                 demands: np.ndarray) -> EventResult:
        """A chunk transition: :meth:`record_target`, then :meth:`absorb`.

        A turnover (old classes drain, new ones fill) moves about old +
        new total demand, so runtime callers need a ``drift_limit`` of at
        least 1x turnover.
        """
        return self.absorb(self.record_target(tokens, masks, demands))

    def force_target(self, tokens: Sequence[bytes], masks: np.ndarray,
                     demands: np.ndarray) -> int:
        """Record a demand target and clear fallback state; no re-solve.

        The coordinator's recovery: a declining shard is force-targeted
        at its own ``D`` and exchange rounds re-fill its rows — which
        may not sum to their demands until then.  Returns the number of
        class demands that changed.
        """
        changed = len(self.record_target(tokens, masks, demands))
        self.stale = False
        self._baseline_total = max(float(self.D.sum()), 1e-9)
        return changed

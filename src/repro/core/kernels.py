"""Batched numerical kernels for the distributed solvers.

The matrix-form solvers simulate *N* replicas, each doing local work per
iteration: CDPSM projects every replica's full estimate onto its local
constraint set (Dykstra), LDDM solves every replica's column subproblem
(KKT + bisection).  The straightforward transcription loops over replicas
in Python — ``O(N)`` interpreter round trips per iteration, exactly the
hot path that dominates the Fig. 9 scaling sweeps.

This module removes those loops: each kernel runs *all* replicas' work as
stacked numpy array programs — ``(K, C, N)`` stacks for the projections,
``(C, N)`` column blocks for the subproblems — while reproducing the
scalar implementations element for element:

* the same per-instance early-stopping rules are honored by *freezing*
  converged slices (an instance that converges at inner iteration ``k``
  keeps the state it had at ``k``, exactly as the scalar code that broke
  out of its loop there), and
* every row/column operation is arithmetically identical to its scalar
  counterpart (same sort-and-threshold projections, same bisection
  midpoint sequences),

so the scalar code paths in :mod:`repro.core.projection` and
:mod:`repro.core.subproblem` remain the reference oracles and the
property tests can demand 1e-9 agreement.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import ProblemData
from repro.core.projection import (
    _project_rows_vectorized,
    support_groups,
)
from repro.core.subproblem import _BISECT_ITERS, _BISECT_TOL
from repro.errors import ValidationError

__all__ = [
    "stack_project_demands",
    "project_local_sets_stacked",
    "cdpsm_gradient_step",
    "lddm_solve_columns",
    "repair_stack",
    "objective_stack",
    "objective_history",
    "waterfill_rows",
]


# -- stacked demand projection ------------------------------------------------

def stack_project_demands(stack: np.ndarray, demands: np.ndarray,
                          mask: np.ndarray) -> np.ndarray:
    """:func:`~repro.core.projection.project_demands` on a (K, C, N) stack.

    Every (C, N) slice is projected row-wise onto its masked demand
    simplexes; masked rows are grouped by support pattern so the whole
    stack needs one vectorized projection call per distinct pattern.
    """
    S = np.asarray(stack, dtype=float)
    if S.ndim != 3:
        raise ValidationError("stack must be (K, C, N)")
    K, C, N = S.shape
    R = np.asarray(demands, dtype=float)
    M = np.asarray(mask, dtype=bool)
    if M.shape != (C, N) or R.shape != (C,):
        raise ValidationError("shape mismatch in stack_project_demands")
    if np.any(R < 0):
        raise ValidationError("demands must be nonnegative")
    if M.all():
        flat = _project_rows_vectorized(S.reshape(K * C, N), np.tile(R, K))
        return flat.reshape(K, C, N)
    out = np.zeros_like(S)
    for rows, cols in support_groups(M):
        if cols.size == 0:
            bad = rows[R[rows] > 0]
            if bad.size:
                raise ValidationError(
                    f"client {int(bad[0])} has positive demand "
                    "but no eligible replica")
            continue
        sub = S[np.ix_(np.arange(K), rows, cols)]
        flat = _project_rows_vectorized(
            sub.reshape(K * rows.size, cols.size), np.tile(R[rows], K))
        out[np.ix_(np.arange(K), rows, cols)] = \
            flat.reshape(K, rows.size, cols.size)
    return out


def _rows_capped_simplex(V: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Row-wise ``project_capped_simplex``: each row onto its own cap."""
    clipped = np.maximum(V, 0.0)
    over = clipped.sum(axis=1) > caps
    if not over.any():
        return clipped
    clipped[over] = _project_rows_vectorized(V[over], caps[over])
    return clipped


# -- stacked Dykstra (CDPSM local sets) --------------------------------------

def project_local_sets_stacked(stack: np.ndarray, demands: np.ndarray,
                               mask: np.ndarray, columns: np.ndarray,
                               caps: np.ndarray, max_iter: int = 1000,
                               tol: float = 1e-8) -> np.ndarray:
    """Dykstra projection of every slice onto its own local set, at once.

    Slice ``i`` of the (K, C, N) stack is projected onto
    ``{P >= 0 on mask, row sums = R, column columns[i] sums <= caps[i]}``
    — elementwise identical to calling
    :func:`~repro.core.projection.project_local_set` per slice.  A slice
    whose per-set projections agree to ``tol`` is frozen (the scalar code
    breaks there), so early convergence of one replica never perturbs the
    others' iterates.
    """
    x = np.array(stack, dtype=float)
    if x.ndim != 3:
        raise ValidationError("stack must be (K, C, N)")
    K = x.shape[0]
    cols = np.asarray(columns, dtype=int)
    caps = np.asarray(caps, dtype=float)
    if cols.shape != (K,) or caps.shape != (K,):
        raise ValidationError("columns/caps must have one entry per slice")
    p = np.zeros_like(x)
    # The capacity-set correction q is nonzero only in each slice's own
    # capacity column (the column-cap projection leaves other columns
    # untouched), so it is tracked as one (K, C) column, not a full stack.
    qcol = np.zeros((K, x.shape[1]))
    scale = np.maximum(
        np.maximum(np.max(np.abs(demands), initial=0.0), caps), 1.0)
    active = np.arange(K)
    for _ in range(max_iter):
        # While every slice is still live, plain slices avoid the copies
        # fancy indexing would take of the full stack.
        ix = slice(None) if active.size == K else active
        idx = np.arange(active.size)
        col_a = cols[ix]
        w = x[ix] + p[ix]
        y = stack_project_demands(w, demands, mask)
        p[ix] = w - y
        ycol = y[idx, :, col_a]
        zcol = ycol + qcol[ix]
        zproj = _rows_capped_simplex(zcol, caps[ix])
        qcol[ix] = zcol - zproj
        # Off-column, the capacity projection returns y unchanged, so the
        # per-set discrepancy |y - x| lives entirely in the column.
        diff = np.max(np.abs(ycol - zproj), axis=1)
        y[idx, :, col_a] = zproj
        x[ix] = y
        keep = diff >= tol * scale[ix]
        active = active[keep]
        if active.size == 0:
            break
    return stack_project_demands(x + p, demands, mask)


# -- CDPSM gradient step ------------------------------------------------------

def cdpsm_gradient_step(data: ProblemData, V: np.ndarray,
                        d_k: float) -> np.ndarray:
    """All replicas' local-gradient steps on a (N, C, N) consensus stack.

    Replica ``i``'s local objective touches only its own column, with
    marginal cost evaluated at its estimate of its own load
    ``V[i][:, i].sum()`` — the vectorized form of the per-replica step in
    Algorithm 1.
    """
    N = data.n_replicas
    if V.shape != (N, data.n_clients, N):
        raise ValidationError("V must be (N, C, N)")
    idx = np.arange(N)
    own = np.maximum(V.sum(axis=1)[idx, idx], 0.0)
    powered = own ** (data.gamma - 1.0)
    marginal = data.u * (data.alpha + data.beta * data.gamma * powered)
    stepped = V.copy()
    stepped[idx, :, idx] -= d_k * marginal[:, None] * data.mask.T
    return stepped


# -- LDDM column subproblems --------------------------------------------------

def _exact_columns(data: ProblemData, mu: np.ndarray) -> np.ndarray:
    """All replicas' eps=0 closed-form subproblems (paper problem (5))."""
    mask = data.mask
    u, a, b, g, B = data.u, data.alpha, data.beta, data.gamma, data.B
    mu_col = np.where(mask, mu[:, None], np.inf)
    mu_min = mu_col.min(axis=0, initial=np.inf)
    has = mask.any(axis=0)
    base = np.where(has, u * a + mu_min, np.inf)
    lin = (g == 1.0) | (b == 0.0)
    slope = base + np.where(g == 1.0, u * b * g, 0.0)
    s_lin = np.where(slope < 0, B, 0.0)
    denom = np.where(lin | (b == 0.0), 1.0, u * b * g)
    ratio = np.where(~lin & (base < 0), -base / denom, 0.0)
    expo = 1.0 / np.where(g > 1.0, g - 1.0, 1.0)
    s_int = np.minimum(B, ratio ** expo)
    s_star = np.where(lin, s_lin, np.where(base >= 0, 0.0, s_int))
    s_star = np.where(has, s_star, 0.0)
    ties = np.isclose(mu_col, mu_min[None, :], rtol=0, atol=1e-12) & mask
    counts = np.maximum(ties.sum(axis=0), 1)
    return np.where(ties, (s_star / counts)[None, :], 0.0)


def _bisect_columns(excess, hi: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Per-column bisection of a decreasing ``excess`` over ``[0, hi]``.

    Every column follows the scalar midpoint sequence; one whose bracket
    is inside ``tol`` is frozen (the ``where=`` writes skip it) exactly
    where the scalar loop breaks.
    """
    lo = np.zeros_like(hi)
    hi = hi.copy()
    act = np.ones(hi.size, dtype=bool)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        up = act & (excess(mid) > 0)
        np.copyto(lo, mid, where=up)
        np.copyto(hi, mid, where=act ^ up)
        act &= (hi - lo) >= tol
        if not act.any():
            break
    return 0.5 * (lo + hi)


def _proximal_columns(data: ProblemData, mu: np.ndarray, prev: np.ndarray,
                      epsilon: float) -> np.ndarray:
    """All replicas' proximal subproblems in one KKT/bisection pass.

    Mirrors ``subproblem._solve_proximal`` column-parallel: phase 1
    bisects the uncapacitated total ``s`` per column, phase 2 bisects the
    capacity multiplier ``nu`` for the columns whose cap binds.  Each
    column follows the scalar midpoint sequence and freezes at the scalar
    stopping rule.

    Whatever does not depend on the bisection variable is computed once
    per call, not once per step: the cost constants and the column
    blocks of ``ref``/``mu`` (no gather at all while every column is in
    play, the usual case).  Masked entries carry ``mu = +inf``, so
    ``max(0, ref - (mu + t) / eps)`` is exactly 0 there without a
    per-step mask pass.
    """
    mask = data.mask
    N = data.n_replicas
    linear = data.gamma == 1.0
    any_linear = bool(linear.any())
    gm1 = data.gamma - 1.0
    bg = data.beta * data.gamma
    ref = np.where(mask, np.asarray(prev, dtype=float), 0.0)
    mu_inf = np.where(mask, mu[:, None], np.inf)

    def block(cols: np.ndarray):
        """``(marginal, p_of_t)`` over the columns ``cols``."""
        def take(a: np.ndarray) -> np.ndarray:
            return a if cols.size == N else np.take(a, cols, axis=-1)

        u, alpha, bg_c, gm1_c = (take(data.u), take(data.alpha), take(bg),
                                 take(gm1))
        linear_c, ref_c, mu_c = take(linear), take(ref), take(mu_inf)

        def marginal(s: np.ndarray) -> np.ndarray:
            # s >= 0 and gamma >= 1: 0 ** (gamma - 1) already is the
            # scalar code's 0 (1 on a linear column) for an idle column.
            powered = s ** gm1_c
            if any_linear:
                powered = np.where(linear_c, 1.0, powered)
            return u * (alpha + bg_c * powered)

        def p_of_t(t: np.ndarray) -> np.ndarray:
            return np.maximum(0.0, ref_c - (mu_c + t) / epsilon)

        return marginal, p_of_t

    marginal, p_of_t = block(np.arange(N))
    s_hi = p_of_t(marginal(np.zeros(N))).sum(axis=0)
    out = np.zeros(data.shape)
    live = mask.any(axis=0) & (s_hi > 0.0)
    if not live.any():
        return out
    cols = np.nonzero(live)[0]
    if cols.size < N:
        marginal, p_of_t = block(cols)
        s_hi = s_hi[cols]

    # Phase 1: capacity ignored — bisect g(s) = S(t(s)) - s per column.
    s_star = _bisect_columns(lambda s: p_of_t(marginal(s)).sum(axis=0) - s,
                             s_hi, _BISECT_TOL * np.maximum(1.0, s_hi))

    free = s_star <= data.B[cols] + 1e-12
    if free.any():
        out[:, cols[free]] = p_of_t(marginal(s_star))[:, free]

    # Phase 2: capacity binds — s = B, bisect h(nu) = S(t(B) + nu) - B.
    if not free.all():
        b_cols = cols[~free]
        B = data.B[b_cols]
        marginal, p_of_t = block(b_cols)
        t_base = marginal(B)

        def h_of(nu: np.ndarray) -> np.ndarray:
            return p_of_t(t_base + nu).sum(axis=0) - B

        nu_hi = np.ones(b_cols.size)
        growing = h_of(nu_hi) > 0
        while growing.any():
            nu_hi[growing] *= 2.0
            growing = growing & (nu_hi <= 1e18) & (h_of(nu_hi) > 0)
        nu = _bisect_columns(h_of, nu_hi,
                             _BISECT_TOL * np.maximum(1.0, nu_hi))
        p = p_of_t(t_base + nu)
        total = p.sum(axis=0)
        rescale = np.where(total > 0, B / np.where(total > 0, total, 1.0),
                           1.0)
        out[:, b_cols] = p * rescale[None, :]
    return out


def lddm_solve_columns(data: ProblemData, mu: np.ndarray, prev: np.ndarray,
                       epsilon: float) -> np.ndarray:
    """One LDDM round of local subproblem solves, all replicas batched.

    Produces the same (C, N) solution block as looping
    :func:`~repro.core.subproblem.solve_replica_subproblem` over columns.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (data.n_clients,):
        raise ValidationError("mu must have one entry per client")
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    if epsilon == 0.0:
        return _exact_columns(data, mu)
    return _proximal_columns(data, mu, prev, epsilon)


# -- batched row water-fill (sharded Jacobi pass) -----------------------------

def waterfill_rows(u: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                   gamma: np.ndarray, demands: np.ndarray, base: np.ndarray,
                   head: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Water-fill every class row against fixed per-row base loads, batched.

    The Jacobi companion of
    :meth:`repro.core.incremental.IncrementalState._rebalance_row`: row
    ``k`` spreads ``demands[k]`` over the columns with ``head[k] > 0`` so
    every loaded column sits at a common marginal level ``t_k``, the
    marginal ``m(x) = u*(alpha + beta*gamma*x^(gamma-1))`` evaluated at
    ``base[k] + fill`` — but *all* rows solve simultaneously against the
    base loads they were handed, instead of Gauss–Seidel one at a time.
    This is the opening pass of a shard solve round: ``base`` carries the
    other rows' (and other shards') loads from the previous round, and a
    scalar Gauss–Seidel refine polishes the intra-shard interactions the
    simultaneous fill ignores.

    Each row bisects its own level with the kernels' iteration budget and
    freezes at the scalar stopping rule (demand overshoot within
    ``1e-12 * D``).  Returns ``(P, fits)`` where ``P`` is the (K, N) fill
    (rows sum to their demands) and ``fits[k]`` is False when row ``k``'s
    demand exceeds its total headroom — such a row grabs *all* its
    headroom (demand left unmet) so the caller can keep iterating while
    other shards vacate capacity.
    """
    u = np.asarray(u, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    D = np.asarray(demands, dtype=float)
    base = np.asarray(base, dtype=float)
    head = np.asarray(head, dtype=float)
    if base.ndim != 2:
        raise ValidationError("base must be (K, N)")
    K, N = base.shape
    if head.shape != (K, N) or D.shape != (K,):
        raise ValidationError("shape mismatch in waterfill_rows")
    if u.shape != (N,) or alpha.shape != (N,) or beta.shape != (N,) \
            or gamma.shape != (N,):
        raise ValidationError("cost vectors must have one entry per replica")

    # Constant-marginal columns (gamma == 1 or beta == 0) step from 0 to
    # full headroom as t crosses their level — same hoisting as the
    # scalar path's _constf/_levelf.
    const = (gamma == 1.0) | (beta == 0.0)
    level = u * (alpha + np.where(gamma == 1.0, beta * gamma, 0.0))
    bg = np.where(const, 1.0, beta * gamma)
    em1 = gamma - 1.0
    expo = np.where(em1 > 0.0, 1.0 / np.where(em1 > 0.0, em1, 1.0), 1.0)
    pos = D > 0.0
    total_head = head.sum(axis=1)
    fits = (total_head >= D * (1.0 - 1e-9)) | ~pos
    elig = head > 0.0

    with np.errstate(invalid="ignore", over="ignore"):
        m_lo = np.where(const[None, :], level[None, :],
                        u * (alpha + bg * base ** em1))
        m_hi = np.where(const[None, :], level[None, :],
                        u * (alpha + bg * (base + head) ** em1))
    lo = np.where(elig, m_lo, np.inf).min(axis=1, initial=np.inf)
    lo = np.where(np.isfinite(lo), lo, 0.0)
    hi = np.where(elig, m_hi, -np.inf).max(axis=1, initial=-np.inf)
    hi = np.maximum(np.where(np.isfinite(hi), hi, 0.0), lo) + 1e-12
    tol_t = 1e-13 * np.maximum(np.abs(hi), 1.0)
    d_tol = 1e-12 * D

    def fill(t: np.ndarray) -> np.ndarray:
        """Per-row load admitted at water levels ``t`` (clipped to head)."""
        with np.errstate(invalid="ignore", over="ignore"):
            r = (t[:, None] / u - alpha) / bg
            x = np.where(r > 0.0, r ** expo - base, 0.0)
        x = np.clip(np.where(np.isnan(x), 0.0, x), 0.0, head)
        step = np.where(t[:, None] >= level[None, :], head, 0.0)
        return np.where(const[None, :], step, x)

    # Invariant: fill(hi) sums >= D for every fitting row (all headroom
    # admitted at the top bracket), fill(lo) <= D; each row bisects its
    # level to the demand equality and freezes once the overshoot is
    # inside d_tol — exactly the scalar _rebalance_row stopping rule.
    act = pos & fits
    for _ in range(_BISECT_ITERS):
        if not act.any():
            break
        mid = np.where(act, 0.5 * (lo + hi), hi)
        s = fill(mid).sum(axis=1)
        below = s < D
        lo = np.where(act & below, mid, lo)
        hi = np.where(act & ~below, mid, hi)
        done = (~below & (s - D <= d_tol)) | (hi - lo < tol_t)
        act = act & ~done
    P = fill(hi)
    S = P.sum(axis=1)

    # A constant-marginal column whose level a row's bracket straddles
    # sits at the water level: the overshoot comes off it alone, as in
    # the scalar path.
    step = const[None, :] & (level[None, :] > lo[:, None]) \
        & (level[None, :] <= hi[:, None]) & (P > 0.0)
    cut_rows = np.flatnonzero(pos & fits & step.any(axis=1) & (S > D))
    if cut_rows.size:
        on = step[cut_rows]
        room = np.where(on, P[cut_rows], 0.0).sum(axis=1)
        cut = np.minimum(S[cut_rows] - D[cut_rows], room) / room
        P[cut_rows] -= np.where(on, P[cut_rows] * cut[:, None], 0.0)
        S[cut_rows] = P[cut_rows].sum(axis=1)

    # Scaling down (fill(hi) >= D) lands exactly on the demand while
    # staying inside every column's headroom; a collapsed level (S == 0)
    # falls back to a proportional spread, the scalar corner case.
    scale = np.ones(K)
    norm = pos & fits & (S > 0.0)
    scale[norm] = D[norm] / S[norm]
    prop = pos & fits & (S <= 0.0)
    P = P * scale[:, None]
    if prop.any():
        pscale = D[prop] / np.maximum(total_head[prop], 1e-300)
        P[prop] = head[prop] * pscale[:, None]
    unfit = pos & ~fits
    if unfit.any():
        P[unfit] = head[unfit]
    P[~pos] = 0.0
    return P, fits


# -- batched repair / objective history --------------------------------------

def repair_stack(data: ProblemData, stack: np.ndarray, sweeps: int = 50,
                 tol: float = 1e-10) -> np.ndarray:
    """``problem.repair`` applied to every slice of a (K, C, N) stack.

    Alternates the stacked demand projection with proportional column
    scaling, freezing each slice as soon as it has no capacity overshoot
    (where the scalar loop breaks).
    """
    X = stack_project_demands(np.asarray(stack, dtype=float),
                              data.R, data.mask)
    active = np.arange(X.shape[0])
    for _ in range(sweeps):
        loads = X[active].sum(axis=1)
        over = loads > data.B[None, :] * (1 + tol)
        busy = over.any(axis=1)
        if not busy.any():
            break
        keep = active[busy]
        scale = np.where(over[busy], data.B[None, :]
                         / np.maximum(loads[busy], 1e-300), 1.0)
        X[keep] = stack_project_demands(X[keep] * scale[:, None, :],
                                        data.R, data.mask)
        active = keep
    return X


def objective_stack(data: ProblemData, stack: np.ndarray) -> np.ndarray:
    """``E_g`` of every slice of a (K, C, N) stack (vectorized Eq. 1)."""
    loads = np.maximum(np.asarray(stack, dtype=float).sum(axis=1), 0.0)
    energy = data.u * (data.alpha * loads + data.beta * loads ** data.gamma)
    return energy.sum(axis=1)


def objective_history(data: ProblemData, candidates: list[np.ndarray],
                      sweeps: int = 10, chunk: int = 128) -> list[float]:
    """Objective-of-repaired-iterate curve (the Fig. 5 series), batched.

    Equivalent to ``[objective(repair(c, sweeps)) for c in candidates]``
    but repairs the iterates in stacked chunks, so history tracking no
    longer dominates solve time at large C.
    """
    out: list[float] = []
    for start in range(0, len(candidates), max(chunk, 1)):
        block = np.stack(candidates[start:start + max(chunk, 1)])
        repaired = repair_stack(data, block, sweeps=sweeps)
        out.extend(float(v) for v in objective_stack(data, repaired))
    return out

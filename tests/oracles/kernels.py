"""The pre-PR-15 LDDM proximal column kernel, verbatim.

It re-derives the per-data constants, scatters the live columns into a
full (N,) vector and gathers them back on every bisection step — ~45
tiny numpy calls per step where :func:`repro.core.kernels._proximal_columns`
now spends ~20.  The replacement must follow the same midpoint sequence,
stopping rule and summation order, so the trajectory tests compare the
two with ``np.array_equal`` on every ``(mu, prev)`` of a full solve.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import ProblemData
from repro.core.subproblem import _BISECT_ITERS, _BISECT_TOL


def _marginal_cols(data: ProblemData, s: np.ndarray) -> np.ndarray:
    """Vector form of ``subproblem._marginal`` over all replica columns."""
    base = np.where(s > 0.0, s, 1.0)
    powered = np.where(data.gamma == 1.0, 1.0,
                       np.where(s > 0.0, base ** (data.gamma - 1.0), 0.0))
    return data.u * (data.alpha + data.beta * data.gamma * powered)


def _proximal_columns(data: ProblemData, mu: np.ndarray, prev: np.ndarray,
                      epsilon: float) -> np.ndarray:
    """All replicas' proximal subproblems in one KKT/bisection pass.

    Mirrors ``subproblem._solve_proximal`` column-parallel: phase 1
    bisects the uncapacitated total ``s`` per column, phase 2 bisects the
    capacity multiplier ``nu`` for the columns whose cap binds.  Each
    column follows the scalar midpoint sequence and freezes at the scalar
    stopping rule.
    """
    mask = data.mask
    B = data.B
    ref = np.where(mask, np.asarray(prev, dtype=float), 0.0)

    def p_of_t(t: np.ndarray, cols: np.ndarray) -> np.ndarray:
        raw = ref[:, cols] - (mu[:, None] + t[None, :]) / epsilon
        return np.where(mask[:, cols], np.maximum(0.0, raw), 0.0)

    def s_of_t(t: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return p_of_t(t, cols).sum(axis=0)

    marg0 = _marginal_cols(data, np.zeros(data.n_replicas))
    s_hi = s_of_t(marg0, np.arange(data.n_replicas))
    out = np.zeros(data.shape)
    live = mask.any(axis=0) & (s_hi > 0.0)
    if not live.any():
        return out
    cols = np.nonzero(live)[0]

    # Phase 1: capacity ignored — bisect g(s) = S(t(s)) - s per column.
    lo = np.zeros(cols.size)
    hi = s_hi[cols].copy()
    tol_s = _BISECT_TOL * np.maximum(1.0, s_hi[cols])
    act = np.ones(cols.size, dtype=bool)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        sub = np.nonzero(act)[0]
        gval = s_of_t(_marginal_cols(data, _scatter(mid, cols, data))[cols],
                      cols)[sub] - mid[sub]
        pos = gval > 0
        lo[sub[pos]] = mid[sub[pos]]
        hi[sub[~pos]] = mid[sub[~pos]]
        act[sub] = (hi[sub] - lo[sub]) >= tol_s[sub]
        if not act.any():
            break
    s_star = 0.5 * (lo + hi)

    free = s_star <= B[cols] + 1e-12
    if free.any():
        f_cols = cols[free]
        t_free = _marginal_cols(data, _scatter(s_star[free], f_cols, data))
        out[:, f_cols] = p_of_t(t_free[f_cols], f_cols)

    # Phase 2: capacity binds — s = B, bisect h(nu) = S(t(B) + nu) - B.
    bound = ~free
    if bound.any():
        b_cols = cols[bound]
        t_base = _marginal_cols(data, B)[b_cols]

        def h_of(nu: np.ndarray) -> np.ndarray:
            return s_of_t(t_base + nu, b_cols) - B[b_cols]

        nu_hi = np.ones(b_cols.size)
        growing = h_of(nu_hi) > 0
        while growing.any():
            nu_hi[growing] *= 2.0
            growing = growing & (nu_hi <= 1e18) & (h_of(nu_hi) > 0)
        lo = np.zeros(b_cols.size)
        hi = nu_hi.copy()
        tol_nu = _BISECT_TOL * np.maximum(1.0, nu_hi)
        act = np.ones(b_cols.size, dtype=bool)
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            sub = np.nonzero(act)[0]
            hval = h_of(mid)[sub]
            pos = hval > 0
            lo[sub[pos]] = mid[sub[pos]]
            hi[sub[~pos]] = mid[sub[~pos]]
            act[sub] = (hi[sub] - lo[sub]) >= tol_nu[sub]
            if not act.any():
                break
        nu = 0.5 * (lo + hi)
        p = p_of_t(t_base + nu, b_cols)
        total = p.sum(axis=0)
        rescale = np.where(total > 0, B[b_cols] / np.where(total > 0, total,
                                                           1.0), 1.0)
        out[:, b_cols] = p * rescale[None, :]
    return out


def _scatter(vals: np.ndarray, cols: np.ndarray,
             data: ProblemData) -> np.ndarray:
    """Place per-column values back into a full (N,) vector (zeros else)."""
    full = np.zeros(data.n_replicas)
    full[cols] = vals
    return full

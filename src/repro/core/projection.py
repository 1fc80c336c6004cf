"""Euclidean projections used by the distributed solvers.

* :func:`project_simplex` — onto ``{x >= 0, sum x = s}`` (exact
  sort-and-threshold algorithm).
* :func:`project_capped_simplex` — onto ``{x >= 0, sum x <= cap}``.
* :func:`project_demands` — row-wise demand projection of a full
  allocation matrix (each client's row onto its masked simplex).
* :func:`project_local_set` — Dykstra's alternating projection onto a
  replica's CDPSM local constraint set ``P_n`` (demand rows intersected
  with that replica's capacity column); this realizes the paper's
  ``Proj_{P_n}[.]^+`` operator.
* :func:`group_rows` — the repo's one row-grouping routine: identical
  rows of a boolean mask found by sorting a packed integer key.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["project_simplex", "project_capped_simplex", "project_demands",
           "project_local_set", "group_rows", "support_groups"]


def project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Project ``v`` onto ``{x >= 0, sum x = total}`` (Euclidean).

    Sort-based threshold algorithm (Held/Wolfe/Crowder): O(d log d).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValidationError("project_simplex expects a vector")
    if total < 0:
        raise ValidationError("simplex total must be nonnegative")
    if v.size == 0:
        if total > 0:
            raise ValidationError("cannot place positive mass on empty support")
        return v.copy()
    if total == 0:
        return np.zeros_like(v)
    # Find threshold tau with sum(max(v - tau, 0)) = total.
    mu = np.sort(v)[::-1]
    cumsum = np.cumsum(mu)
    k = np.arange(1, v.size + 1)
    cond = mu - (cumsum - total) / k >= 0
    hits = np.nonzero(cond)[0]
    # cond holds at k=1 in exact arithmetic; guard the fully-degenerate
    # float case (e.g. total underflowing against max(v)).
    rho = int(hits[-1]) if hits.size else 0
    tau = (cumsum[rho] - total) / (rho + 1)
    return np.maximum(v - tau, 0.0)


def project_capped_simplex(v: np.ndarray, cap: float) -> np.ndarray:
    """Project ``v`` onto ``{x >= 0, sum x <= cap}``."""
    if cap < 0:
        raise ValidationError("cap must be nonnegative")
    v = np.asarray(v, dtype=float)
    clipped = np.maximum(v, 0.0)
    if clipped.sum() <= cap:
        return clipped
    return project_simplex(v, cap)


def _project_rows_vectorized(P: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection, all rows at once (full support).

    Vectorized form of the sort-and-threshold algorithm: one sort per row
    via a single ``np.sort`` call, thresholds found with cumulative sums —
    the hot path for CDPSM's per-iteration projections.
    """
    C, N = P.shape
    mu = np.sort(P, axis=1)[:, ::-1]
    cumsum = np.cumsum(mu, axis=1)
    k = np.arange(1, N + 1)
    cond = mu - (cumsum - R[:, None]) / k >= 0
    # Last True per row (cond holds at k=1 in exact arithmetic).
    rho = np.where(cond.any(axis=1),
                   N - 1 - np.argmax(cond[:, ::-1], axis=1), 0)
    tau = (cumsum[np.arange(C), rho] - R) / (rho + 1)
    out = np.maximum(P - tau[:, None], 0.0)
    # Rows with zero demand project to exactly zero.
    out[R == 0.0] = 0.0
    return out


def group_rows(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of a (C, N) boolean mask by identical pattern.

    Returns ``(first, inverse)``: ``first[g]`` is the index of the first
    row showing group ``g``'s pattern and is strictly increasing (groups
    are numbered in order of first occurrence), ``inverse[c]`` is row
    ``c``'s group — so ``mask[first][inverse]`` reproduces ``mask``.

    Each row is packed into one integer key (``np.packbits``, viewed as
    the narrowest unsigned dtype that holds N bits) and the 1-D keys are
    stably sorted — a radix sort up to 16 replicas, a merge sort up to
    64; wider masks pack into uint64 words and ``lexsort``.  Every other
    step is one O(C) pass.
    """
    M = np.asarray(mask, dtype=bool)
    if M.ndim != 2:
        raise ValidationError("group_rows expects a (C, N) mask")
    C = M.shape[0]
    packed = np.ascontiguousarray(np.packbits(M, axis=1))
    nbytes = packed.shape[1]
    width = next(w for w in (1, 2, 4, 8 * -(-nbytes // 8)) if nbytes <= w)
    if width != nbytes:
        padded = np.zeros((C, width), dtype=np.uint8)
        padded[:, :nbytes] = packed
        packed = padded
    words = packed.view(f"u{min(width, 8)}")
    if words.shape[1] == 1:
        keys = words[:, 0]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        change = keys[1:] != keys[:-1]
    else:
        order = np.lexsort(words.T)
        words = words[order]
        change = (words[1:] != words[:-1]).any(axis=1)
    # The sort is stable, so the row opening each run of equal keys is
    # that pattern's first occurrence; renumber the runs by it.
    opens = np.ones(C, dtype=bool)
    opens[1:] = change
    first = order[opens]
    by_first = np.argsort(first)
    rank = np.empty(first.size, dtype=np.intp)
    rank[by_first] = np.arange(first.size)
    inverse = np.empty(C, dtype=np.intp)
    inverse[order] = rank[np.cumsum(opens) - 1]
    return first[by_first], inverse


def support_groups(mask: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group the rows of a boolean mask by identical support pattern.

    Returns ``(rows, cols)`` index pairs — one per distinct pattern, in
    order of first occurrence — so masked row-wise operations can run
    vectorized per group instead of per row.  All-false patterns are
    included (callers decide whether an empty support is an error).
    """
    M = np.asarray(mask, dtype=bool)
    first, inverse = group_rows(M)
    return [(np.nonzero(inverse == g)[0], np.nonzero(M[row])[0])
            for g, row in enumerate(first)]


def _check_demand_shapes(P: np.ndarray, R: np.ndarray, M: np.ndarray) -> None:
    if P.shape != M.shape or R.shape != (P.shape[0],):
        raise ValidationError("shape mismatch in project_demands")
    if np.any(R < 0):
        raise ValidationError("demands must be nonnegative")


def project_demands(allocation: np.ndarray, demands: np.ndarray,
                    mask: np.ndarray) -> np.ndarray:
    """Project each row c onto ``{x >= 0 on mask, 0 off mask, sum = R_c}``.

    Fully-eligible instances (the paper's LAN setup) take a vectorized
    all-rows path; masked rows are grouped by support pattern and each
    group is projected in one vectorized pass (latency-constrained
    instances share few distinct eligibility patterns, so this stays a
    handful of numpy calls where the old fallback looped row by row).
    """
    P = np.asarray(allocation, dtype=float)
    R = np.asarray(demands, dtype=float)
    M = np.asarray(mask, dtype=bool)
    _check_demand_shapes(P, R, M)
    if M.all():
        return _project_rows_vectorized(P, R)
    out = np.zeros_like(P)
    for rows, cols in support_groups(M):
        if cols.size == 0:
            bad = rows[R[rows] > 0]
            if bad.size:
                raise ValidationError(
                    f"client {int(bad[0])} has positive demand "
                    "but no eligible replica")
            continue
        out[np.ix_(rows, cols)] = _project_rows_vectorized(
            P[np.ix_(rows, cols)], R[rows])
    return out


def _project_column_cap(allocation: np.ndarray, column: int,
                        cap: float) -> np.ndarray:
    """Project onto ``{P : P[:, column] >= 0, sum_c P[c, column] <= cap}``.

    Other columns are untouched (the set does not constrain them).
    """
    out = np.array(allocation, dtype=float, copy=True)
    out[:, column] = project_capped_simplex(out[:, column], cap)
    return out


def project_local_set(allocation: np.ndarray, demands: np.ndarray,
                      mask: np.ndarray, column: int, cap: float,
                      max_iter: int = 1000, tol: float = 1e-8) -> np.ndarray:
    """Dykstra projection onto replica ``column``'s local set ``P_n``:

        {P : P >= 0 on mask (0 off mask),
             sum_n P[c, n] = R_c for every client c,
             sum_c P[c, column] <= cap}

    Dykstra's algorithm converges to the exact Euclidean projection onto
    the (nonempty) intersection of the two closed convex sets.  The loop
    stops when the two per-set projections agree to ``tol`` (the true
    convergence measure); the returned iterate is the *demand-side*
    projection, so client demands hold exactly and any residual capacity
    overshoot is bounded by the final discrepancy.
    """
    x = np.asarray(allocation, dtype=float).copy()
    p = np.zeros_like(x)  # correction for the demand set
    q = np.zeros_like(x)  # correction for the capacity set
    scale = float(max(np.max(np.abs(demands), initial=0.0), cap, 1.0))
    y = x
    for _ in range(max_iter):
        y = project_demands(x + p, demands, mask)
        p = x + p - y
        x = _project_column_cap(y + q, column, cap)
        q = y + q - x
        if float(np.max(np.abs(y - x))) < tol * scale:
            break
    return project_demands(x + p, demands, mask)

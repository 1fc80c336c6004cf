"""The LDDM dual bound as an optimality certificate.

LDDM (Sec. III) dualises the per-client demand equalities, so for *any*
multipliers ``pi`` (positive marginal-price convention, ``pi = -mu``)
the dual function

    g(pi) = sum_n min_{s in [0, B_n]} [E_n(s) - s * max_{c elig n} pi_c]
            + sum_c pi_c R_c

is a lower bound on the optimum ``f*`` (weak duality).  Each inner term
is the paper's exact column subproblem (problem (5) with ``eps = 0``):
all the load a column admits goes to its most expensive eligible
multiplier, leaving a one-dimensional convex minimisation with a closed
form.  At a feasible point ``P`` the primal ``E_g(P)`` is an upper bound,
so ``gap = (E_g(P) - g(pi)) / E_g(P)`` bounds how far ``P`` is from
optimal.

The multipliers are read off the point itself: ``pi_c`` is the cheapest
marginal among row ``c``'s eligible replicas *with headroom* — the level
every loaded, uncapped column of the row sits at under KKT.  A row
loaded only on full columns takes those columns' price, marginal plus
capacity multiplier, which another row loaded there reveals.  Strong
duality (convex, Slater) makes the bound tight at the optimum; weak
duality makes it sound everywhere, so a point can only certify if it
really is within ``gap`` of optimal.  O(C*N) passes, one per link in
the longest chain of rows sharing full columns (none without a full
column), no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core import model
from repro.errors import ValidationError

__all__ = ["Certificate", "certify"]

#: Relative slack on row sums and column capacities a point may carry
#: and still count as feasible.
_FEAS_RTOL = 1e-9

#: Share of its row's demand below which an entry does not count as
#: load (the incremental state's activity threshold).
_ACTIVE_EPS = 1e-12


@dataclass(frozen=True)
class Certificate:
    """Primal value, dual bound and relative gap of one allocation.

    ``gap`` is ``inf`` when the allocation is infeasible (a row sum off
    its demand, a column over capacity, load on a masked entry or a
    negative entry) — an infeasible point certifies nothing.  ``mu``
    holds the per-row multipliers the bound was evaluated at (positive
    marginal prices) and ``binding`` flags the capacity-bound columns.
    """

    primal: float
    dual_bound: float
    gap: float
    mu: np.ndarray
    binding: np.ndarray


def _feasible(data, P: np.ndarray, loads: np.ndarray) -> bool:
    """Row sums, capacity, mask and sign of ``P``, to :data:`_FEAS_RTOL`."""
    scale = max(float(np.max(data.R, initial=0.0)), 1.0)
    return bool(
        np.all(np.abs(P.sum(axis=1) - data.R)
               <= _FEAS_RTOL * np.maximum(data.R, 1.0))
        and np.all(loads <= data.B * (1.0 + _FEAS_RTOL))
        and np.all(np.abs(P[~data.mask]) <= 1e-12 * scale)
        and np.all(P >= -1e-12 * scale))


def _column_minima(data, price: np.ndarray,
                   bg: np.ndarray | float = 0.0) -> np.ndarray:
    """``min_{s in [0, B - bg]} E_n(bg + s) - s * price_n`` per column,
    closed form in the column's total load ``y = bg + s``.

    A column no positive-demand row can use (``price = -inf``) admits
    nothing.  Linear columns (``gamma == 1`` or ``beta == 0``) take all
    or nothing; curved ones stop where the marginal meets the price.
    """
    u, a, b, g, B = data.u, data.alpha, data.beta, data.gamma, data.B
    live = np.isfinite(price)
    m = np.where(live, price, 0.0)
    linear = (g == 1.0) | (b == 0.0)
    slope = u * (a + np.where(g == 1.0, b, 0.0)) - m
    y_lin = np.where(slope < 0.0, B, bg)
    excess = np.maximum(m - u * a, 0.0)
    denom = np.where(linear, 1.0, u * b * g)
    expo = 1.0 / np.where(linear, 1.0, g - 1.0)
    y_curve = np.minimum(B, np.maximum((excess / denom) ** expo, bg))
    y = np.where(live, np.where(linear, y_lin, y_curve), bg)
    return model.replica_energy(data, y) - (y - bg) * m


def certify(problem, rows: np.ndarray, *,
            background: np.ndarray | None = None) -> Certificate:
    """Certify ``rows`` against ``problem`` with the LDDM dual bound.

    ``problem`` is a :class:`~repro.core.problem.ReplicaSelectionProblem`
    (or its :class:`~repro.core.params.ProblemData`) — client or class
    space alike — and ``rows`` a (C, N) allocation of it.  Returns a
    :class:`Certificate`; ``gap <= tol`` proves ``rows`` within ``tol``
    (relative) of the optimum.  ``background`` is column load the rows
    do not own (other shards'): the rows are priced at ``background``
    plus their own loads, within the capacity it leaves, and the primal
    and bound both count its energy.
    """
    data = getattr(problem, "data", problem)
    P = np.asarray(rows, dtype=float)
    if P.shape != data.mask.shape:
        raise ValidationError("allocation shape mismatch in certify")
    mask = data.mask
    bg = 0.0 if background is None else np.maximum(background, 0.0)
    loads = P.sum(axis=0) + bg
    L = np.maximum(loads, 0.0)
    primal = float(model.replica_energy(data, L).sum())
    marginal = model.load_marginal_cost(data, L)
    binding = L >= data.B * (1.0 - _FEAS_RTOL)
    room = mask & ~binding[None, :]
    loaded = mask & (P > _ACTIVE_EPS * data.R[:, None])
    cheapest = np.where(room, marginal[None, :], np.inf).min(
        axis=1, initial=np.inf)
    # A row with load where there is headroom prices at the cheapest
    # marginal it could still move to.  A row loaded only on full columns
    # pays those columns' price — marginal plus capacity multiplier —
    # which a priced row sharing the column reveals; prices spread along
    # rows that share full columns.
    mu = np.where((loaded & room).any(axis=1), cheapest, np.nan)
    while True:
        known = ~np.isnan(mu)
        seen = np.where(loaded & known[:, None], mu[:, None], -np.inf).max(
            axis=0, initial=-np.inf)
        reach = ~known & (loaded & np.isfinite(seen)[None, :]).any(axis=1)
        if not reach.any():
            break
        mu[reach] = np.where(loaded[reach],
                             np.maximum(marginal, seen)[None, :],
                             -np.inf).max(axis=1)
    # A row alone on its full columns may price anywhere between their
    # marginals and its cheapest headroom.
    lone = np.isnan(mu)
    mu[lone] = np.where(np.isfinite(cheapest[lone]), cheapest[lone],
                        np.where(loaded[lone], marginal[None, :],
                                 -np.inf).max(axis=1, initial=-np.inf))
    mu = np.where(np.isfinite(mu), mu, 0.0)
    # Rows without demand add nothing to the bound; leaving them out of
    # the column maxima can only raise it.
    active = mask & (data.R > 0.0)[:, None]
    price = np.where(active, mu[:, None], -np.inf).max(axis=0,
                                                       initial=-np.inf)
    dual = float(_column_minima(data, price, bg).sum() + mu @ data.R)
    if not _feasible(data, P, loads):
        gap = math.inf
    elif primal > 0.0:
        gap = max(primal - dual, 0.0) / primal
    else:
        gap = 0.0 if dual >= primal else math.inf
    return Certificate(primal=primal, dual_bound=dual, gap=gap, mu=mu,
                       binding=binding)

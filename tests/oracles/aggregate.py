"""``np.unique(axis=0)`` class grouping — the pre-PR-15 ``from_mask``.

One ``argsort`` over C void rows: O(C log C) and ~20x slower than the
packed-key :func:`repro.core.projection.group_rows` at 10^6 x 8, which
is why it lives here.  The bodies are verbatim; only the return types
changed (plain dict / tuple instead of ``ClassStructure``).
"""

from __future__ import annotations

import numpy as np


def group_rows_unique(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` in first-occurrence order via row ``np.unique``."""
    M = np.asarray(mask, dtype=bool)
    _patterns, first, inverse = np.unique(
        M, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(first, kind="stable")
    rank = np.empty(order.size, dtype=int)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse]


def from_mask_unique(mask: np.ndarray, demands: np.ndarray) -> dict:
    """Every ``ClassStructure`` field as the old ``from_mask`` built it."""
    M = np.asarray(mask, dtype=bool)
    R = np.asarray(demands, dtype=float)
    patterns, first, inverse = np.unique(
        M, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(first, kind="stable")
    rank = np.empty(order.size, dtype=int)
    rank[order] = np.arange(order.size)
    class_of_client = rank[inverse]
    class_demand = np.bincount(class_of_client, weights=R,
                               minlength=order.size)
    denom = class_demand[class_of_client]
    weights = np.divide(R, denom, out=np.zeros_like(R),
                        where=denom > 0.0)
    return dict(class_of_client=class_of_client, masks=patterns[order],
                demands=class_demand, client_demands=R.copy(),
                weights=weights)

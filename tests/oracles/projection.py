"""Row-at-a-time ``project_demands``, verbatim from ``core/projection.py``.

The scalar oracle for the vectorized and support-grouped fast paths of
:func:`repro.core.projection.project_demands` and
:func:`repro.core.kernels.stack_project_demands`; the kernel property
tests assert agreement to 1e-9.  It lived in ``src/`` as
``_project_demands_reference`` until PR 16, with no caller but tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.projection import _check_demand_shapes, project_simplex
from repro.errors import ValidationError


def project_demands_reference(allocation: np.ndarray, demands: np.ndarray,
                              mask: np.ndarray) -> np.ndarray:
    """One :func:`project_simplex` call per row, on the row's support."""
    P = np.asarray(allocation, dtype=float)
    R = np.asarray(demands, dtype=float)
    M = np.asarray(mask, dtype=bool)
    _check_demand_shapes(P, R, M)
    out = np.zeros_like(P)
    for c in range(P.shape[0]):
        support = M[c]
        if not support.any():
            if R[c] > 0:
                raise ValidationError(
                    f"client {c} has positive demand but no eligible replica")
            continue
        out[c, support] = project_simplex(P[c, support], float(R[c]))
    return out

"""Output checks.  Every check is one attempted operation in the ledger;
a failed one makes ``fail_ratio`` non-zero and the exit code non-zero."""

from __future__ import annotations

import numpy as np

#: Relative slack on the feasibility checks of a returned allocation.
FEAS_TOL = 1e-6
#: Ceiling on every objective gap and on HTTP-vs-in-process parity.
GAP_TOL = 1e-6
PARITY_TOL = 1e-9


class Ledger:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, why: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(why)
        return ok

    @property
    def fail_ratio(self) -> float:
        return self.failed / max(self.attempted, 1)


def allocation_violations(P, demands, mask, capacities,
                          tol: float = FEAS_TOL) -> list[str]:
    """Why ``P`` is not a feasible allocation (empty when it is): row sums
    equal demands, column loads within capacity, masked entries zero,
    nothing negative."""
    P = np.asarray(P, dtype=float)
    demands = np.asarray(demands, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    capacities = np.asarray(capacities, dtype=float)
    if P.shape != mask.shape or P.shape[0] != demands.shape[0]:
        return [f"shape {P.shape} vs mask {mask.shape}, "
                f"{demands.shape[0]} demands"]
    out = []
    if not np.all(np.isfinite(P)):
        return ["non-finite entries"]
    row_err = np.abs(P.sum(axis=1) - demands) / np.maximum(demands, 1.0)
    if row_err.size and row_err.max() > tol:
        out.append(f"row sums off demands by {row_err.max():.3g}")
    over = (P.sum(axis=0) - capacities) / capacities
    if over.max() > tol:
        out.append(f"column load over capacity by {over.max():.3g}")
    if (~mask).any() and np.abs(P[~mask]).max() > 0.0:
        out.append(f"masked entry {np.abs(P[~mask]).max():.3g} != 0")
    if P.size and P.min() < -tol:
        out.append(f"negative entry {P.min():.3g}")
    return out


def check_allocation(ledger: Ledger, what: str, P, demands, mask,
                     capacities) -> bool:
    bad = allocation_violations(P, demands, mask, capacities)
    return ledger.record(not bad, f"{what}: {'; '.join(bad)}")


def relative_gap(value: float, reference: float) -> float:
    return (value - reference) / max(abs(reference), 1e-300)


def check_gap(ledger: Ledger, what: str, value: float, reference: float,
              tol: float = GAP_TOL) -> float:
    gap = relative_gap(value, reference)
    ledger.record(gap <= tol, f"{what}: objective gap {gap:.3g} > {tol:g}")
    return gap


def check_equal(ledger: Ledger, what: str, values) -> bool:
    """Deterministic quantities must read the same on every repetition."""
    values = list(values)
    same = all(v == values[0] for v in values[1:])
    return ledger.record(same, f"{what}: differs across repetitions "
                               f"{values[:4]}")

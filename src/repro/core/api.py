"""`solve()`: the one-call entry point for every solver.

The per-algorithm helpers (:func:`~repro.core.lddm.solve_lddm`,
:func:`~repro.core.cdpsm.solve_cdpsm`,
:func:`~repro.core.reference.solve_reference`) are thin wrappers over
this facade, so every entry point shares one signature contract: the
problem and algorithm positionally, everything else keyword-only under
one set of names (``aggregate``, ``warm_start``, ``mu0``, ``recorder``,
plus algorithm-specific options).
"""

from __future__ import annotations

import inspect

import numpy as np

from repro.core.aggregate import solve_aggregated
from repro.core.cdpsm import CdpsmSolver
from repro.core.lddm import LddmSolver
from repro.core.problem import ReplicaSelectionProblem
from repro.core.solution import Solution
from repro.core.waterfill import WaterfillSolver
from repro.errors import ValidationError

__all__ = ["solve", "ALGORITHMS"]

#: Algorithms the facade dispatches to.
ALGORITHMS = ("lddm", "cdpsm", "reference", "waterfill")


def _option_names(algorithm: str) -> frozenset[str]:
    """Keyword names ``solve(..., **options)`` accepts for ``algorithm``.

    Read off the solver's own signature, so the service boundary
    (:mod:`repro.service.plane`) rejects exactly what the solver would —
    before the call, by name — without a second hand-kept list.  The
    arguments :func:`solve` binds itself are not options.
    """
    if algorithm == "reference":
        from repro.core.reference import solve_reference as target
    else:
        target = {"lddm": LddmSolver, "cdpsm": CdpsmSolver,
                  "waterfill": WaterfillSolver}[algorithm]
    return frozenset(inspect.signature(target).parameters) \
        - {"problem", "warm_start", "recorder"}


def solve(problem: ReplicaSelectionProblem, algorithm: str = "lddm", *,
          aggregate: bool = False, warm_start: np.ndarray | None = None,
          mu0: np.ndarray | None = None, recorder=None,
          **options) -> Solution:
    """Solve a replica-selection instance; returns a :class:`Solution`.

    Parameters
    ----------
    problem: the instance to solve.
    algorithm: ``"lddm"`` (the paper's Algorithm 2, default), ``"cdpsm"``
        (Algorithm 1), ``"waterfill"`` (the control plane's certified
        water-fill sweep, :mod:`repro.core.waterfill`), or
        ``"reference"`` (the centralized scipy optimum).
    aggregate: solve the exact eligibility-class reduction (O(K*N) per
        iteration; see :mod:`repro.core.aggregate`).  Not for the
        reference solver.
    warm_start: optional initial allocation.  Problem-shaped (C, N) for
        direct solves, class-space (K, N) when ``aggregate=True``.
    mu0: optional initial dual multipliers (LDDM only; one per solved
        row).
    recorder: optional :class:`~repro.obs.Recorder` capturing
        per-iteration samples and the final solve event.
    options: forwarded to the solver (``max_iter``, ``tol``, ``step``,
        ...; ``tol``/``max_iter`` for the reference and water-fill
        solvers, where water-fill's ``tol`` is the certificate's gap).

    The dispatch adds nothing numerically: ``solve(p, "lddm", **o)``
    computes bit-identical output to ``LddmSolver(p, **o).solve()``.
    """
    if algorithm not in ALGORITHMS:
        raise ValidationError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if mu0 is not None and algorithm != "lddm":
        raise ValidationError("mu0 applies to the lddm algorithm only")
    if algorithm == "reference":
        if aggregate:
            raise ValidationError(
                "the reference solver has no aggregated mode")
        from repro.core.reference import solve_reference

        return solve_reference(problem, warm_start=warm_start,
                               recorder=recorder, **options)
    if aggregate:
        return solve_aggregated(problem, method=algorithm,
                                initial=warm_start, mu0=mu0,
                                recorder=recorder, **options)
    if algorithm == "lddm":
        solver = LddmSolver(problem, recorder=recorder, **options)
        return solver.solve(warm_start, mu0=mu0)
    solvers = {"cdpsm": CdpsmSolver, "waterfill": WaterfillSolver}
    solver = solvers[algorithm](problem, recorder=recorder, **options)
    return solver.solve(warm_start)

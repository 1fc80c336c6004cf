"""The `repro.core.solve` facade: dispatch, parity, and kwarg contract."""

import numpy as np
import pytest

from repro.core import ALGORITHMS, solve
from repro.core.aggregate import solve_aggregated
from repro.core.cdpsm import CdpsmSolver, solve_cdpsm
from repro.core.lddm import LddmSolver, solve_lddm
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.reference import solve_reference
from repro.errors import ValidationError


@pytest.fixture
def problem() -> ReplicaSelectionProblem:
    data = ProblemData.paper_defaults(
        demands=[30.0, 50.0, 20.0], prices=[2.0, 10.0, 4.0])
    return ReplicaSelectionProblem(data)


class TestDispatchParity:
    """The facade adds nothing numerically: outputs are bit-identical."""

    def test_lddm_matches_solver_class(self, problem):
        via_facade = solve(problem, "lddm", max_iter=60)
        direct = LddmSolver(problem, max_iter=60).solve()
        assert np.array_equal(via_facade.allocation, direct.allocation)
        assert via_facade.objective == direct.objective
        assert via_facade.iterations == direct.iterations

    def test_cdpsm_matches_solver_class(self, problem):
        via_facade = solve(problem, "cdpsm", max_iter=60)
        direct = CdpsmSolver(problem, max_iter=60).solve()
        assert np.array_equal(via_facade.allocation, direct.allocation)
        assert via_facade.objective == direct.objective

    def test_wrappers_match_facade(self, problem):
        assert np.array_equal(
            solve_lddm(problem, max_iter=50).allocation,
            solve(problem, "lddm", max_iter=50).allocation)
        assert np.array_equal(
            solve_cdpsm(problem, max_iter=50).allocation,
            solve(problem, "cdpsm", max_iter=50).allocation)

    def test_reference_matches_wrapper(self, problem):
        assert solve(problem, "reference").objective \
            == solve_reference(problem).objective

    def test_aggregate_matches_solve_aggregated(self, problem):
        via_facade = solve(problem, "lddm", aggregate=True, max_iter=60)
        direct = solve_aggregated(problem, method="lddm", max_iter=60)
        assert np.array_equal(via_facade.allocation, direct.allocation)
        assert via_facade.n_classes == direct.n_classes

    def test_warm_start_kwarg(self, problem):
        cold = solve(problem, "lddm", max_iter=60)
        warm = solve(problem, "lddm", warm_start=cold.allocation,
                     max_iter=60)
        assert warm.warm_started is True
        assert warm.objective == pytest.approx(cold.objective, rel=1e-3)


class TestValidation:
    def test_algorithms_tuple(self):
        assert ALGORITHMS == ("lddm", "cdpsm", "reference", "waterfill")

    def test_unknown_algorithm(self, problem):
        with pytest.raises(ValidationError, match="unknown algorithm"):
            solve(problem, "magic")

    def test_mu0_is_lddm_only(self, problem):
        with pytest.raises(ValidationError, match="mu0"):
            solve(problem, "cdpsm", mu0=np.zeros(3))

    def test_reference_has_no_aggregate(self, problem):
        with pytest.raises(ValidationError, match="aggregated"):
            solve(problem, "reference", aggregate=True)

    def test_options_are_keyword_only(self, problem):
        with pytest.raises(TypeError):
            solve(problem, "lddm", True)  # noqa: E501 — aggregate must be kw


class TestRuntimeFields:
    """Every Solution now reports how the solve actually ran."""

    def test_populated_on_direct_solve(self, problem):
        sol = solve(problem, "lddm", max_iter=60)
        assert sol.solve_time_s is not None and sol.solve_time_s > 0
        assert sol.warm_started is False
        assert sol.n_classes is None  # not an aggregated solve

    def test_populated_on_aggregated_solve(self, problem):
        sol = solve(problem, "lddm", aggregate=True, max_iter=60)
        assert sol.solve_time_s is not None and sol.solve_time_s > 0
        assert sol.n_classes == problem.aggregated().n_classes

    def test_populated_on_reference_solve(self, problem):
        sol = solve(problem, "reference")
        assert sol.solve_time_s is not None and sol.solve_time_s > 0
        assert sol.warm_started is False


class TestKeywordOnlyAggregate:
    """The positional-``aggregate`` shim is gone: options are keyword-only."""

    def test_lddm_rejects_positional_aggregate(self, problem):
        with pytest.raises(TypeError):
            solve_lddm(problem, True)

    def test_cdpsm_rejects_positional_aggregate(self, problem):
        with pytest.raises(TypeError):
            solve_cdpsm(problem, True)

    def test_extra_positionals_rejected(self, problem):
        with pytest.raises(TypeError):
            solve_lddm(problem, True, None)

    def test_no_warning_for_keyword_use(self, problem, recwarn):
        solve_lddm(problem, aggregate=True, max_iter=40)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestReferenceWarmStartAlias:
    def test_warm_start_equals_x0(self, problem):
        start = solve(problem, "lddm", max_iter=60).allocation
        via_alias = solve_reference(problem, warm_start=start)
        via_x0 = solve_reference(problem, x0=start)
        assert via_alias.objective == pytest.approx(via_x0.objective)
        assert via_alias.warm_started is True

    def test_both_spellings_rejected(self, problem):
        start = problem.uniform_allocation()
        with pytest.raises(ValidationError):
            solve_reference(problem, x0=start, warm_start=start)

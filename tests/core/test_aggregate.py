"""Client-class aggregation: exactness, degenerate structures, parity.

The load-bearing claims of :mod:`repro.core.aggregate`:

* the reduction/expansion maps are *exact* — expansion preserves column
  loads (hence the objective) and satisfies every per-client constraint,
  and the reduction of a feasible allocation is feasible for the reduced
  instance at the same objective (so the two optima coincide);
* degenerate class structures behave: K=1 (everyone shares a mask),
  K=C (pass-through must be *bit-identical* to the direct solve), and
  zero-demand clients inside classes;
* solver entry points (``solve_*(aggregate=True)``) land on the same
  optimum as the direct and reference solvers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import model
from repro.core.aggregate import (
    AggregatedProblem,
    ClassStructure,
    aggregate_problem,
    solve_aggregated,
)
from repro.core.cdpsm import solve_cdpsm
from repro.core.lddm import solve_lddm
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.projection import group_rows, support_groups
from repro.core.reference import solve_reference
from repro.errors import ValidationError
from repro.util.rng import make_rng

from tests.core.conftest import random_instance
from tests.oracles.aggregate import from_mask_unique, group_rows_unique


def _class_instance(seed: int, n_clients: int, n_patterns: int = 3,
                    n_replicas: int = 4,
                    zero_demand: bool = False) -> ReplicaSelectionProblem:
    """Feasible instance whose mask rows repeat across clients."""
    rng = make_rng(seed)
    patterns = np.zeros((n_patterns, n_replicas), dtype=bool)
    for k in range(n_patterns):
        support = rng.random(n_replicas) < 0.6
        if not support.any():
            support[rng.integers(n_replicas)] = True
        patterns[k] = support
    mask = patterns[rng.integers(0, n_patterns, size=n_clients)]
    demands = rng.uniform(1.0, 6.0, size=n_clients)
    if zero_demand:
        demands[rng.random(n_clients) < 0.3] = 0.0
    capacities = np.full(n_replicas, float(demands.sum()) + 1.0)
    data = ProblemData(demands=demands, capacities=capacities,
                       prices=rng.integers(1, 9, n_replicas).astype(float),
                       alpha=1.0, beta=0.01, gamma=3.0, mask=mask)
    return ReplicaSelectionProblem(data)


class TestClassStructure:
    def test_groups_by_identical_mask_rows(self):
        mask = np.array([[1, 1, 0], [0, 1, 1], [1, 1, 0], [0, 1, 1],
                         [1, 1, 1]], dtype=bool)
        s = ClassStructure.from_mask(mask, np.arange(1.0, 6.0))
        assert s.n_classes == 3
        assert s.class_of_client.tolist() == [0, 1, 0, 1, 2]
        # First-occurrence ordering: class 0 is row 0's pattern, etc.
        assert np.array_equal(s.masks[0], mask[0])
        assert np.array_equal(s.masks[1], mask[1])
        assert np.array_equal(s.masks[2], mask[4])
        assert s.demands.tolist() == [1.0 + 3.0, 2.0 + 4.0, 5.0]
        assert s.members(0).tolist() == [0, 2]

    def test_keys_are_stable_mask_tokens(self):
        mask = np.array([[1, 0], [0, 1], [1, 0]], dtype=bool)
        s = ClassStructure.from_mask(mask, np.ones(3))
        s2 = ClassStructure.from_mask(mask[[1, 0, 0]], np.ones(3))
        # Same patterns, different client order: the *token set* matches
        # even though class indices differ — this is what lets warm-start
        # entries survive client churn.
        assert set(s.keys) == set(s2.keys)
        assert len(set(s.keys)) == s.n_classes

    def test_ordering_stable_under_appended_clients(self):
        mask = np.array([[1, 0, 1], [0, 1, 1]], dtype=bool)
        s = ClassStructure.from_mask(mask, np.ones(2))
        grown = np.vstack([mask, [[1, 1, 1], [1, 0, 1]]]).astype(bool)
        s2 = ClassStructure.from_mask(grown, np.ones(4))
        assert np.array_equal(s2.masks[: s.n_classes], s.masks)
        assert s2.class_of_client.tolist() == [0, 1, 2, 0]

    def test_reduce_then_expand_preserves_loads_exactly(self):
        prob = _class_instance(3, n_clients=40)
        s = aggregate_problem(prob).structure
        P = prob.uniform_allocation()
        Q = s.reduce_rows(P)
        P2 = s.expand_rows(Q)
        assert np.allclose(P2.sum(axis=0), P.sum(axis=0), rtol=0, atol=1e-9)
        assert np.allclose(P2.sum(axis=1), prob.data.R, rtol=0, atol=1e-9)

    def test_shape_validation(self):
        mask = np.ones((3, 2), dtype=bool)
        s = ClassStructure.from_mask(mask, np.ones(3))
        with pytest.raises(ValidationError):
            s.expand_rows(np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            s.reduce_rows(np.zeros((4, 2)))
        with pytest.raises(ValidationError):
            ClassStructure.from_mask(np.ones((0, 2), dtype=bool), np.ones(0))


#: Replica counts straddling every packed-key width: one byte (1, 7, 8),
#: two (9), the uint64 edge (63, 64) and the multi-word lexsort path
#: (65, 130).
KEY_WIDTHS = [1, 7, 8, 9, 63, 64, 65, 130]

#: The same (C, N) pattern handed over in layouts ``from_mask`` must not
#: care about.
LAYOUTS = {
    "c_order": lambda m: m,
    "fortran": np.asfortranarray,
    "strided": lambda m: np.repeat(np.repeat(m, 2, axis=0), 3, axis=1)[::2,
                                                                      ::3],
    "int_typed": lambda m: m.astype(np.int64) * 7,
}


def _assert_matches_unique_oracle(mask, demands):
    got = ClassStructure.from_mask(mask, demands)
    want = from_mask_unique(mask, demands)
    for name, expected in want.items():
        field = getattr(got, name)
        assert np.array_equal(field, expected), name
        assert field.dtype == expected.dtype, name
    assert got.keys == tuple(row.tobytes() for row in want["masks"])
    return got


class TestPackedKeyGrouping:
    """``from_mask`` on packed integer keys vs the ``np.unique(axis=0)``
    oracle it replaced: ``array_equal`` on every field, not a tolerance."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(KEY_WIDTHS),
           st.integers(1, 60), st.sampled_from(sorted(LAYOUTS)))
    def test_property_fields_equal_unique_oracle(self, seed, n_replicas,
                                                 n_clients, layout):
        rng = np.random.default_rng(seed)
        n_patterns = int(rng.integers(1, n_clients + 1))
        patterns = rng.random((n_patterns, n_replicas)) < rng.uniform(0.1, 0.9)
        if rng.random() < 0.5:
            patterns[0] = False          # an all-false (orphan) class
        mask = patterns[rng.integers(0, n_patterns, size=n_clients)]
        demands = rng.uniform(0.0, 9.0, size=n_clients)
        demands[rng.random(n_clients) < 0.3] = 0.0
        s = _assert_matches_unique_oracle(LAYOUTS[layout](mask), demands)
        first, inverse = group_rows(mask)
        want_first, want_inverse = group_rows_unique(mask)
        assert np.array_equal(first, want_first)
        assert np.array_equal(inverse, want_inverse)
        assert np.array_equal(mask[first][inverse], mask)
        assert s.n_classes == first.size

    @pytest.mark.parametrize("n_replicas", KEY_WIDTHS)
    def test_identity_passthrough_when_every_row_is_distinct(self,
                                                             n_replicas):
        # K == C: rows differ in one bit each, reversed so the sorted key
        # order is the opposite of the first-occurrence order.
        C = min(n_replicas, 40)
        mask = np.zeros((C, n_replicas), dtype=bool)
        mask[np.arange(C), n_replicas - 1 - np.arange(C)] = True
        s = _assert_matches_unique_oracle(mask, np.arange(1.0, C + 1))
        assert np.array_equal(s.class_of_client, np.arange(C))
        assert np.array_equal(s.masks, mask)
        assert np.array_equal(s.weights, np.ones(C))

    @pytest.mark.parametrize("n_replicas", KEY_WIDTHS)
    def test_single_client_and_single_class(self, n_replicas):
        row = np.arange(n_replicas) % 3 == 0
        _assert_matches_unique_oracle(row[None, :], np.array([4.0]))
        s = _assert_matches_unique_oracle(np.tile(row, (9, 1)),
                                          np.arange(9.0))
        assert s.n_classes == 1
        assert s.weights.sum() == pytest.approx(1.0)

    def test_all_false_rows_form_one_class(self):
        mask = np.zeros((5, 70), dtype=bool)
        mask[2, 69] = True
        s = _assert_matches_unique_oracle(mask, np.ones(5))
        assert s.class_of_client.tolist() == [0, 0, 1, 0, 0]

    def test_demands_are_copied_not_aliased(self):
        demands = np.array([1.0, 2.0, 3.0])
        s = ClassStructure.from_mask(np.ones((3, 2), dtype=bool), demands)
        demands[:] = 0.0
        assert s.client_demands.tolist() == [1.0, 2.0, 3.0]

    def test_support_groups_partition_rows_by_pattern(self):
        rng = np.random.default_rng(4)
        patterns = rng.random((5, 11)) < 0.5
        patterns[3] = False
        mask = patterns[rng.integers(0, 5, size=80)]
        groups = support_groups(mask)
        rows = np.concatenate([r for r, _ in groups])
        assert sorted(rows.tolist()) == list(range(80))
        for r, cols in groups:
            assert np.array_equal(mask[r], np.tile(mask[r[0]], (r.size, 1)))
            assert np.array_equal(cols, np.nonzero(mask[r[0]])[0])
        # Explicitly sorted, the groups are np.unique's.
        want = np.unique(mask, axis=0)
        got = np.array(sorted(tuple(mask[r[0]]) for r, _ in groups))
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(KEY_WIDTHS),
           st.integers(1, 40))
    def test_property_expand_rows_equals_gather_times_weights(
            self, seed, n_replicas, n_clients):
        rng = np.random.default_rng(seed)
        n_patterns = int(rng.integers(1, 6))
        patterns = rng.random((n_patterns, n_replicas)) < 0.5
        which = rng.integers(0, n_patterns, size=n_clients)
        demands = rng.uniform(0.5, 9.0, size=n_clients)
        demands[which == 0] = 0.0        # a whole zero-demand class
        s = ClassStructure.from_mask(patterns[which], demands)
        Q = rng.uniform(-1.0, 50.0, size=(s.n_classes, n_replicas))
        P = s.expand_rows(Q)
        assert np.array_equal(
            P, Q[s.class_of_client] * s.weights[:, None])
        assert P.flags["C_CONTIGUOUS"] and P.dtype == np.float64
        assert np.all(P[which == 0] == 0.0)
        assert not np.shares_memory(P, Q)


class TestDegenerateStructures:
    def test_single_class_collapses_to_one_row(self):
        prob = random_instance(11, n_clients=30, masked=False)
        agg = prob.aggregated()
        assert agg.n_classes == 1
        sol = solve_aggregated(prob, max_iter=400, tol=1e-6)
        ref = solve_reference(prob)
        assert sol.objective == pytest.approx(ref.objective, rel=1e-4)
        assert prob.violation(sol.allocation) < 1e-8

    @pytest.mark.parametrize("method,solve", [("lddm", solve_lddm),
                                              ("cdpsm", solve_cdpsm)])
    def test_all_unique_masks_is_bit_identical_passthrough(self, method,
                                                           solve):
        # Distinct mask per client => K == C, singleton weights are exactly
        # 1.0, and the reduced instance *is* the original, so the
        # aggregated solve must reproduce the direct one bit for bit.
        rng = make_rng(17)
        mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 1],
                         [0, 1, 1, 1], [1, 0, 1, 1]], dtype=bool)
        data = ProblemData.paper_defaults(
            demands=rng.uniform(10, 40, size=5),
            prices=[1.0, 8.0, 1.0, 6.0], mask=mask)
        prob = ReplicaSelectionProblem(data)
        agg = prob.aggregated()
        assert agg.n_classes == data.n_clients
        assert np.array_equal(agg.problem.data.mask, data.mask)
        assert np.array_equal(agg.problem.data.R, data.R)
        direct = solve(prob, max_iter=60)
        aggregated = solve(prob, aggregate=True, max_iter=60)
        assert np.array_equal(aggregated.allocation, direct.allocation)
        assert aggregated.objective == direct.objective
        assert aggregated.iterations == direct.iterations

    def test_zero_demand_clients_get_zero_rows(self):
        prob = _class_instance(5, n_clients=25, zero_demand=True)
        zero = prob.data.R == 0.0
        assert zero.any()  # the scenario actually exercises the case
        sol = solve_aggregated(prob, max_iter=300, tol=1e-6)
        assert np.all(sol.allocation[zero] == 0.0)
        assert prob.violation(sol.allocation) < 1e-8

    def test_whole_class_of_zero_demand(self):
        mask = np.array([[1, 1, 0], [1, 1, 0], [0, 1, 1]], dtype=bool)
        data = ProblemData.paper_defaults(
            demands=[0.0, 0.0, 40.0], prices=[1.0, 8.0, 1.0], mask=mask)
        prob = ReplicaSelectionProblem(data)
        agg = prob.aggregated()
        assert agg.structure.demands[0] == 0.0
        sol = solve_aggregated(prob, max_iter=200)
        assert np.all(sol.allocation[:2] == 0.0)
        assert sol.allocation[2].sum() == pytest.approx(40.0, abs=1e-9)


class TestExactness:
    """The ≤1e-9 mapping-parity properties behind `aggregate=True`.

    Iterate-for-iterate parity between the direct and reduced solver
    *runs* is not defined (their step sizes scale with R.max(), which the
    reduction changes), so exactness is pinned where it actually holds:
    the reduction/expansion maps preserve objective and loads to float
    round-off, in both directions, on randomized instances.
    """

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n_clients=st.integers(2, 60),
           n_patterns=st.integers(1, 5))
    def test_expansion_is_exact(self, seed, n_clients, n_patterns):
        prob = _class_instance(seed, n_clients, n_patterns=n_patterns)
        agg = aggregate_problem(prob)
        red = agg.problem
        # Any feasible reduced allocation expands to a per-client feasible
        # one with identical loads/objective: use the repaired uniform.
        Q = red.repair(red.uniform_allocation())
        P = agg.structure.expand_rows(Q)
        scale = max(float(prob.data.R.max()), 1.0)
        # Mask and nonnegativity hold *exactly*; demand rows to round-off.
        assert np.all(P[~prob.data.mask] == 0.0)
        assert np.all(P >= 0.0)
        assert np.max(np.abs(P.sum(axis=1) - prob.data.R)) <= 1e-9 * scale
        assert np.max(np.abs(P.sum(axis=0) - Q.sum(axis=0))) <= 1e-9 * scale
        assert model.total_energy(prob.data, P) == pytest.approx(
            model.total_energy(red.data, Q), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n_clients=st.integers(2, 60),
           n_patterns=st.integers(1, 5))
    def test_reduction_is_exact(self, seed, n_clients, n_patterns):
        prob = _class_instance(seed, n_clients, n_patterns=n_patterns)
        agg = aggregate_problem(prob)
        P = prob.repair(prob.uniform_allocation())
        Q = agg.structure.reduce_rows(P)
        scale = max(float(prob.data.R.max()), 1.0)
        assert np.all(Q[~agg.problem.data.mask] == 0.0)
        assert np.max(np.abs(Q.sum(axis=1) - agg.structure.demands)) \
            <= 1e-9 * scale
        assert np.max(np.abs(Q.sum(axis=0) - P.sum(axis=0))) <= 1e-9 * scale
        assert model.total_energy(agg.problem.data, Q) == pytest.approx(
            model.total_energy(prob.data, P), rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5_000), n_clients=st.integers(3, 40))
    def test_aggregated_optimum_matches_reference(self, seed, n_clients):
        prob = _class_instance(seed, n_clients)
        agg_ref = solve_reference(prob.aggregated().problem)
        direct_ref = solve_reference(prob)
        # The two optima coincide (exact transformation); SLSQP agreement
        # is at solver tolerance, not 1e-9.
        assert agg_ref.objective == pytest.approx(direct_ref.objective,
                                                  rel=1e-6)


class TestSolverEntryPoints:
    def test_lddm_aggregate_flag_matches_direct_objective(self):
        prob = _class_instance(23, n_clients=50)
        direct = solve_lddm(prob, max_iter=500, tol=1e-6)
        aggregated = solve_lddm(prob, aggregate=True, max_iter=500, tol=1e-6)
        assert aggregated.objective == pytest.approx(direct.objective,
                                                     rel=1e-4)
        assert prob.violation(aggregated.allocation) < 1e-8

    def test_cdpsm_aggregate_flag_reaches_reference(self):
        # CDPSM's constant step converges to an O(step)-neighborhood of
        # the optimum; on the K-row instance the default step is coarser
        # (fewer, larger rows), so match accuracy by shrinking the step
        # rather than comparing two different-sized neighborhoods.
        from repro.core.cdpsm import default_cdpsm_step
        from repro.core.stepsize import ConstantStep

        prob = _class_instance(23, n_clients=50)
        ref = solve_reference(prob)
        step = ConstantStep(0.3 * default_cdpsm_step(
            prob.aggregated().problem.data))
        aggregated = solve_cdpsm(prob, aggregate=True, step=step,
                                 max_iter=2000, tol=1e-6)
        assert aggregated.objective == pytest.approx(ref.objective, rel=1e-4)
        assert prob.violation(aggregated.allocation) < 1e-8

    def test_problem_aggregated_entry_point(self):
        prob = _class_instance(29, n_clients=16)
        agg = prob.aggregated()
        assert isinstance(agg, AggregatedProblem)
        assert agg.original is prob
        assert agg.structure.n_clients == 16

    def test_unknown_method_rejected(self):
        prob = _class_instance(31, n_clients=4)
        with pytest.raises(ValidationError):
            solve_aggregated(prob, method="simplex")

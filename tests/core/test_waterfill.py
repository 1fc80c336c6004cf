"""The certified water-fill solve and the LDDM dual-bound certificate.

* ``certify`` is sound: its dual bound never exceeds the optimum, the
  primal never undercuts it, and an infeasible point never certifies;
* ``repro.solve(p, "waterfill")`` lands within 1e-6 of the reference
  optimum on random masked / tight instances, including the instances
  where the best-response sweep alone stalls at a wrong answer.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import certify, solve
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.reference import solve_reference
from repro.edr.coordinator import ShardCoordinator, ShardingConfig
from tests.core.conftest import random_instance

#: (masked, tight, clients, seed) of ``random_instance`` (4 replicas)
#: where the one-shard sweep over the client rows stalls: the first two
#: never converge (7.8 % and 35.5 % above the optimum), the other four
#: report convergence 0.05 - 15 % above it.
STALLS = [(True, True, 4, 9), (True, True, 4, 31), (True, False, 4, 5),
          (True, False, 4, 31), (True, True, 9, 27), (True, True, 4, 29)]


def relative(value, ref):
    return (value - ref) / abs(ref)


def sweep_alone(problem):
    """The best-response sweep with no certificate: a one-shard plane
    over the client rows, exchange rounds to its residual, with the
    coordinator's certify-and-re-lay step (``_settle``) switched off."""
    tokens = [i.to_bytes(4, "little") for i in range(problem.data.n_clients)]
    with mock.patch.object(ShardCoordinator, "_settle",
                           lambda self, resid, tol=None: resid), \
            ShardCoordinator(problem.data, tokens,
                             ShardingConfig(n_shards=1)) as coord:
        res = coord.solve()
        return res, coord.class_snapshot()[3]


instances = st.builds(
    lambda seed, clients, replicas, tight: random_instance(
        seed, n_clients=clients, n_replicas=replicas, masked=True,
        tight=tight),
    st.integers(0, 10_000), st.integers(1, 9), st.integers(2, 5),
    st.booleans())


class TestWaterfillSolve:
    @settings(max_examples=60, deadline=None)
    @given(instances, st.booleans())
    def test_matches_the_reference_optimum(self, problem, aggregate):
        assume(problem.feasibility_report()["feasible"])
        ref = solve_reference(problem)
        sol = solve(problem, "waterfill", aggregate=aggregate)
        assert relative(sol.objective, ref.objective) <= 1e-6
        assert sol.max_violation(problem.data) <= 1e-9 * max(
            float(problem.data.R.max()), 1.0)
        # ``converged`` is the certificate's verdict, never a guess.
        gap = certify(problem, sol.allocation).gap
        assert sol.converged == (gap <= 1e-9)

    @pytest.mark.parametrize("masked, tight, clients, seed", STALLS)
    def test_stalled_sweeps_are_caught(self, masked, tight, clients, seed):
        problem = random_instance(seed, n_clients=clients, n_replicas=4,
                                  masked=masked, tight=tight)
        ref = solve_reference(problem).objective
        res, rows = sweep_alone(problem)
        # The sweep alone is wrong, whatever its residual claims ...
        assert relative(certify(problem, rows).primal, ref) > 1e-4
        assert certify(problem, rows).gap > 1e-6
        # ... and the certified solve is not, from client or class rows.
        for aggregate in (False, True):
            sol = solve(problem, "waterfill", aggregate=aggregate)
            assert sol.converged and sol.method == "waterfill"
            assert abs(relative(sol.objective, ref)) <= 1e-6

    def test_easy_instance_certifies_after_one_round(self, paper_instance):
        sol = solve(paper_instance, "waterfill", aggregate=True)
        assert sol.converged and sol.iterations == 1
        ref = solve_reference(paper_instance).objective
        assert abs(relative(sol.objective, ref)) <= 1e-8

    def test_escalation_stays_within_max_iter(self):
        problem = random_instance(9, n_clients=4, n_replicas=4, masked=True,
                                  tight=True)
        sol = solve(problem, "waterfill", max_iter=40)
        assert sol.iterations <= 40

    def test_rejects_lddm_only_options(self, tiny_instance):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError, match="mu0"):
            solve(tiny_instance, "waterfill", mu0=np.zeros(2))
        with pytest.raises(TypeError):
            solve(tiny_instance, "waterfill", epsilon=0.1)


class TestCertificate:
    @settings(max_examples=60, deadline=None)
    @given(instances, st.floats(0.0, 1.0))
    def test_weak_duality_brackets_the_optimum(self, problem, blend):
        """``dual_bound <= f* <= primal`` at any feasible point: here the
        reference optimum blended with the uniform-then-repaired point."""
        assume(problem.feasibility_report()["feasible"])
        ref = solve_reference(problem)
        start = problem.repair(problem.uniform_allocation())
        point = problem.repair(blend * ref.allocation + (1 - blend) * start)
        cert = certify(problem, point)
        slack = 1e-9 * abs(ref.objective)
        assert cert.dual_bound <= ref.objective + slack
        if math.isfinite(cert.gap):
            assert ref.objective <= cert.primal + slack
            # The certificate's claim holds against the reference.
            assert (cert.primal - ref.objective) / cert.primal \
                <= cert.gap + 1e-9

    def test_tight_at_the_optimum_with_a_linear_column(self):
        """A gamma = 1 column takes all or nothing in the column minimum;
        here it sits at the water level (marginal 3, partly filled), and
        the bound is still tight at the optimum."""
        data = ProblemData(
            demands=[30.0, 40.0, 20.0], capacities=[100.0, 100.0, 100.0],
            prices=[2.0, 2.0, 5.0], alpha=[1.0, 1.0, 1.0],
            beta=[0.5, 0.01, 0.01], gamma=[1.0, 2.0, 3.0],
            mask=[[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        problem = ReplicaSelectionProblem(data)
        sol = solve(problem, "waterfill")
        ref = solve_reference(problem).objective
        cert = certify(problem, sol.allocation)
        assert cert.dual_bound <= ref * (1 + 1e-9)
        assert cert.gap <= 1e-9 and sol.converged
        assert not cert.binding.any()
        np.testing.assert_allclose(sol.loads, [65.0, 25.0, 0.0], atol=1e-6)

    # The benchmark self-test's corrupted allocations, copied.
    DEMANDS = np.array([3.0, 5.0])
    MASK = np.array([[True, True, False], [True, True, True]])
    GOOD = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 2.0]])
    CAPS = np.array([10.0, 10.0, 10.0])
    CORRUPTED = {
        "masked entry": (GOOD + [[0, 0, 0.5], [0, 0, 0]], DEMANDS),
        "row sum": (GOOD * [[1.0], [0.9]], DEMANDS),
        "negative entry": (GOOD + [[0, 0, 0], [-2.0, 2.0, 0]], DEMANDS),
        "over capacity": (GOOD * 4.0, DEMANDS * 4.0),
    }

    def problem(self, demands):
        return ReplicaSelectionProblem(ProblemData(
            demands=demands, capacities=self.CAPS, prices=[1.0, 8.0, 1.0],
            alpha=1.0, beta=0.01, gamma=3.0, mask=self.MASK))

    def test_feasible_point_gets_a_finite_gap(self):
        cert = certify(self.problem(self.DEMANDS), self.GOOD)
        assert math.isfinite(cert.gap) and cert.gap > 1e-6

    @pytest.mark.parametrize("what", CORRUPTED)
    def test_infeasible_point_never_certifies(self, what):
        allocation, demands = self.CORRUPTED[what]
        cert = certify(self.problem(demands), allocation)
        assert cert.gap == math.inf

"""Solve shards: partitioning, the batched water-fill, round semantics.

The shard is the unit the sharded control plane ships around — these
tests pin the pieces the coordinator's correctness rests on: the class
partition is deterministic and demand-balanced, the batched water-fill
kernel matches the scalar per-row oracle exactly (including background
loads and capacity-unfit rows), a lone shard's exchange rounds land on
the centralized optimum, damping never breaks row-sum feasibility, and
the process-pool round path is bit-identical to the in-process one.
"""

import copy

import numpy as np
import pytest

from repro.core.incremental import IncrementalState
from repro.core.kernels import waterfill_rows
from repro.core.params import ProblemData
from repro.core.reference import solve_reference
from repro.core.shard import (
    SolveShard,
    partition_classes,
)
from repro.errors import ValidationError
from repro.util.rng import make_rng
from tests.core.conftest import random_instance


def _row_state(problem, seed=0, background_scale=0.0):
    """An IncrementalState treating every client row as its own class."""
    data = problem.data
    tokens = [data.mask[i].tobytes() + bytes([i])
              for i in range(data.n_clients)]
    ref = solve_reference(problem)
    st = IncrementalState(data, tokens, ref.allocation)
    if background_scale > 0.0:
        rng = make_rng(seed)
        st.set_background(
            rng.uniform(0.0, background_scale, size=data.B.shape[0]))
    return st


def _shard_from_state(st, shard_id=0, **kwargs):
    return SolveShard(
        shard_id, tokens=list(st.tokens), demands=st.D,
        capacities=st.B, prices=st.u, alpha=st.alpha, beta=st.beta,
        gamma=st.gamma, mask=st.masks, allocation=st.Q, **kwargs)


class TestPartition:
    def test_deterministic(self):
        D = make_rng(3).uniform(1, 100, size=17)
        a = partition_classes(D, 4)
        b = partition_classes(D, 4)
        assert np.array_equal(a, b)

    def test_every_class_assigned_in_range(self):
        D = make_rng(5).uniform(1, 50, size=11)
        shard_of = partition_classes(D, 3)
        assert shard_of.shape == (11,)
        assert set(np.unique(shard_of)) <= {0, 1, 2}

    def test_demand_balanced_lpt_bound(self):
        # Greedy LPT: the heaviest shard carries at most the balanced
        # share plus one item — far below a degenerate all-on-one split.
        D = make_rng(7).uniform(1, 100, size=40)
        shard_of = partition_classes(D, 4)
        totals = [D[shard_of == s].sum() for s in range(4)]
        assert max(totals) <= D.sum() / 4 + D.max()

    def test_more_shards_than_classes(self):
        D = np.array([5.0, 3.0])
        shard_of = partition_classes(D, 4)
        # The two classes land on distinct shards; the rest stay empty.
        assert shard_of[0] != shard_of[1]

    def test_single_shard_takes_everything(self):
        D = make_rng(1).uniform(1, 10, size=6)
        assert np.array_equal(partition_classes(D, 1), np.zeros(6, int))

    def test_validation(self):
        with pytest.raises(ValidationError):
            partition_classes(np.ones((2, 2)), 2)
        with pytest.raises(ValidationError):
            partition_classes(np.ones(3), 0)


class TestWaterfillRows:
    def _batched_inputs(self, st):
        other = np.maximum(st.loads[None, :] - st.Q, 0.0)
        base = other + st.background[None, :]
        head = np.where(st.masks,
                        np.maximum(st.B[None, :] - base, 0.0), 0.0)
        return base, head

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("background_scale", [0.0, 20.0])
    def test_matches_scalar_oracle(self, seed, background_scale):
        problem = random_instance(seed, n_clients=6, n_replicas=4,
                                  masked=True)
        st = _row_state(problem, seed=seed,
                        background_scale=background_scale)
        base, head = self._batched_inputs(st)
        P, fits = waterfill_rows(st.u, st.alpha, st.beta, st.gamma,
                                 st.D, base, head)
        for k in range(st.n_classes):
            oracle = copy.deepcopy(st)
            ok = oracle._rebalance_row(k)
            if not ok:
                assert not fits[k]
                continue
            assert fits[k]
            np.testing.assert_allclose(P[k], oracle.Q[k],
                                       rtol=1e-6, atol=1e-8)

    def test_row_sums_meet_demand_when_fit(self):
        problem = random_instance(11, n_clients=8, n_replicas=5,
                                  masked=True)
        st = _row_state(problem)
        base, head = self._batched_inputs(st)
        P, fits = waterfill_rows(st.u, st.alpha, st.beta, st.gamma,
                                 st.D, base, head)
        assert fits.all()
        np.testing.assert_allclose(P.sum(axis=1), st.D, rtol=1e-9)
        assert (P >= -1e-12).all()
        assert (P <= head + 1e-9).all()

    def test_unfit_row_grabs_all_headroom(self):
        # One row's demand exceeds its eligible headroom: the kernel
        # reports no fit and fills every eligible column to the brim.
        u = np.array([1.0, 2.0])
        alpha = np.ones(2)
        beta = np.full(2, 0.01)
        gamma = np.full(2, 3.0)
        D = np.array([100.0])
        base = np.array([[0.0, 0.0]])
        head = np.array([[30.0, 40.0]])
        P, fits = waterfill_rows(u, alpha, beta, gamma, D, base, head)
        assert not fits[0]
        np.testing.assert_allclose(P[0], head[0])

    def test_linear_cost_columns(self):
        # gamma=1 makes the marginal constant: columns open whole as the
        # water level passes their price, and the final level's columns
        # share the remainder — the expensive column is never touched.
        u = np.array([3.0, 1.0, 2.0])
        alpha = np.ones(3)
        beta = np.zeros(3)
        gamma = np.ones(3)
        D = np.array([15.0])
        base = np.zeros((1, 3))
        head = np.full((1, 3), 10.0)
        P, fits = waterfill_rows(u, alpha, beta, gamma, D, base, head)
        assert fits[0]
        assert P[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert P[0].sum() == pytest.approx(15.0, rel=1e-9)
        assert (P[0] <= head[0] + 1e-9).all()

    def test_linear_columns_fill_in_price_order(self):
        # The row's level settles on the level-2 column, which the bracket
        # straddles: the level-1 column is full and only the level-2 one
        # takes the remainder — scaling the whole fill down to the
        # demand would leave the cheap column half empty.  Batched and
        # scalar paths alike.
        u = np.array([3.0, 1.0, 2.0])
        alpha = np.ones(3)
        beta = np.zeros(3)
        gamma = np.ones(3)
        P, fits = waterfill_rows(u, alpha, beta, gamma, np.array([15.0]),
                                 np.zeros((1, 3)), np.full((1, 3), 10.0))
        assert fits[0]
        np.testing.assert_allclose(P[0], [0.0, 10.0, 5.0], atol=1e-9)
        data = ProblemData(demands=[15.0], capacities=[10.0] * 3, prices=u,
                           alpha=alpha, beta=beta, gamma=gamma)
        st = IncrementalState(data, [b"row"], np.zeros((1, 3)))
        assert st._rebalance_row(0)
        np.testing.assert_allclose(st.Q[0], [0.0, 10.0, 5.0], atol=1e-9)

    def test_zero_demand_row_is_empty(self):
        problem = random_instance(2, n_clients=3, n_replicas=3)
        st = _row_state(problem)
        D = st.D.copy()
        D[1] = 0.0
        base, head = self._batched_inputs(st)
        P, fits = waterfill_rows(st.u, st.alpha, st.beta, st.gamma,
                                 D, base, head)
        assert fits[1]
        np.testing.assert_allclose(P[1], 0.0)


class TestSolveRound:
    def test_lone_shard_lands_on_reference(self):
        # A single shard owning every class, zero background: exchange
        # rounds degenerate to the monolithic solve and must land on
        # the centralized optimum.
        problem = random_instance(4, n_clients=6, n_replicas=4,
                                  masked=True)
        st = _row_state(problem)
        shard = _shard_from_state(st)
        shard.state.Q[:] = 0.0
        shard.state.loads[:] = 0.0
        bg = np.zeros(problem.data.B.shape[0])
        for _ in range(8):
            r = shard.solve_round(bg, damping=1.0)
            if r.converged:
                break
        ref = solve_reference(problem)
        assert shard.state.objective() == pytest.approx(
            ref.objective, rel=1e-6)
        np.testing.assert_allclose(shard.state.Q.sum(axis=1),
                                   problem.data.R, rtol=1e-9)

    def test_damping_preserves_row_sums(self):
        problem = random_instance(6, n_clients=5, n_replicas=4)
        st = _row_state(problem)
        shard = _shard_from_state(st)
        bg = np.zeros(problem.data.B.shape[0])
        r = shard.solve_round(bg, damping=0.3)
        assert r.fit
        np.testing.assert_allclose(shard.state.Q.sum(axis=1),
                                   shard.state.D, rtol=1e-9)

    def test_background_shrinks_headroom(self):
        # With background pinning most of a cheap column's capacity the
        # shard must shift load elsewhere — its own loads never push a
        # column past B - background.
        problem = random_instance(8, n_clients=4, n_replicas=3)
        st = _row_state(problem)
        shard = _shard_from_state(st)
        B = shard.state.B
        bg = np.zeros_like(B)
        bg[0] = 0.95 * B[0]
        r = shard.solve_round(bg, damping=1.0)
        assert r.fit
        assert shard.state.loads[0] <= B[0] - bg[0] + 1e-9

    def test_empty_shard_round_is_noop(self):
        shard = SolveShard(
            0, tokens=[], demands=np.zeros(0),
            capacities=np.array([10.0, 10.0]), prices=np.ones(2),
            alpha=np.ones(2), beta=np.full(2, 0.01),
            gamma=np.full(2, 3.0), mask=np.zeros((0, 2), dtype=bool))
        r = shard.solve_round(np.zeros(2))
        assert r.converged and r.fit and r.sweeps == 0
        assert shard.n_rows == 0

    def test_drop_replica_zeroes_column(self):
        problem = random_instance(9, n_clients=4, n_replicas=3)
        st = _row_state(problem)
        shard = _shard_from_state(st)
        shard.drop_replica(1)
        assert (shard.state.Q[:, 1] == 0.0).all()
        assert not shard.state.masks[:, 1].any()
        assert shard.state.B[1] == 0.0

"""Coordinator-level contracts for the sharded dual-price plane.

What the runtime leans on: exchange rounds land on the centralized
optimum, ``n_shards=1`` degenerates bit-identically to the monolithic
aggregated solve, both execution modes produce the same bits, a
shard holding essentially all the load still converges, a replica dying
mid-exchange is recovered in place, and routed events keep the plane
within the refresh residual — including the force-target fallback when
a shard declines an event, and the reported (not repaired) decline of a
chunk retarget, which a one-shard plane answers exactly as a bare
:class:`~repro.core.incremental.IncrementalState` does.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.aggregate import aggregate_problem, solve_aggregated
from repro.core.api import solve
from repro.core.certify import certify
from repro.core.incremental import (
    ClientArrival,
    ClientDeparture,
    DemandChange,
    IncrementalState,
)
from repro.core.model import total_energy
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.reference import solve_reference
from repro.edr.coordinator import (
    ShardCoordinator,
    ShardingConfig,
    solve_sharded,
)
from repro.errors import InfeasibleProblemError, ValidationError
from repro.experiments.scenarios import scaling_problem
from tests.core.conftest import random_instance
from tests.edr.test_fleet_elasticity import install_target

#: Acceptance bound: sharded objective within this relative gap of the
#: centralized reference / tight monolithic solve.
REL_GAP = 1e-6


def _class_space(demands, prices=(1.0, 8.0, 1.0), mask=None,
                 bandwidth=None):
    """A tiny instance used *directly* as class space (row = class)."""
    demands = np.asarray(demands, dtype=float)
    kwargs = {} if bandwidth is None else {"bandwidth": bandwidth}
    data = ProblemData.paper_defaults(
        demands=demands, prices=list(prices), mask=mask, **kwargs)
    tokens = [data.mask[i].tobytes() + bytes([i])
              for i in range(data.n_clients)]
    return data, tokens


def _make_coord(n_clients=400, n_shards=3, seed=2013, **cfg_kwargs):
    problem = scaling_problem(n_clients, seed=seed)
    agg = aggregate_problem(problem)
    coord = ShardCoordinator(
        agg.problem.data, list(agg.structure.keys),
        ShardingConfig(n_shards=n_shards, **cfg_kwargs))
    return problem, agg, coord


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ShardingConfig(n_shards=0)
        with pytest.raises(ValidationError):
            ShardingConfig(mode="fork")
        with pytest.raises(ValidationError):
            ShardingConfig(damping=0.0)
        with pytest.raises(ValidationError):
            ShardingConfig(damping=1.5)
        with pytest.raises(ValidationError):
            ShardingConfig(tol=1e-3, refresh_residual=1e-6)

    def test_token_count_checked(self):
        data, tokens = _class_space([10.0, 20.0])
        with pytest.raises(ValidationError):
            ShardCoordinator(data, tokens[:1])

    def test_unknown_client_class_rejected(self):
        data, tokens = _class_space([10.0, 20.0])
        with pytest.raises(ValidationError):
            ShardCoordinator(data, tokens,
                             clients={"c0": (b"nope", 10.0)})


class TestConvergence:
    def test_lands_on_reference(self):
        problem, agg, coord = _make_coord(n_clients=400, n_shards=3)
        res = coord.solve()
        assert res.converged
        rows = coord.rows_for(list(agg.structure.keys))
        P = agg.structure.expand_rows(rows)
        ref = solve_reference(problem)
        assert total_energy(problem.data, P) \
            <= ref.objective * (1 + REL_GAP)
        assert problem.violation(P) < 1e-6 * float(problem.data.R.max())

    def test_solve_sharded_gap_and_feasibility(self):
        problem = scaling_problem(600, seed=7)
        sol = solve_sharded(problem, 3)
        mono = solve_aggregated(problem, "lddm", max_iter=5000, tol=1e-10,
                                track_objective=False)
        gap = abs(sol.objective - mono.objective) \
            / max(abs(mono.objective), 1e-12)
        assert sol.converged
        assert gap <= REL_GAP
        assert sol.method == "sharded"

    def test_single_shard_bit_identical_to_monolithic(self):
        problem = scaling_problem(300, seed=5)
        one = solve_sharded(problem, 1)
        mono = solve(problem, "waterfill", aggregate=True)
        assert np.array_equal(one.allocation, mono.allocation)
        assert one.objective == mono.objective

    @pytest.mark.parametrize("mode", ["process"])
    def test_modes_bit_identical(self, mode):
        problem = scaling_problem(500, seed=3)
        serial = solve_sharded(problem, 3, mode="serial")
        other = solve_sharded(problem, 3, mode=mode)
        assert np.array_equal(serial.allocation, other.allocation)

    def test_one_shard_holds_all_load(self):
        # One class carries ~99% of the demand: LPT isolates it on its
        # own shard, which then fights the (near-empty) others for the
        # cheap columns.  The exchange must still land on the optimum.
        data, tokens = _class_space([500.0, 2.0, 3.0], bandwidth=250.0)
        coord = ShardCoordinator(data, tokens, ShardingConfig(n_shards=3))
        heavy = coord._token_shard[tokens[0]]
        assert coord.shards[heavy].demand() == pytest.approx(500.0)
        res = coord.solve()
        assert res.converged
        ref = solve_reference(
            ReplicaSelectionProblem(ProblemData.paper_defaults(
                demands=[500.0, 2.0, 3.0], prices=[1.0, 8.0, 1.0],
                bandwidth=250.0)))
        assert coord.objective() <= ref.objective * (1 + REL_GAP)

    def test_more_shards_than_classes(self):
        data, tokens = _class_space([40.0, 60.0])
        coord = ShardCoordinator(data, tokens, ShardingConfig(n_shards=4))
        res = coord.solve()
        assert res.converged
        ref = solve_reference(
            ReplicaSelectionProblem(ProblemData.paper_defaults(
                demands=[40.0, 60.0], prices=[1.0, 8.0, 1.0])))
        assert coord.objective() <= ref.objective * (1 + REL_GAP)


    def test_best_response_stall_is_reported_not_masked(self):
        # A captive class and a flexible class share a binding column:
        # damped best response stalls short of the captive row's demand
        # from a cold start (LDDM's capacity-aware column subproblem
        # converges here).  The coordinator must say so —
        # ``EDRSystem``'s sharded path and the service's refresh read
        # ``converged`` / ``residual`` and nothing else.
        rng = np.random.default_rng(393)
        problem = random_instance(
            393, n_clients=int(rng.integers(1, 14)),
            n_replicas=int(rng.integers(1, 7)), masked=True, tight=True)
        agg = aggregate_problem(problem)
        tokens = list(agg.structure.keys)
        coord = ShardCoordinator(agg.problem.data, tokens,
                                 ShardingConfig(n_shards=1))
        res = coord.solve()
        assert not res.converged
        assert res.rounds == coord.config.max_rounds
        assert res.residual > coord.config.tol
        assert res.residual == coord.residual()
        short = agg.structure.demands - coord.rows_for(tokens).sum(axis=1)
        assert short.max() > 0.5

    @pytest.mark.parametrize("factor, rounds", [
        (10.0, 11), (50.0, 28), (100.0, 28)])
    def test_damping_does_not_stall_an_emptied_share(self, factor, rounds):
        # Every class off shard 0 shrinks ``factor``-fold, so their best
        # responses empty columns they loaded.  Blended by the damping,
        # such a share would only decay by (1 - damping) a round (stuck
        # at residual 0.89 / 0.97 after 400 rounds from 1/50 on); the
        # full step for those rows lets the exchange reach ``tol``.
        problem, agg, coord = _make_coord()
        coord.solve()
        tokens = list(agg.structure.keys)
        own = np.array([coord._token_shard[t] == 0 for t in tokens])
        install_target(coord, tokens, agg.structure.masks,
                       np.where(own, 1.0, 1.0 / factor)
                       * agg.structure.demands)
        res = coord.solve(max_rounds=400)
        assert res.residual == coord.residual()
        assert res.converged and res.rounds == rounds <= 64
        assert res.residual <= coord.config.tol

    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_adopts_rows_solved_elsewhere(self, n_shards):
        problem = scaling_problem(400, seed=2013)
        agg = aggregate_problem(problem)
        tokens = list(agg.structure.keys)
        rows = solve_aggregated(problem, "lddm", max_iter=5000, tol=1e-10,
                                track_objective=False)
        rows = agg.structure.reduce_rows(rows.allocation)
        coord = ShardCoordinator(agg.problem.data, tokens,
                                 ShardingConfig(n_shards=n_shards),
                                 allocation=rows)
        # Held as handed over, whichever shard owns each class...
        assert np.array_equal(coord.rows_for(tokens), rows)
        np.testing.assert_allclose(coord.loads, rows.sum(axis=0),
                                   rtol=1e-12)
        # ...and already within tolerance: nothing left to exchange.
        assert coord.rounds_total == 0
        assert coord.residual() <= coord.config.refresh_residual
        with pytest.raises(ValidationError, match="allocation row"):
            ShardCoordinator(agg.problem.data, tokens, allocation=rows[:-1])


class TestReplicaDeath:
    def test_dead_replica_mid_exchange_recovers(self):
        # Converge partially, kill a column mid-flight, finish: the dead
        # column drains everywhere and the plane re-converges on the
        # survivor set's optimum.
        problem, agg, coord = _make_coord(n_clients=300, n_shards=3)
        coord.solve(max_rounds=2)
        coord.fail_replica(1)
        res = coord.solve()
        assert res.converged
        assert coord.loads[1] == pytest.approx(0.0, abs=1e-12)
        masked = problem.data.mask.copy()
        masked[:, 1] = False
        survivors = ReplicaSelectionProblem(ProblemData(
            demands=problem.data.R, capacities=problem.data.B,
            prices=problem.data.u, alpha=problem.data.alpha[0],
            beta=problem.data.beta[0], gamma=problem.data.gamma[0],
            mask=masked))
        ref = solve_reference(survivors)
        assert coord.objective() <= ref.objective * (1 + REL_GAP)

    def test_orphaned_class_raises(self):
        # A class eligible only to the dying replica cannot be placed.
        mask = np.array([[True, True, True], [False, True, False]])
        data, tokens = _class_space([30.0, 20.0], mask=mask)
        coord = ShardCoordinator(data, tokens, ShardingConfig(n_shards=2))
        coord.solve()
        with pytest.raises(InfeasibleProblemError):
            coord.fail_replica(1)

    def test_index_validated(self):
        data, tokens = _class_space([10.0, 20.0])
        coord = ShardCoordinator(data, tokens)
        with pytest.raises(ValidationError):
            coord.fail_replica(7)


class TestEventRouting:
    def _converged_coord(self, n_clients=300, n_shards=3, **cfg_kwargs):
        problem = scaling_problem(n_clients, seed=2013)
        agg = aggregate_problem(problem)
        tokens = list(agg.structure.keys)
        clients = {
            f"c{i}": (tokens[agg.structure.class_of_client[i]],
                      float(problem.data.R[i]))
            for i in range(problem.data.n_clients)}
        coord = ShardCoordinator(
            agg.problem.data, tokens,
            ShardingConfig(n_shards=n_shards, **cfg_kwargs),
            clients=clients)
        coord.solve()
        return problem, coord

    def test_events_stay_within_refresh_residual(self):
        problem, coord = self._converged_coord()
        eligibility = problem.data.mask[0]
        events = [
            ClientArrival("fresh1", 5.0, eligibility),
            DemandChange("c0", 9.0),
            ClientDeparture("c1"),
            ClientDeparture("fresh1"),
        ]
        for event in events:
            r = coord.apply_event(event)
            assert r.ok
            assert coord.residual() \
                <= coord.config.refresh_residual + 1e-12
        assert coord.events_applied >= 2

    def test_absorbs_after_a_replica_death_are_not_certified(self):
        # A dead column holds B = 0 = load.  Only exchange rounds end
        # certified; an event its shard absorbs is neither certified
        # nor re-solved.
        problem, coord = self._converged_coord()
        coord.fail_replica(1)
        assert coord.solve().converged
        absorbed = 0
        with mock.patch("repro.edr.coordinator.certify",
                        wraps=certify) as checked:
            for i in range(20):
                name = f"c{i}"
                demand = coord.registered(name)[1]
                calls = checked.call_count
                r = coord.apply_event(DemandChange(name, demand * 1.01))
                assert r.ok
                if not r.refreshed:
                    absorbed += 1
                    assert checked.call_count == calls
        assert absorbed > 0
        assert coord.resolves == 0
        assert coord.loads[1] == 0.0

    def test_routing_follows_registration(self):
        problem, coord = self._converged_coord()
        eligibility = problem.data.mask[0]
        coord.apply_event(ClientArrival("fresh1", 4.0, eligibility))
        token = np.asarray(eligibility, dtype=bool).tobytes()
        assert coord.registered("fresh1") == (token, 4.0)
        owner = coord.shards[coord._token_shard[token]]
        assert "fresh1" in owner.state.clients
        coord.apply_event(ClientDeparture("fresh1"))
        assert coord.registered("fresh1") is None

    def test_unknown_client_raises(self):
        _, coord = self._converged_coord()
        with pytest.raises(ValidationError):
            coord.apply_event(DemandChange("ghost", 5.0))

    def test_new_class_routes_to_lightest_shard(self):
        _, coord = self._converged_coord()
        fresh_mask = np.array([False, True, False])
        token = fresh_mask.tobytes()
        assert token not in coord._token_shard
        lightest = min(range(coord.n_shards),
                       key=lambda s: (coord.shards[s].demand(), s))
        r = coord.apply_event(ClientArrival("newpat", 3.0, fresh_mask))
        assert r.ok
        assert coord._token_shard[token] == lightest

    @pytest.mark.parametrize("event", [
        ClientArrival("b", 5.0, np.array([1, 0, 1, 0], dtype=bool)),
        ClientArrival("a", 5.0, np.array([1, 0, 1, 0], dtype=bool)),
        ClientArrival("z", 5.0, np.array([1, 0, 1], dtype=bool)),
        ClientArrival("z", -1.0, np.array([1, 0, 1, 0], dtype=bool)),
    ], ids=["duplicate-other-shard", "duplicate-same-shard",
            "wrong-length", "negative-demand"])
    def test_rejected_arrival_leaves_the_plane_unchanged(self, event):
        # Two classes on two shards; each arrival names a class the
        # plane has never seen and is invalid.  It must raise before
        # the routing table or any shard records it.
        mask = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=bool)
        data = ProblemData.paper_defaults([40.0, 60.0],
                                          [1.0, 8.0, 1.0, 6.0], mask=mask)
        tokens = [m.tobytes() for m in mask]
        coord = ShardCoordinator(
            data, tokens, ShardingConfig(n_shards=2),
            clients={"a": (tokens[0], 40.0), "b": (tokens[1], 60.0)})
        coord.solve()
        routes = dict(coord._token_shard)
        snap = coord.class_snapshot()
        with pytest.raises(ValidationError):
            coord.apply_event(event)
        assert coord._token_shard == routes
        after = coord.class_snapshot()
        assert after[0] == snap[0]
        for a, b in zip(after[1:], snap[1:]):
            assert np.array_equal(a, b)
        assert sorted(coord.clients()) == [("a", tokens[0], 40.0),
                                           ("b", tokens[1], 60.0)]

    def test_fallback_recovery_in_place(self):
        # A hair-trigger drift limit makes the owning shard decline the
        # event; the coordinator force-targets and re-runs exchange
        # rounds, ending converged with the event applied.
        problem, coord = self._converged_coord(drift_limit=1e-9)
        before = coord.fallbacks
        r = coord.apply_event(DemandChange("c0", 50.0))
        assert r.ok and r.refreshed
        assert r.fallback_reason in \
            {"capacity", "drift", "convergence", "stale"}
        assert coord.fallbacks == before + 1
        assert coord.residual() <= coord.config.tol * (1 + 1e-9)
        # The demand change actually landed.
        reg = coord.registered("c0")
        assert reg is not None and reg[1] == pytest.approx(50.0)

    def test_retarget_decline_is_reported_not_repaired(self):
        # A hair-trigger drift limit makes the owning shard decline the
        # chunk; the coordinator says so and runs no exchange rounds —
        # the caller re-solves and re-arms a plane from that solution.
        problem, coord = self._converged_coord(drift_limit=1e-9)
        agg = aggregate_problem(problem)
        rounds, fallbacks = coord.rounds_total, coord.fallbacks
        r = coord.retarget(list(agg.structure.keys), agg.structure.masks,
                           agg.structure.demands * 1.5)
        assert not r.ok
        assert r.fallback_reason == "drift"
        assert (r.events, r.sweeps, r.rounds) == (0, 0, 0)
        assert coord.fallbacks == fallbacks + 1
        assert coord.rounds_total == rounds

    def test_retarget_moves_the_plane(self):
        problem, coord = self._converged_coord()
        agg = aggregate_problem(problem)
        tokens = list(agg.structure.keys)
        masks = agg.structure.masks
        demands = agg.structure.demands * 1.1
        r = coord.retarget(tokens, masks, demands)
        assert r.ok
        assert coord.residual() \
            <= coord.config.refresh_residual + 1e-12
        total = sum(sh.demand() for sh in coord.shards)
        assert total == pytest.approx(float(demands.sum()))


@st.composite
def _retarget_case(draw):
    """A random masked class instance plus a random retarget sequence.

    Every step scales each class demand by a factor in [0, 4] (0 drains
    the class); at least one factor differs from 1, so every step
    changes at least one class demand.
    """
    seed = draw(st.integers(0, 10_000))
    problem = random_instance(
        seed, n_clients=draw(st.integers(1, 10)),
        n_replicas=draw(st.integers(1, 5)), masked=True,
        tight=draw(st.booleans()))
    n_classes = aggregate_problem(problem).n_classes
    factor = st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 4.0])
    steps = draw(st.lists(
        st.lists(factor, min_size=n_classes, max_size=n_classes).filter(
            lambda fs: any(f != 1.0 for f in fs)),
        min_size=1, max_size=6))
    return problem, steps


class TestOneShardIsTheIncrementalState:
    @settings(max_examples=60, deadline=None)
    @given(_retarget_case())
    def test_retarget_sequences_match_the_bare_state(self, case):
        """A one-shard plane and a bare ``IncrementalState`` agree exactly.

        Both hold the same converged rows (``allocation=Q``) and see the
        same retarget sequence; every step must return the same ``ok``,
        reason, events and sweeps, bit-equal rows and equal multipliers.
        The one divergence this excludes by construction: a retarget
        that changes nothing, right after the plane adopted rows whose
        residual is above ``refresh_residual``, runs one refresh round
        on the plane and nothing on the state (never the case on the
        traffic replay, whose worst post-retarget residual is ~1e-11
        against the 1e-3 threshold).
        """
        problem, steps = case
        agg = aggregate_problem(problem)
        tokens = list(agg.structure.keys)
        masks = agg.structure.masks
        data = agg.problem.data
        solved = ShardCoordinator(data, tokens, ShardingConfig(n_shards=1))
        assume(solved.solve().converged)
        Q = solved.rows_for(tokens)
        plane = ShardCoordinator(data, tokens, ShardingConfig(n_shards=1),
                                 allocation=Q)
        state = IncrementalState(data, tokens, Q, drift_limit=2.5,
                                 kkt_rtol=1e-9)
        demands = agg.structure.demands.copy()
        for factors in steps:
            demands = demands * np.asarray(factors)
            got = plane.retarget(tokens, masks, demands)
            want = state.retarget(tokens, masks, demands)
            assert got.ok == want.ok
            assert got.fallback_reason == want.reason
            assert (got.events, got.sweeps) == (want.events, want.sweeps)
            assert got.rounds == 0
            assert np.array_equal(plane.rows_for(tokens),
                                  state.rows_for(tokens))
            assert np.array_equal(plane.mu_for(tokens),
                                  state.mu_for(tokens))

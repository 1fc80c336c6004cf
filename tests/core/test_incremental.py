"""Incremental delta-event re-solve: exactness, feasibility, fallbacks.

The contract the runtime leans on: an applied event leaves the state at
the *optimum* of the updated instance (within 1e-6 relative of the
centralized reference — the acceptance bound, property-tested across
random event streams), always feasible, and the state refuses (asks for
a full solve) rather than silently degrading when capacity, drift, or
convergence would break that promise.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.aggregate import ClassStructure
from repro.core.incremental import (
    ClientArrival,
    ClientDeparture,
    DemandChange,
    IncrementalState,
)
from repro.core.problem import ReplicaSelectionProblem
from repro.core.reference import solve_reference
from repro.core.lddm import solve_lddm
from repro.errors import ValidationError
from tests.core.conftest import random_instance

#: Acceptance bound: incremental objective within this relative gap of a
#: full re-solve of the updated instance.
REL_GAP = 1e-6


def _state_from(problem, drift_limit=10.0, **kwargs):
    """State over ``problem`` treating every row as its own class."""
    ref = solve_reference(problem)
    tokens = [problem.data.mask[i].tobytes() + bytes([i])
              for i in range(problem.data.n_clients)]
    clients = {f"c{i}": (tokens[i], float(problem.data.R[i]))
               for i in range(problem.data.n_clients)}
    return IncrementalState(problem.data, tokens, ref.allocation,
                            clients=clients, drift_limit=drift_limit,
                            **kwargs)


def _check_optimal(state):
    """Feasible and within REL_GAP of the reference on the current data."""
    data = state.class_data()
    prob = ReplicaSelectionProblem(data)
    scale = max(1.0, float(data.R.max(initial=0.0)))
    assert prob.violation(state.Q) < 1e-6 * scale
    if float(data.R.sum()) == 0.0:
        assert state.objective() == pytest.approx(0.0, abs=1e-9)
        return
    ref = solve_reference(prob)
    gap = (state.objective() - ref.objective) \
        / max(abs(ref.objective), 1e-12)
    assert gap <= REL_GAP, (state.objective(), ref.objective)


class TestSingleEvents:
    def test_arrival_matches_full_resolve(self):
        prob = random_instance(0, n_clients=5, n_replicas=4, masked=True)
        state = _state_from(prob)
        res = state.apply_event(ClientArrival(
            "new", 7.5, prob.data.mask[0]))
        assert res.ok and res.events == 1
        _check_optimal(state)

    def test_departure_matches_full_resolve(self):
        prob = random_instance(1, n_clients=5, n_replicas=4, masked=True)
        state = _state_from(prob)
        res = state.apply_event(ClientDeparture("c2"))
        assert res.ok
        _check_optimal(state)
        # Departing again is a programming error, not a fallback.
        with pytest.raises(ValidationError):
            state.apply_event(ClientDeparture("c2"))

    def test_demand_change_matches_full_resolve(self):
        prob = random_instance(2, n_clients=5, n_replicas=4, masked=True)
        state = _state_from(prob)
        res = state.apply_event(DemandChange("c0", 2.5))
        assert res.ok
        _check_optimal(state)

    def test_arrival_with_new_pattern_adds_a_class(self):
        prob = random_instance(3, n_clients=4, n_replicas=4)
        state = _state_from(prob)
        k_before = state.n_classes
        row = np.array([True, False, True, False])
        res = state.apply_event(ClientArrival("edge", 5.0, row))
        assert res.ok
        assert state.n_classes == k_before + 1
        assert state.row(row.tobytes()).sum() == pytest.approx(5.0)
        _check_optimal(state)

    def test_cancelling_updates_leave_a_class_exactly_empty(self):
        # 0.1 + 0.2 - 0.1 - 0.2 is 2.8e-17 in floats; the class holds 0.
        prob = random_instance(5, n_clients=4, n_replicas=4)
        state = _state_from(prob)
        row = np.array([True, False, True, False])
        for name, demand in (("a", 0.1), ("b", 0.2)):
            assert state.apply_event(ClientArrival(name, demand, row)).ok
        for name in ("a", "b"):
            assert state.apply_event(ClientDeparture(name)).ok
        assert state.D[state.tokens.index(row.tobytes())] == 0.0
        assert not state.row(row.tobytes()).any()
        _check_optimal(state)

    def test_mu_matches_operating_point(self):
        prob = random_instance(4, n_clients=5, n_replicas=4, masked=True)
        state = _state_from(prob)
        state.apply_event(DemandChange("c1", 12.0))
        from repro.core import model
        best = model.cheapest_eligible_marginal(state.class_data(),
                                                state.loads)
        np.testing.assert_allclose(state.mu(), -best, atol=1e-12)


class TestEventStreams:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n_events=st.integers(1, 12))
    # trust-constr probed a point with a load of -3.9e-6 here and the
    # reference solve raised instead of pricing it.
    @example(seed=7354, n_events=6)
    def test_random_streams_stay_optimal(self, seed, n_events):
        prob = random_instance(seed, n_clients=5, n_replicas=4, masked=True)
        state = _state_from(prob)
        rng = np.random.default_rng(seed)
        names = [f"c{i}" for i in range(prob.data.n_clients)]
        applied = 0
        for j in range(n_events):
            name = names[int(rng.integers(len(names)))]
            if name in state._clients:
                if rng.random() < 0.4:
                    res = state.apply_event(ClientDeparture(name))
                else:
                    res = state.apply_event(DemandChange(
                        name, float(rng.uniform(0.1, 15.0))))
            else:
                i = int(name[1:])
                res = state.apply_event(ClientArrival(
                    name, float(rng.uniform(0.1, 15.0)),
                    prob.data.mask[i]))
            if not res.ok:
                # A declined event is allowed only for a declared reason,
                # and the state must stay declined afterwards.
                assert res.reason in ("capacity", "drift", "convergence")
                assert state.stale
                return
            applied += 1
            _check_optimal(state)
        assert state.events_applied == applied

    def test_warm_fallback_seed_beats_cold(self):
        # The state's rows/mu warm-start a fallback solve: same optimum,
        # no more iterations than a cold start.
        prob = random_instance(7, n_clients=6, n_replicas=4, masked=True)
        state = _state_from(prob)
        state.apply_event(DemandChange("c0", 9.0))
        data = state.class_data()
        prob2 = ReplicaSelectionProblem(data)
        warm = solve_lddm(prob2, warm_start=state.Q.copy(),
                          mu0=state.mu(), max_iter=400, tol=1e-5)
        cold = solve_lddm(prob2, max_iter=400, tol=1e-5)
        assert warm.iterations <= cold.iterations
        assert warm.objective <= cold.objective * (1 + 1e-6)


class TestRetarget:
    def test_retarget_matches_fresh_solve(self):
        # Chunk-to-chunk transition: move to a new class-demand vector.
        prob = random_instance(11, n_clients=8, n_replicas=4, masked=True)
        structure = ClassStructure.from_mask(prob.data.mask, prob.data.R)
        reduced = structure.reduce_data(prob.data)
        ref = solve_reference(ReplicaSelectionProblem(reduced))
        state = IncrementalState(reduced, list(structure.keys),
                                 ref.allocation, drift_limit=10.0)
        rng = np.random.default_rng(11)
        new_D = reduced.R * rng.uniform(0.5, 1.5, size=reduced.n_clients)
        res = state.retarget(list(structure.keys), structure.masks, new_D)
        assert res.ok and res.events >= 1
        np.testing.assert_allclose(
            state.rows_for(list(structure.keys)).sum(axis=1), new_D)
        _check_optimal(state)

    def test_retarget_unchanged_is_free(self):
        prob = random_instance(12, n_clients=6, n_replicas=4, masked=True)
        structure = ClassStructure.from_mask(prob.data.mask, prob.data.R)
        reduced = structure.reduce_data(prob.data)
        ref = solve_reference(ReplicaSelectionProblem(reduced))
        state = IncrementalState(reduced, list(structure.keys),
                                 ref.allocation)
        res = state.retarget(list(structure.keys), structure.masks,
                             reduced.R)
        assert res.ok and res.events == 0 and res.sweeps == 0

    def test_retarget_drains_absent_classes(self):
        prob = random_instance(13, n_clients=6, n_replicas=4, masked=True)
        structure = ClassStructure.from_mask(prob.data.mask, prob.data.R)
        reduced = structure.reduce_data(prob.data)
        ref = solve_reference(ReplicaSelectionProblem(reduced))
        state = IncrementalState(reduced, list(structure.keys),
                                 ref.allocation, drift_limit=10.0)
        keep = list(structure.keys)[:1]
        res = state.retarget(keep, structure.masks[:1],
                             reduced.R[:1])
        assert res.ok
        for token in list(structure.keys)[1:]:
            assert state.row(token).sum() == pytest.approx(0.0, abs=1e-12)
        _check_optimal(state)


class TestFallbacks:
    def test_capacity_fallback(self):
        prob = random_instance(20, n_clients=4, n_replicas=3)
        state = _state_from(prob)
        res = state.apply_event(ClientArrival(
            "huge", float(prob.data.B.sum() * 2),
            np.ones(prob.data.n_replicas, dtype=bool)))
        assert not res.ok and res.reason in ("capacity", "drift")
        assert state.stale
        # A stale state declines everything until rebuilt.
        res2 = state.apply_event(ClientDeparture("c0"))
        assert not res2.ok and res2.reason == "stale"

    def test_drift_fallback_accumulates(self):
        prob = random_instance(21, n_clients=4, n_replicas=3)
        state = _state_from(prob, drift_limit=0.05)
        total = float(prob.data.R.sum())
        res = state.apply_event(DemandChange(
            "c0", float(prob.data.R[0]) + 0.1 * total))
        assert not res.ok and res.reason == "drift"
        assert state.fallbacks == 1

    @pytest.mark.parametrize("reason", ["drift", "capacity", "stale"])
    def test_declined_event_is_still_recorded(self, reason):
        # The one decline contract: ok=False means "rows not re-solved,
        # state stale" whatever the reason; the registry and the class
        # demands always include the event.
        prob = random_instance(24, n_clients=4, n_replicas=3)
        n = prob.data.n_replicas
        state = _state_from(
            prob, drift_limit=1e-6 if reason == "drift" else 1e6)
        if reason == "stale":
            state.apply_event(ClientArrival(
                "huge", float(prob.data.B.sum() * 2), np.ones(n, dtype=bool)))
            assert state.stale
        demand = float(prob.data.B.sum() * 2) if reason == "capacity" else 3.0
        row = np.array([True] + [False] * (n - 1))
        events = [ClientArrival("late", demand, row),
                  DemandChange("c1", float(prob.data.R[1]) + demand),
                  ClientDeparture("c2")]
        for event in events:
            res = state.apply_event(event)
            assert not res.ok
            assert res.reason == (reason if event is events[0] else "stale")
        assert state.stale
        assert state.clients["late"] == (row.tobytes(), demand)
        assert state.clients["c1"][1] == float(prob.data.R[1]) + demand
        assert "c2" not in state.clients
        with pytest.raises(TypeError):
            state.clients["c9"] = (row.tobytes(), 1.0)   # read-only view
        # D is exactly the registry's per-class sum.
        by_class = dict.fromkeys(state.tokens, 0.0)
        for token, d in state.clients.values():
            by_class[token] += d
        np.testing.assert_allclose(
            state.D, [by_class[t] for t in state.tokens], rtol=1e-12)

    def test_small_events_stay_under_drift_limit(self):
        prob = random_instance(22, n_clients=4, n_replicas=3)
        state = _state_from(prob, drift_limit=0.5)
        r0 = float(prob.data.R[0])
        for j in range(3):
            res = state.apply_event(DemandChange("c0", r0 + 0.01 * (j + 1)))
            assert res.ok

    def test_validation_errors(self):
        prob = random_instance(23, n_clients=3, n_replicas=3)
        state = _state_from(prob)
        with pytest.raises(ValidationError):
            state.apply_event(ClientArrival("c0", 1.0, prob.data.mask[0]))
        with pytest.raises(ValidationError):
            state.apply_event(DemandChange("ghost", 1.0))
        with pytest.raises(ValidationError):
            state.apply_event(ClientArrival("x", -1.0, prob.data.mask[0]))
        with pytest.raises(ValidationError):
            IncrementalState(prob.data, [b"a"] * prob.data.n_clients,
                             np.zeros(prob.data.shape))

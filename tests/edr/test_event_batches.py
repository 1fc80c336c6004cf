"""``ShardCoordinator.apply_events``: the one way client events enter the
plane — validate, certify, record, absorb once per touched shard.

* the service's rejected-batch table, run straight against the
  coordinator under one and two shards: the typed error, and a plane
  whose class snapshot and registry did not move;
* infeasible input is refused in process, not absorbed as a capacity
  fallback into an allocation that cannot meet its demands (the
  service's table, run in process and over HTTP, carries the same
  refusals through ``/v1/events``);
* batch vs sequential: the same random batches through ``apply_events``
  and through the per-event loop it replaced (``tests.oracles.events``)
  end at the same registry, class demands, objective and loads;
* the headroom witness is sound: whenever it accepts a batch without the
  max-flow, the max-flow agrees, and every infeasibility rejection is
  the max-flow's verdict on the post-batch instance;
* every accepted batch that ran exchange rounds (a refresh or a
  decline's recovery) ends certified: the plane's class rows are within
  1e-6 of the optimum by the LDDM dual bound.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.aggregate import aggregate_problem
from repro.core.certify import certify
from repro.core.incremental import (
    ClientArrival,
    ClientDeparture,
    DemandChange,
)
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.reference import solve_reference
from repro.edr.coordinator import ShardCoordinator, ShardingConfig
from repro.edr.messages import SolveRequest
from repro.errors import InfeasibleProblemError, ReproError
from repro.service import InProcessControlPlane
from tests.core.conftest import random_instance
from tests.oracles.events import apply_sequentially, validate_batch
from tests.service.batches import BAD_BATCHES, PLANE_CONFIGS, SOLVE

SHARDINGS = {"1-shard": ShardingConfig(n_shards=1),
             "2-shard": ShardingConfig(n_shards=2)}


def frozen(coord):
    """Everything a refused batch must leave untouched, comparable."""
    tokens, masks, demands, rows = coord.class_snapshot()
    return (tokens, masks.tobytes(), demands.tobytes(), rows.tobytes(),
            sorted(coord.clients()), dict(coord._token_shard))


def armed_plane(config):
    plane = InProcessControlPlane(config)
    plane.solve(SolveRequest(**SOLVE))
    return plane


@pytest.mark.parametrize("config", PLANE_CONFIGS)
@pytest.mark.parametrize("case", BAD_BATCHES)
def test_rejected_batch_table_on_the_coordinator(config, case):
    batch, error, fragment = BAD_BATCHES[case]
    with armed_plane(PLANE_CONFIGS[config]) as plane:
        coord = plane._coordinator
        before = frozen(coord)
        with pytest.raises(ReproError, match=fragment) as exc:
            coord.apply_events([wire.to_core() for wire in batch])
        assert type(exc.value).__name__ == error
        assert frozen(coord) == before


def small_plane(sharding, capacity=10.0, registered=(7.5, 7.5)):
    """Two replicas at ``capacity`` MB/s, clients on two classes."""
    mask = np.array([[1, 1], [1, 0]], dtype=bool)
    data = ProblemData.paper_defaults(list(registered), [1.0, 4.0],
                                      bandwidth=capacity, mask=mask)
    tokens = [row.tobytes() for row in mask]
    coord = ShardCoordinator(
        data, tokens, sharding,
        clients={"a": (tokens[0], registered[0]),
                 "b": (tokens[1], registered[1])})
    coord.solve()
    return coord


class TestInfeasibleInputIsRefused:
    """2 replicas at 10 MB/s, 15 MB registered, then a 10 MB arrival:
    25 MB cannot be served by 20 MB/s.  The per-event path absorbed it as
    a ``capacity`` fallback and left rows summing to 20 under D = 25."""

    EVENT = ClientArrival("c", 10.0, np.array([True, True]))

    @pytest.mark.parametrize("sharding", SHARDINGS)
    def test_batch(self, sharding):
        with small_plane(SHARDINGS[sharding]) as coord:
            before = frozen(coord)
            with pytest.raises(InfeasibleProblemError,
                               match="exceeds reachable capacity"):
                coord.apply_events([DemandChange("a", 5.0), self.EVENT])
            assert frozen(coord) == before

    @pytest.mark.parametrize("sharding", SHARDINGS)
    def test_single_event(self, sharding):
        with small_plane(SHARDINGS[sharding]) as coord:
            before = frozen(coord)
            with pytest.raises(InfeasibleProblemError):
                coord.apply_event(self.EVENT)
            assert frozen(coord) == before
            # The same arrival fits once a departure makes room.
            r = coord.apply_events([ClientDeparture("b"), self.EVENT])
            assert r.ok and r.fallback_reason is None
            assert coord.residual() <= coord.config.refresh_residual


# -- random planes and batches -----------------------------------------------

def random_plane(seed, n_clients, n_replicas, n_shards, tight,
                 refresh_residual=1e-3):
    problem = random_instance(seed, n_clients=n_clients,
                              n_replicas=n_replicas, masked=True,
                              tight=tight)
    agg = aggregate_problem(problem)
    tokens = list(agg.structure.keys)
    clients = {f"c{i}": (tokens[agg.structure.class_of_client[i]],
                         float(problem.data.R[i]))
               for i in range(problem.data.n_clients)}

    def build():
        coord = ShardCoordinator(
            agg.problem.data, tokens,
            ShardingConfig(n_shards=n_shards,
                           refresh_residual=refresh_residual),
            clients=clients)
        return coord, coord.solve().converged

    return problem, build


@st.composite
def batch_case(draw, tight=False, scale=(0.0, 1.0), refresh_residual=1e-3):
    """A converged plane plus one valid batch drawn against its registry.

    Ops: demand change, departure, arrival on a held pattern, arrival on
    a pattern the plane has never seen, and the two cancellations the
    batch absorb has to get right — a client arriving and leaving in the
    batch, and a class created and emptied in the batch.
    """
    seed = draw(st.integers(0, 10_000))
    n_replicas = draw(st.integers(2, 5))
    n_shards = draw(st.sampled_from([1, 2]))
    problem, build = random_plane(seed, draw(st.integers(2, 10)),
                                  n_replicas, n_shards, tight,
                                  refresh_residual)
    cap = float(problem.data.B.sum())
    registry = {f"c{i}": (problem.data.mask[i], float(problem.data.R[i]))
                for i in range(problem.data.n_clients)}
    demand = st.floats(*scale).map(lambda f: f * cap / 4)
    row = st.lists(st.booleans(), min_size=n_replicas,
                   max_size=n_replicas).filter(any).map(np.array)
    events = []
    for i in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(
            ["change", "leave", "arrive", "fresh", "bounce", "flash"]))
        if kind in ("change", "leave") and registry:
            name = draw(st.sampled_from(sorted(registry)))
            if kind == "change":
                events.append(DemandChange(name, draw(demand)))
            else:
                events.append(ClientDeparture(name))
                del registry[name]
            continue
        if kind == "fresh":
            elig = draw(row)
        else:
            elig = problem.data.mask[draw(st.integers(
                0, problem.data.n_clients - 1))].copy()
        name = f"n{i}"
        events.append(ClientArrival(name, draw(demand), elig))
        if kind == "bounce":
            events.append(ClientDeparture(name))
        elif kind == "flash":
            # A class created and emptied inside the batch.
            flash = np.zeros(n_replicas, dtype=bool)
            flash[draw(st.integers(0, n_replicas - 1))] = True
            flash[-1] = True
            events.pop()
            events += [ClientArrival(name, draw(demand), flash),
                       ClientDeparture(name)]
        else:
            registry[name] = (elig, 0.0)
    return build, events


def registry_and_demand(coord):
    tokens, _, demands, _ = coord.class_snapshot()
    return sorted(coord.clients()), dict(zip(tokens, demands.tolist()))


class TestConvergedSolveIsCertified:
    def test_a_stalled_best_response_is_re_laid(self):
        # Per-row best response stops at residual ~1e-13 on a full column
        # coupling two classes, objective 8 194 against the optimum
        # 6 929 (dual-bound gap 1.19): a converged solve re-lays it.
        problem, build = random_plane(1638, 3, 3, 1, False)
        want = solve_reference(aggregate_problem(problem).problem).objective
        coord, converged = build()
        with coord:
            assert converged and coord.resolves == 1
            assert coord.residual() <= coord.config.tol
            assert coord.objective() <= want * (1 + 1e-9)


class TestBatchMatchesSequential:
    @settings(max_examples=80, deadline=None)
    @given(batch_case(scale=(0.0, 0.5)))
    def test_batch_equals_the_per_event_loop(self, case):
        build, events = case
        (batched, ok_b), (oracle, ok_o) = build(), build()
        assume(ok_b and ok_o)
        with batched, oracle:
            try:
                routed = apply_sequentially(oracle, events)
            except InfeasibleProblemError:
                with pytest.raises(InfeasibleProblemError):
                    batched.apply_events(events)
                return
            r = batched.apply_events(events)
            assert r.ok and r.events == len(events)
            assert registry_and_demand(batched) == registry_and_demand(oracle)
            if batched.n_shards > 1 or r.fallback_reason \
                    or any(x.fallback_reason for x in routed):
                # Each path stops wherever its shard absorbs (or its
                # recovery rounds) left it, within ``refresh_residual``
                # of the optimum: compare the optimum both converge to.
                if not (batched.solve().converged
                        and oracle.solve().converged):
                    return
            want = oracle.objective()
            assert abs(batched.objective() - want) <= 1e-9 * abs(want)
            np.testing.assert_allclose(batched.loads, oracle.loads,
                                       rtol=0, atol=1e-6)


class TestWitnessSoundness:
    @settings(max_examples=120, deadline=None)
    @given(batch_case(tight=True, scale=(0.0, 2.0)))
    def test_witness_and_max_flow_agree(self, case):
        build, events = case
        coord, ok = build()
        assume(ok)
        verdict = ReplicaSelectionProblem.feasibility_report
        calls = []

        def spy(problem):
            calls.append(problem)
            return verdict(problem)

        with coord:
            before = frozen(coord)
            # The max-flow's verdict on the post-batch instance, built by
            # the service's old registry walk.
            try:
                validate_batch(coord, events)
                feasible = True
            except InfeasibleProblemError:
                feasible = False
            with mock.patch.object(ReplicaSelectionProblem,
                                   "feasibility_report", spy):
                try:
                    coord.apply_events(events)
                    refused = False
                except InfeasibleProblemError:
                    refused = True
        assert refused == (not feasible)
        if refused:
            # Only the max-flow refuses, and the plane did not move.
            assert len(calls) == 1
            assert frozen(coord) == before


def certificate_gap(coord):
    """The LDDM dual-bound gap of the plane's own class rows."""
    _, masks, demands, rows = coord.class_snapshot()
    return certify(ProblemData(
        demands=demands, capacities=coord.B, prices=coord.u,
        alpha=coord.alpha, beta=coord.beta, gamma=coord.gamma,
        mask=masks), rows).gap


class TestExchangeRoundsEndCertified:
    """Exchange rounds can stop above ``tol`` (a decline's recovery at
    residual 0.256 on one shard, up to 0.61 on two) or converge to a
    point where per-row best response stalls on a full column coupling
    two classes; neither may be handed back as an accepted batch.  A
    batch its shards absorb without rounds is left as absorbed.

    The planes refresh at ``tol``, so most batches run refresh rounds:
    at the default ``refresh_residual`` an absorb may leave a KKT
    residual up to 1e-3 by design."""

    @settings(max_examples=120, deadline=None)
    @given(batch_case(tight=True, scale=(0.0, 1.0), refresh_residual=1e-8))
    def test_every_batch_that_exchanged_ends_certified(self, case):
        build, events = case
        coord, _ = build()
        with coord:
            # The build's own solve may already have re-laid the plane.
            resolves = coord.resolves
            try:
                routed = coord.apply_events(events)
            except InfeasibleProblemError:
                return
            assert routed.ok
            if routed.refreshed:
                assert certificate_gap(coord) <= 1e-6
            else:
                assert coord.resolves == resolves

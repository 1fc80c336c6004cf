"""One solve, one answer: ``/v1/solve`` hands its solution to the event
plane, so the response *is* the plane's state.

Each test here fails at the parent of the change, where the arming solve
answered with the requested algorithm's rows but re-solved the instance
with the coordinator's best-response sweep for the plane to hold.
"""

import numpy as np
import pytest

import repro
from repro.core.aggregate import ClassStructure
from repro.edr.messages import EventRequest, SolveRequest
from repro.service.plane import InProcessControlPlane
from tests.core.conftest import random_instance
from tests.service.batches import PLANE_CONFIGS

PRICES = [1.0, 8.0, 1.0, 6.0]
#: Five eligibility classes over twelve clients, named out of order so
#: request order and the snapshot's sorted order differ.
MASK = [[1, 1, 1, 1], [1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1],
        [1, 1, 1, 0], [1, 1, 1, 1], [1, 1, 0, 1], [0, 1, 1, 1],
        [1, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 0], [1, 1, 0, 1]]
DEMANDS = [20.0, 15.0, 25.0, 10.0, 18.0, 12.0, 0.04, 7.5, 31.0, 0.02,
           9.0, 22.0]
CLIENTS = ["k", "c", "j", "a", "f", "l", "b", "e", "d", "i", "h", "g"]

#: Capacity-coupled instances where the coordinator's best-response sweep
#: stalls from a cold start (see ``tests/edr/test_coordinator.py``): at
#: the parent the armed plane was 0.556 short of a demand, 2.4e-4 short,
#: and 6.8e-4 over a capacity while the response reported convergence.
STALL_SEEDS = [393, 579, 107]


def varied_request(**over):
    fields = dict(demands=DEMANDS, prices=PRICES, clients=CLIENTS,
                  mask=[[bool(b) for b in row] for row in MASK])
    fields.update(over)
    return SolveRequest(**fields)


def stall_instance(seed):
    """The pinned instance family: shape drawn from the seed itself."""
    rng = np.random.default_rng(seed)
    n_clients = int(rng.integers(1, 14))
    n_replicas = int(rng.integers(1, 7))
    return random_instance(seed, n_clients=n_clients, n_replicas=n_replicas,
                           masked=True, tight=True)


def stall_request(seed):
    d = stall_instance(seed).data
    return SolveRequest(
        demands=d.R.tolist(), prices=d.u.tolist(), capacities=d.B.tolist(),
        mask=d.mask.tolist(), alpha=d.alpha.tolist(), beta=d.beta.tolist(),
        gamma=d.gamma.tolist(),
        clients=[f"c{i}" for i in range(d.n_clients)])


def assert_response_is_first_snapshot(solved, snapshot):
    """Allocation aligned by client name, loads and objective exact."""
    assert sorted(solved.clients) == snapshot.clients
    row_of = dict(zip(snapshot.clients, snapshot.allocation))
    np.testing.assert_array_equal(
        np.asarray(solved.allocation),
        np.asarray([row_of[name] for name in solved.clients]))
    assert solved.loads == snapshot.loads
    assert solved.objective == snapshot.objective


@pytest.mark.parametrize("config", PLANE_CONFIGS)
@pytest.mark.parametrize("aggregate", [True, False],
                         ids=["aggregated", "direct"])
@pytest.mark.parametrize("algorithm", ["lddm", "cdpsm", "reference",
                                       "waterfill"])
def test_solve_response_equals_first_snapshot(algorithm, aggregate, config):
    with InProcessControlPlane(PLANE_CONFIGS[config]) as plane:
        solved = plane.solve(varied_request(algorithm=algorithm,
                                            aggregate=aggregate))
        snapshot = plane.events(EventRequest(events=[]))
    assert solved.method == algorithm
    assert_response_is_first_snapshot(solved, snapshot)
    # The hand-over preserved the instance: rows meet their demands.
    np.testing.assert_allclose(np.asarray(solved.allocation).sum(axis=1),
                               DEMANDS, rtol=1e-6)


def test_solve_response_equals_first_snapshot_over_http():
    with repro.serve(PLANE_CONFIGS["2-shard"]) as server:
        client = repro.connect(server.url)
        solved = client.solve(varied_request())
        snapshot = client.events([])
    assert_response_is_first_snapshot(solved, snapshot)


@pytest.mark.parametrize("seed", STALL_SEEDS)
def test_armed_plane_is_feasible_where_best_response_stalls(seed):
    data = stall_instance(seed).data
    with InProcessControlPlane() as plane:
        solved = plane.solve(stall_request(seed))
        snapshot = plane.events(EventRequest(events=[]))
    assert solved.converged
    held = np.asarray(snapshot.allocation)
    demands = data.R[[int(name[1:]) for name in snapshot.clients]]
    assert np.all(np.abs(held.sum(axis=1) - demands) <= 1e-9 * demands)
    assert np.all(held.sum(axis=0) <= data.B * (1 + 1e-6))
    assert_response_is_first_snapshot(solved, snapshot)


def test_arming_solve_groups_once_and_runs_no_exchange_round(monkeypatch):
    calls = []
    from_mask = ClassStructure.from_mask.__func__

    def counting(cls, mask, demands):
        calls.append(np.shape(mask))
        return from_mask(cls, mask, demands)

    monkeypatch.setattr(ClassStructure, "from_mask", classmethod(counting))
    with InProcessControlPlane(PLANE_CONFIGS["2-shard"]) as plane:
        plane.solve(varied_request())
        assert calls == [(len(DEMANDS), len(PRICES))]
        assert plane._coordinator.rounds_total == 0

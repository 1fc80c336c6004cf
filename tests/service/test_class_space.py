"""Class-space responses: ``/v1/solve`` and ``/v1/events`` carry the
plane's K class rows and a client -> class index, and every side expands
them through one formula, :func:`repro.core.aggregate.expand_class_rows`.

The expansion is pinned ``array_equal`` to the two routines it replaced
(``ClassStructure.expand_rows``' weights and the plane's ``_client_rows``,
kept in ``tests/oracles/wire.py``) on the registries churn leaves behind:
zero-demand classes, a class whose members all departed, an empty
registry, a class created inside the batch.  Decoding is exact, so a
response read over HTTP equals the in-process one with ``==``.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.core.aggregate import ClassStructure, expand_class_rows
from repro.edr.messages import EventRequest, EventResponse, SolveRequest, \
    SolveResponse
from repro.service.plane import InProcessControlPlane
from repro.errors import WireFormatError
from tests.oracles.wire import client_rows, eager_allocation, eager_duals, \
    expand_rows_weights
from tests.service.batches import PLANE_CONFIGS, arrival, change, departure

PRICES = [1.0, 8.0, 1.0, 6.0]
#: Three classes; class [1, 1, 0, 1] (b, e) starts with zero demand.
MASK = [[1, 1, 1, 1], [1, 1, 0, 1], [0, 1, 1, 1], [1, 1, 1, 1],
        [1, 1, 0, 1], [0, 1, 1, 1]]
DEMANDS = [20.0, 0.0, 25.0, 10.0, 0.0, 7.5]
CLIENTS = ["a", "b", "c", "d", "e", "f"]

#: id -> churn batch applied to the plane armed by ``request()``.
SCENARIOS = {
    "zero-demand-class": [],
    "class-members-all-departed": [departure("c"), departure("f")],
    "empty-registry": [departure(name) for name in CLIENTS],
    "class-created-in-batch": [arrival("g", 4.0, elig=(1, 0, 1, 0)),
                               change("g", 6.5),
                               arrival("h", 0.5, elig=(1, 0, 1, 0))],
    "revived-zero-class": [change("b", 3.0), departure("a")],
}


def request():
    return SolveRequest(demands=DEMANDS, prices=PRICES, clients=CLIENTS,
                        mask=[[bool(b) for b in row] for row in MASK])


def expected_rows(coord, registry):
    """Both oracles on the plane's own snapshot; they must agree."""
    tokens, _, class_demand, rows = coord.class_snapshot()
    at = {t: k for k, t in enumerate(tokens)}
    class_of = np.array([at[t] for _, t, _ in registry], dtype=int)
    demands = np.array([d for _, _, d in registry], dtype=float)
    via_shares = client_rows(coord, registry)
    via_weights = expand_rows_weights(rows, class_of, demands, class_demand)
    assert np.array_equal(via_shares, via_weights)
    assert np.array_equal(
        expand_class_rows(rows, class_of, demands, class_demand), via_shares)
    return via_shares


def as_matrix(resp, n_replicas=len(PRICES)):
    return np.asarray(resp.allocation, dtype=float).reshape(
        len(resp.client_demands), n_replicas)


@pytest.mark.parametrize("config", PLANE_CONFIGS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_event_allocation_equals_replaced_expansions(config, scenario):
    with InProcessControlPlane(PLANE_CONFIGS[config]) as plane:
        plane.solve(request())
        resp = plane.events(EventRequest(events=SCENARIOS[scenario]))
        coord = plane._coordinator
        registry = sorted(coord.clients())
        want = expected_rows(coord, registry)
    assert resp.clients == [name for name, _, _ in registry]
    assert np.array_equal(as_matrix(resp), want)
    decoded = EventResponse.from_json(resp.to_json())
    assert decoded == resp
    assert decoded.allocation == resp.allocation
    if scenario == "empty-registry":
        assert resp.clients == [] and resp.allocation == []
        assert len(resp.class_rows) >= 1


@pytest.mark.parametrize("config", PLANE_CONFIGS)
def test_solve_allocation_equals_replaced_expansions(config):
    with InProcessControlPlane(PLANE_CONFIGS[config]) as plane:
        solved = plane.solve(request())
        coord = plane._coordinator
        members = [(name, coord.registered(name)[0], demand)
                   for name, demand in zip(CLIENTS, DEMANDS)]
        want = expected_rows(coord, members)
    assert np.array_equal(as_matrix(solved), want)
    assert solved.allocation[1] == [0.0] * len(PRICES)    # zero-demand class
    decoded = SolveResponse.from_json(solved.to_json())
    assert decoded == solved
    assert decoded.allocation == solved.allocation
    assert decoded.duals == solved.duals


@pytest.mark.parametrize("config", PLANE_CONFIGS)
def test_client_views_are_built_on_first_read(config):
    """``allocation`` / ``duals`` are cached views: a response the server
    only encodes never expands them, and the first read equals the
    expansion the model used to build eagerly."""
    with InProcessControlPlane(PLANE_CONFIGS[config]) as plane:
        solved = plane.solve(request())
        events = plane.events(EventRequest(
            events=SCENARIOS["class-created-in-batch"]))
    for resp in (solved, events, SolveResponse.from_json(solved.to_json()),
                 EventResponse.from_json(events.to_json())):
        assert "allocation" not in vars(resp)
        want = eager_allocation(resp)
        assert np.array_equal(resp.allocation, want)
        assert resp.allocation is resp.allocation          # cached
    assert "duals" not in vars(solved)
    assert np.array_equal(solved.duals, eager_duals(solved))


@pytest.mark.parametrize("field, value, fragment", [
    ("class_of", [0, 9], "index class_rows"),
    ("client_demands", [1.0], "one entry per client"),
    ("class_rows", [[1.0, 2.0]], "one row per class_demand"),
    ("class_duals", [1.0, 2.0, 3.0], "one entry per class"),
])
def test_malformed_payload_fails_at_parse_not_at_first_read(field, value,
                                                            fragment):
    good = dict(class_rows=[[1.0, 2.0], [3.0, 4.0]], class_demand=[3.0, 7.0],
                class_of=[0, 1], client_demands=[3.0, 7.0], objective=1.0,
                iterations=1, converged=True, class_duals=[1.0, 2.0])
    SolveResponse(**good)
    with pytest.raises(WireFormatError, match=fragment):
        SolveResponse(**dict(good, **{field: value}))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_structure_expansion_equals_replaced_weights(seed):
    rng = np.random.default_rng(seed)
    n_clients, n_replicas = int(rng.integers(1, 60)), int(rng.integers(1, 9))
    patterns = rng.random((int(rng.integers(1, 7)), n_replicas)) < 0.6
    which = rng.integers(0, patterns.shape[0], size=n_clients)
    demands = rng.uniform(0.0, 9.0, size=n_clients)
    demands[which == which[0]] = 0.0            # one zero-demand class
    s = ClassStructure.from_mask(patterns[which], demands)
    Q = rng.uniform(0.0, 50.0, size=(s.n_classes, n_replicas))
    want = expand_rows_weights(Q, s.class_of_client, s.client_demands,
                               s.demands)
    assert np.array_equal(s.expand_rows(Q), want)
    assert np.array_equal(s.weights[:, None] * Q[s.class_of_client], want)


def test_http_equals_in_process_at_ten_thousand_clients_with_churn():
    rng = np.random.default_rng(2013)
    n, n_replicas = 10_000, 8
    patterns = np.ones((6, n_replicas), dtype=bool)
    for i in range(1, 6):
        patterns[i, [i, (i + 3) % n_replicas]] = False
    which = rng.integers(0, 6, n)
    names = [f"c{i:05d}" for i in range(n)]
    req = SolveRequest(
        demands=rng.uniform(0.5, 2.0, n).tolist(),
        prices=[1.0, 8.0, 1.0, 6.0, 1.0, 5.0, 2.0, 3.0],
        capacities=[6000.0] * n_replicas, mask=patterns[which].tolist(),
        clients=names, options={"max_iter": 3000})
    batches = []
    for b in range(3):
        batch = [departure(names[int(i)])
                 for i in rng.choice(1000, 20, replace=False) + b * 1000]
        batch += [change(names[int(i)], float(rng.uniform(0.5, 2.0)))
                  for i in rng.choice(n // 2, 20, replace=False) + n // 2]
        batch += [arrival(f"new{b}-{i}", float(rng.uniform(0.5, 2.0)),
                          elig=patterns[i % 6] if i % 5 else
                          [True, False] * (n_replicas // 2))
                  for i in range(20)]
        batches.append(batch)

    with InProcessControlPlane() as local:
        direct = [local.solve(req)]
        direct += [local.events(EventRequest(events=batch))
                   for batch in batches]
    with repro.serve() as server:
        client = repro.connect(server.url)
        via_http = [client.solve(req)]
        via_http += [client.events(batch) for batch in batches]

    solved, served = (dataclasses.replace(r, solve_time_s=None)
                      for r in (direct[0], via_http[0]))
    assert served == solved
    assert served.allocation == solved.allocation
    assert served.duals == solved.duals
    for http_resp, local_resp in zip(via_http[1:], direct[1:]):
        assert http_resp == local_resp
        assert http_resp.allocation == local_resp.allocation
    assert len(via_http[-1].clients) == n      # 60 departed, 60 arrived
    assert len(via_http[-1].class_rows) == 7          # one class created

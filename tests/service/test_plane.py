"""InProcessControlPlane: solves, event streams, the failure detector,
the sharded backend, and the close() lifecycle."""

import numpy as np
import pytest

from repro.core.api import solve
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.reference import solve_reference
from repro.edr.coordinator import ShardingConfig
from repro.edr.messages import (
    EventRequest,
    HeartbeatRequest,
    RegisterRequest,
    SolveRequest,
    WireEvent,
)
from repro.edr.system import FaultConfig, SolverOptions
from repro.errors import ReproError, ValidationError
from repro.service.plane import ControlPlane, InProcessControlPlane, \
    ServiceConfig
from tests.service.batches import BAD_BATCHES, PLANE_CONFIGS, SOLVE, arrival

DEMANDS = [40.0, 60.0, 30.0]
PRICES = [1.0, 8.0, 1.0, 6.0]


def make_plane(**cfg):
    return InProcessControlPlane(ServiceConfig(**cfg))


def paper_problem():
    return ReplicaSelectionProblem(ProblemData.paper_defaults(DEMANDS, PRICES))


def solve_request(**over):
    fields = dict(demands=DEMANDS, prices=PRICES, clients=["a", "b", "c"])
    fields.update(over)
    return SolveRequest(**fields)


class TestSolve:
    def test_matches_library_solve_exactly(self):
        with make_plane() as plane:
            resp = plane.solve(solve_request(algorithm="lddm"))
        direct = solve(paper_problem(), "lddm", aggregate=True)
        np.testing.assert_array_equal(np.asarray(resp.allocation),
                                      direct.allocation)
        assert resp.objective == direct.objective
        assert resp.converged

    def test_default_matches_library_waterfill_exactly(self):
        with make_plane() as plane:
            resp = plane.solve(solve_request())
        direct = solve(paper_problem(), "waterfill", aggregate=True)
        np.testing.assert_array_equal(np.asarray(resp.allocation),
                                      direct.allocation)
        assert resp.objective == direct.objective
        assert resp.iterations == direct.iterations == 1
        assert resp.converged

    def test_reports_runtime_fields(self):
        with make_plane() as plane:
            resp = plane.solve(solve_request(algorithm="lddm"))
        assert resp.method == "lddm"
        assert resp.solve_time_s > 0
        assert resp.n_classes == 1
        assert len(resp.duals) == len(DEMANDS)
        assert len(resp.loads) == len(PRICES)

    @pytest.mark.parametrize("aggregate", [True, False])
    def test_default_reports_waterfill_in_class_space(self, aggregate):
        with make_plane() as plane:
            resp = plane.solve(solve_request(aggregate=aggregate))
        assert resp.method == "waterfill"
        assert resp.solve_time_s > 0
        assert resp.n_classes == 1
        assert len(resp.duals) == len(DEMANDS)
        assert len(resp.loads) == len(PRICES)

    def test_unknown_algorithm_rejected(self):
        with make_plane() as plane:
            with pytest.raises(ValidationError, match="algorithm"):
                plane.solve(solve_request(algorithm="simplex"))

    @pytest.mark.parametrize("options, named", [
        ({"bogus": 1}, "bogus"),
        ({"recorder": 5}, "recorder"),
        ({"batched": False}, "batched"),
        ({"step": 0.1}, "step"),
    ])
    def test_unknown_solver_option_rejected_by_name(self, options, named):
        with make_plane() as plane:
            with pytest.raises(ValidationError, match=named):
                plane.solve(solve_request(options=options))
            # The rejection happens before any state changes.
            assert plane.solve(solve_request(
                options={"max_iter": 50})).iterations <= 50

    def test_client_names_must_cover_rows(self):
        with make_plane() as plane:
            with pytest.raises(ValidationError, match="clients"):
                plane.solve(solve_request(clients=["a"]))
            with pytest.raises(ValidationError, match="unique"):
                plane.solve(solve_request(clients=["a", "a", "b"]))

    def test_solve_without_clients_leaves_events_unarmed(self):
        with make_plane() as plane:
            plane.solve(solve_request(clients=None))
            with pytest.raises(ValidationError, match="event plane"):
                plane.events(EventRequest(events=[]))


class TestEvents:
    def arrival(self, name, demand=10.0, elig=(1, 1, 1, 1)):
        return WireEvent(kind="arrival", client=name, demand=demand,
                         eligibility=list(elig))

    def test_stream_tracks_registry_and_objective(self):
        with make_plane() as plane:
            plane.solve(solve_request())
            resp = plane.events(EventRequest(events=[
                self.arrival("d", 12.0),
                WireEvent(kind="demand_change", client="a", demand=55.0),
                WireEvent(kind="departure", client="b"),
            ]))
        assert resp.applied == 3
        assert resp.clients == ["a", "c", "d"]
        assert resp.objective > 0
        # per-client allocation rows sum to each client's demand
        totals = np.asarray(resp.allocation).sum(axis=1)
        np.testing.assert_allclose(totals, [55.0, 30.0, 12.0], atol=1e-8)
        # loads equal the column sums of the per-client allocation
        np.testing.assert_allclose(
            np.asarray(resp.allocation).sum(axis=0), resp.loads, atol=1e-8)

    def test_duplicate_arrival_rejected(self):
        with make_plane() as plane:
            plane.solve(solve_request())
            with pytest.raises(ValidationError, match="registered"):
                plane.events(EventRequest(events=[self.arrival("a")]))

    def test_unknown_client_rejected(self):
        with make_plane() as plane:
            plane.solve(solve_request())
            with pytest.raises(ValidationError, match="unknown client"):
                plane.events(EventRequest(events=[
                    WireEvent(kind="departure", client="zz")]))

    def test_new_eligibility_class_is_admitted(self):
        with make_plane() as plane:
            plane.solve(solve_request())
            resp = plane.events(EventRequest(events=[
                self.arrival("d", 8.0, elig=(1, 0, 1, 0))]))
        assert resp.applied == 1
        row = np.asarray(resp.allocation)[resp.clients.index("d")]
        assert row[1] == 0.0 and row[3] == 0.0
        assert row.sum() == pytest.approx(8.0)

    @pytest.mark.parametrize("sharding, always_recovers", [
        (None, False),
        (ShardingConfig(n_shards=2), False),
        (ShardingConfig(n_shards=1, drift_limit=1e-6), True),
    ], ids=["default", "2-shard", "1-shard-always-recover"])
    def test_long_churn_stream_stays_feasible(self, sharding,
                                              always_recovers):
        rng = np.random.default_rng(7)
        with make_plane(solver=SolverOptions(sharding=sharding)) as plane:
            plane.solve(solve_request())
            registry = {name: (demand, [True] * 4)
                        for name, demand in zip("abc", DEMANDS)}
            events = []
            for i in range(60):
                roll = rng.random()
                if roll < 0.4 or len(registry) < 2:
                    name = f"x{i}"
                    elig = [bool(b) for b in rng.random(4) < 0.7]
                    registry[name] = (float(rng.uniform(1, 20)),
                                      elig if any(elig) else [True] * 4)
                    events.append(self.arrival(name, *registry[name]))
                elif roll < 0.7:
                    victim = sorted(registry)[0]
                    del registry[victim]
                    events.append(WireEvent(kind="departure", client=victim))
                else:
                    target = sorted(registry)[-1]
                    registry[target] = (float(rng.uniform(1, 25)),
                                        registry[target][1])
                    events.append(WireEvent(kind="demand_change",
                                            client=target,
                                            demand=registry[target][0]))
            resp = plane.events(EventRequest(events=events))
        assert resp.applied == 60
        assert resp.clients == sorted(registry)
        assert max(resp.loads) <= 100.0 + 1e-6
        if always_recovers:
            # One batch, one absorb: its decline is recovered once.
            assert resp.resolves == 1
            assert resp.fallback_reasons == {"drift": 1}
        # The plane ends at the optimum of the registry it reports.
        ref = solve_reference(ReplicaSelectionProblem(
            ProblemData.paper_defaults(
                [registry[c][0] for c in resp.clients], PRICES,
                mask=[registry[c][1] for c in resp.clients])))
        assert resp.objective - ref.objective <= 1e-6 * ref.objective


@pytest.mark.parametrize("config", PLANE_CONFIGS)
class TestRejectedBatches:
    """Validate-then-apply: a refused batch leaves the plane unchanged."""

    @pytest.mark.parametrize("case", BAD_BATCHES)
    def test_bad_batch_is_rejected_whole(self, config, case):
        batch, error, fragment = BAD_BATCHES[case]
        with InProcessControlPlane(PLANE_CONFIGS[config]) as plane:
            plane.solve(SolveRequest(**SOLVE))
            before = plane.events(EventRequest(events=[])).to_json()
            with pytest.raises(ReproError, match=fragment) as exc:
                plane.events(EventRequest(events=batch))
            assert type(exc.value).__name__ == error
            assert plane.events(EventRequest(events=[])).to_json() == before
            # ...and stays usable: the valid prefix was not half-applied.
            ok = plane.events(EventRequest(events=[arrival("d", 5.0)]))
        assert ok.applied == 1 and "d" in ok.clients
        assert np.isfinite(ok.loads).all()


class TestShardedBackend:
    def sharded_plane(self):
        return make_plane(solver=SolverOptions(
            sharding=ShardingConfig(n_shards=2, mode="process")))

    def varied_request(self):
        # four distinct eligibility classes so two shards get real work
        mask = [[1, 1, 1, 1], [1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1],
                [1, 1, 1, 0], [1, 1, 1, 1]]
        return SolveRequest(
            demands=[20.0, 15.0, 25.0, 10.0, 18.0, 12.0], prices=PRICES,
            mask=[[bool(b) for b in row] for row in mask],
            clients=["a", "b", "c", "d", "e", "f"])

    def test_events_route_through_coordinator(self):
        with self.sharded_plane() as plane:
            plane.solve(self.varied_request())
            assert plane._coordinator is not None
            resp = plane.events(EventRequest(events=[
                WireEvent(kind="arrival", client="g", demand=9.0,
                          eligibility=[True, True, True, True]),
                WireEvent(kind="departure", client="b"),
            ]))
        assert resp.applied == 2
        assert "g" in resp.clients and "b" not in resp.clients
        totals = np.asarray(resp.allocation).sum(axis=1)
        assert totals.sum() == pytest.approx(sum(resp.loads))

    def test_close_releases_coordinator_pools(self):
        plane = self.sharded_plane()
        plane.solve(self.varied_request())
        coordinator = plane._coordinator
        assert coordinator is not None
        # An arming solve runs no exchange round, so no fleet exists
        # yet; force one so close() has something to release.
        coordinator.solve()
        assert coordinator.worker_pool is not None
        plane.close()
        assert coordinator._closed
        assert coordinator.worker_pool is None
        assert plane._coordinator is None


class TestFailureDetector:
    def test_liveness_follows_heartbeat_age(self):
        clock = [0.0]
        plane = InProcessControlPlane(
            ServiceConfig(faults=FaultConfig(hb_interval=0.05,
                                             hb_timeout=0.25)),
            clock=lambda: clock[0])
        ack = plane.register(RegisterRequest(agent="r0"))
        assert ack.hb_interval == 0.05
        assert ack.hb_timeout == 0.25
        assert plane.membership().live == ["r0"]
        clock[0] = 0.2
        plane.heartbeat(HeartbeatRequest(agent="r0"))
        clock[0] = 0.4
        m = plane.membership()
        assert m.live == ["r0"]            # age 0.2 <= timeout
        assert m.heartbeat_age_s["r0"] == pytest.approx(0.2)
        clock[0] = 0.7
        m = plane.membership()
        assert m.live == []                # age 0.5 > timeout: dead
        assert m.replicas == ["r0"]        # but still registered
        plane.close()

    def test_unknown_agent_heartbeat_is_flagged(self):
        with make_plane() as plane:
            ack = plane.heartbeat(HeartbeatRequest(agent="ghost"))
        assert ack.known is False

    def test_membership_advertises_cadence(self):
        cfg = ServiceConfig(faults=FaultConfig(hb_interval=0.1,
                                               hb_timeout=0.5))
        with InProcessControlPlane(cfg) as plane:
            m = plane.membership()
        assert m.hb_interval == 0.1
        assert m.hb_timeout == 0.5


class TestLifecycle:
    def test_satisfies_control_plane_protocol(self):
        assert isinstance(InProcessControlPlane(), ControlPlane)

    def test_close_is_idempotent_and_final(self):
        plane = make_plane()
        plane.solve(solve_request())
        plane.close()
        plane.close()
        with pytest.raises(ValidationError, match="closed"):
            plane.solve(solve_request())
        with pytest.raises(ValidationError, match="closed"):
            plane.events(EventRequest(events=[]))

    def test_health_reflects_closed_state(self):
        plane = make_plane()
        assert plane.health().ok
        plane.close()
        assert not plane.health().ok

    def test_metrics_counts_requests(self):
        with make_plane() as plane:
            plane.solve(solve_request())
            plane.membership()
            text = plane.metrics_text()
        assert 'repro_service_requests_total{endpoint="solve"} 1' in text
        assert 'repro_service_requests_total{endpoint="membership"} 1' \
            in text

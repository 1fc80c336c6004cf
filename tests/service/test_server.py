"""ControlPlaneServer end-to-end over real HTTP: routing, parity with the
in-process backend, error mapping, Prometheus exposition compliance, and
the close() lifecycle."""

import http.client
import json
import re
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.edr.coordinator import ShardingConfig
from repro.edr.messages import (
    WIRE_VERSION,
    ErrorResponse,
    SolveRequest,
    WireEvent,
)
from repro.edr.system import SolverOptions
from repro.errors import ServiceError, VersionMismatchError
from repro.service import (
    EDRClient,
    InProcessControlPlane,
    ServiceConfig,
    connect,
    serve,
)
from tests.service.batches import BAD_BATCHES, DEMANDS, PLANE_CONFIGS, \
    PRICES, SOLVE


@pytest.fixture()
def server():
    with serve() as srv:
        yield srv


@pytest.fixture()
def client(server):
    return connect(server.url)


def raw_request(url, method="GET", body=None, headers=None):
    req = urllib.request.Request(url, data=body, method=method,
                                 headers=headers or {})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, resp.read().decode()


class TestEndpoints:
    def test_health(self, client):
        health = client.health()
        assert health.ok
        assert health.wire_version == WIRE_VERSION

    def test_solve_over_http_matches_in_process_exactly(self, client):
        request = SolveRequest(demands=DEMANDS, prices=PRICES,
                               clients=["a", "b", "c"])
        via_http = client.solve(request)
        with InProcessControlPlane() as local:
            direct = local.solve(request)
        # JSON round-trips floats via repr, so parity is exact — not
        # just within the 1e-9 CI gate.
        assert via_http.allocation == direct.allocation
        assert via_http.objective == direct.objective
        assert via_http.duals == direct.duals

    def test_events_over_http(self, client):
        client.solve(demands=DEMANDS, prices=PRICES,
                     clients=["a", "b", "c"])
        resp = client.events([
            WireEvent(kind="arrival", client="d", demand=12.0,
                      eligibility=[True, True, True, True]),
            WireEvent(kind="departure", client="b"),
        ])
        assert resp.applied == 2
        assert resp.clients == ["a", "c", "d"]
        totals = np.asarray(resp.allocation).sum(axis=1)
        np.testing.assert_allclose(totals, [40.0, 30.0, 12.0], atol=1e-8)

    def test_events_accept_core_event_objects(self, client):
        from repro.core.incremental import DemandChange

        client.solve(demands=DEMANDS, prices=PRICES,
                     clients=["a", "b", "c"])
        resp = client.events([DemandChange(client="a", demand=50.0)])
        assert resp.applied == 1

    def test_membership_and_register(self, client):
        ack = client.register("replica-0", capacity_mbps=100.0)
        assert ack.agent == "replica-0"
        assert ack.hb_interval > 0
        hb = client.heartbeat("replica-0", seq=1)
        assert hb.known
        m = client.membership()
        assert m.replicas == ["replica-0"]
        assert m.live == ["replica-0"]

    def test_solve_kwargs_shorthand(self, client):
        resp = client.solve(demands=[10.0, 20.0], prices=[1.0, 2.0])
        assert resp.converged

    def test_request_and_kwargs_are_exclusive(self, client):
        with pytest.raises(ServiceError, match="not both"):
            client.solve(SolveRequest(demands=[1.0], prices=[1.0]),
                         demands=[2.0])


class TestErrorMapping:
    def test_unrouted_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            raw_request(server.url + "/v1/nope")
        assert exc.value.code == 404
        err = ErrorResponse.from_json(exc.value.read())
        assert err.error == "not_found"

    def test_wrong_method_is_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            raw_request(server.url + "/v1/solve")  # GET on a POST route
        assert exc.value.code == 405

    def test_malformed_body_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            raw_request(server.url + "/v1/solve", method="POST",
                        body=b"{not json",
                        headers={"Content-Type": "application/json"})
        assert exc.value.code == 400

    def test_validation_failure_is_typed_service_error(self, client):
        with pytest.raises(ServiceError) as exc:
            client.solve(demands=DEMANDS, prices=PRICES,
                         algorithm="simplex")
        assert exc.value.status == 400
        assert exc.value.remote_type == "ValidationError"

    @pytest.mark.parametrize("options, named", [
        ({"bogus": 1}, "bogus"),
        ({"recorder": 5}, "recorder"),
        ({"batched": False}, "batched"),
        ({"step": 0.1}, "step"),
    ])
    def test_unknown_solver_option_is_400_naming_the_key(
            self, client, options, named):
        with pytest.raises(ServiceError, match=named) as exc:
            client.solve(demands=DEMANDS, prices=PRICES, options=options)
        assert exc.value.status == 400
        assert exc.value.remote_type == "ValidationError"
        # The plane survives the rejection.
        assert client.solve(demands=DEMANDS, prices=PRICES).converged

    def test_newer_wire_version_is_426(self, server):
        payload = SolveRequest(demands=[1.0], prices=[1.0]).to_dict()
        payload["v"] = WIRE_VERSION + 1
        with pytest.raises(urllib.error.HTTPError) as exc:
            raw_request(server.url + "/v1/solve", method="POST",
                        body=json.dumps(payload).encode(),
                        headers={"Content-Type": "application/json"})
        assert exc.value.code == 426

    def test_client_raises_version_mismatch_on_426(self, server):
        client = EDRClient(server.url)
        payload = SolveRequest(demands=[1.0], prices=[1.0])
        original = payload.to_json

        def newer():
            d = json.loads(original())
            d["v"] = WIRE_VERSION + 1
            return json.dumps(d)

        payload.to_json = newer
        with pytest.raises(VersionMismatchError):
            client.solve(payload)

    def test_unreachable_server_raises_service_error(self):
        client = EDRClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()

    @pytest.mark.parametrize("error", [
        ConnectionResetError(104, "Connection reset by peer"),
        http.client.IncompleteRead(b"{", 10),
        TimeoutError("timed out"),
    ], ids=["reset", "incomplete-read", "timeout"])
    def test_transport_failure_mid_read_raises_service_error(
            self, server, monkeypatch, error):
        real_urlopen = urllib.request.urlopen

        def fail_mid_read(*args, **kwargs):
            response = real_urlopen(*args, **kwargs)
            response.read = lambda *_a: (_ for _ in ()).throw(error)
            return response

        monkeypatch.setattr(urllib.request, "urlopen", fail_mid_read)
        with pytest.raises(ServiceError, match="cannot reach") as exc:
            EDRClient(server.url).health()
        assert exc.value.__cause__ is error


#: Prometheus metric-name legality per the text exposition format.
METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


@pytest.mark.parametrize("config", PLANE_CONFIGS)
class TestRejectedBatches:
    """A refused batch is a typed 400 and leaves the served plane unchanged."""

    @pytest.mark.parametrize("case", BAD_BATCHES)
    def test_bad_batch_is_typed_400_over_http(self, config, case):
        batch, error, fragment = BAD_BATCHES[case]
        with serve(PLANE_CONFIGS[config]) as srv:
            client = connect(srv.url)
            client.solve(**SOLVE)
            before = client.events([]).to_json()
            with pytest.raises(ServiceError, match=fragment) as exc:
                client.events(batch)
            assert exc.value.status == 400
            assert exc.value.remote_type == error
            assert client.events([]).to_json() == before


class TestMetricsExposition:
    def scrape(self, client):
        client.solve(demands=DEMANDS, prices=PRICES)
        client.register("r0")
        return client.metrics_text()

    def test_every_family_has_help_and_type(self, client):
        text = self.scrape(client)
        families = {}
        help_seen, type_seen = set(), set()
        for line in text.strip().splitlines():
            if line.startswith("# HELP "):
                help_seen.add(line.split()[2])
            elif line.startswith("# TYPE "):
                parts = line.split()
                type_seen.add(parts[2])
                assert parts[3] in ("counter", "gauge", "histogram",
                                    "summary", "untyped")
            else:
                name = line.split("{")[0].split()[0]
                families.setdefault(name, 0)
        assert families, "scrape produced no samples"
        for name in families:
            assert name in help_seen, f"{name} lacks a # HELP line"
            assert name in type_seen, f"{name} lacks a # TYPE line"

    def test_metric_names_are_legal(self, client):
        for line in self.scrape(client).strip().splitlines():
            if line.startswith("#"):
                name = line.split()[2]
            else:
                name = line.split("{")[0].split()[0]
            assert METRIC_NAME.match(name), f"illegal metric name {name!r}"

    def test_samples_parse_as_floats(self, client):
        for line in self.scrape(client).strip().splitlines():
            if line.startswith("#"):
                continue
            float(line.rsplit(None, 1)[1])  # value column parses

    def test_content_type_is_prometheus_text(self, server, client):
        self.scrape(client)
        req = urllib.request.Request(server.url + "/metrics")
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")

    def test_help_lines_precede_samples(self, client):
        seen_sample_for = set()
        for line in self.scrape(client).strip().splitlines():
            if line.startswith("# HELP "):
                name = line.split()[2]
                assert name not in seen_sample_for, \
                    f"# HELP for {name} after its samples"
            elif not line.startswith("#"):
                seen_sample_for.add(line.split("{")[0].split()[0])


class TestLifecycle:
    def test_close_shuts_listener_and_plane(self):
        server = serve()
        client = connect(server.url)
        assert client.health().ok
        plane = server.plane
        server.close()
        server.close()  # idempotent
        with pytest.raises(ServiceError):
            EDRClient(server.url, timeout=0.5).health()
        assert plane._closed

    def test_close_releases_sharded_worker_pools(self):
        config = ServiceConfig(solver=SolverOptions(
            sharding=ShardingConfig(n_shards=2, mode="process")))
        server = serve(config)
        client = connect(server.url)
        mask = [[True] * 4, [True, True, False, True],
                [False, True, True, True], [True, False, True, True]]
        client.solve(demands=[20.0, 15.0, 25.0, 10.0], prices=PRICES,
                     mask=mask, clients=["a", "b", "c", "d"])
        coordinator = server.plane._coordinator
        assert coordinator is not None
        # An arming solve runs no exchange round, so no fleet exists
        # yet; force one so close() has something to release.
        coordinator.solve()
        assert coordinator.worker_pool is not None
        server.close()
        assert coordinator._closed
        assert coordinator.worker_pool is None

    def test_context_manager_closes(self):
        with serve() as server:
            url = server.url
            assert connect(url).health().ok
        with pytest.raises(ServiceError):
            EDRClient(url, timeout=0.5).health()

    def test_connect_rejects_newer_server(self, server, monkeypatch):
        monkeypatch.setattr(
            "repro.service.client.WIRE_VERSION", WIRE_VERSION - 1)
        client = EDRClient(server.url)
        health = client.health()
        assert health.wire_version == WIRE_VERSION  # server is "newer"
        with pytest.raises(VersionMismatchError):
            connect(server.url)

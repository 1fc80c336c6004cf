"""ReplicaAgent: registration, server-dictated heartbeat cadence, the
failure detector seen end-to-end, and clean shutdown."""

import time
import urllib.request

import pytest

from repro.edr.system import FaultConfig
from repro.errors import ServiceError
from repro.service import ReplicaAgent, ServiceConfig, connect, serve


@pytest.fixture()
def fast_server():
    """A server with a tight cadence so liveness flips within a test."""
    config = ServiceConfig(faults=FaultConfig(hb_interval=0.02,
                                              hb_timeout=0.1))
    with serve(config) as srv:
        yield srv


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestCadenceAdoption:
    def test_agent_adopts_server_cadence(self, fast_server):
        with ReplicaAgent(fast_server.url, "r0") as agent:
            # Cadence comes from the RegisterResponse — i.e. from the
            # server's FaultConfig — never from agent-side constants.
            assert agent.hb_interval == 0.02
            assert agent.hb_timeout == 0.1

    def test_cadence_unset_before_start(self, fast_server):
        agent = ReplicaAgent(fast_server.url, "r0")
        assert agent.hb_interval is None
        assert agent.hb_timeout is None
        agent.start()
        try:
            assert agent.hb_interval is not None
        finally:
            agent.stop()

    def test_distinct_config_distinct_cadence(self):
        config = ServiceConfig(faults=FaultConfig(hb_interval=0.03,
                                                  hb_timeout=0.33))
        with serve(config) as server:
            with ReplicaAgent(server.url, "r0") as agent:
                assert agent.hb_interval == 0.03
                assert agent.hb_timeout == 0.33


class TestLiveness:
    def test_running_agent_stays_live(self, fast_server):
        client = connect(fast_server.url)
        with ReplicaAgent(fast_server.url, "r0", capacity_mbps=100.0) \
                as agent:
            assert wait_until(lambda: agent.beats_sent >= 3)
            membership = client.membership()
            assert membership.live == ["r0"]
            assert membership.heartbeat_age_s["r0"] <= 0.1

    def test_stopped_agent_expires(self, fast_server):
        client = connect(fast_server.url)
        agent = ReplicaAgent(fast_server.url, "r0").start()
        assert wait_until(lambda: agent.beats_sent >= 1)
        agent.stop()
        assert not agent.running
        assert wait_until(lambda: client.membership().live == [])
        # still registered, just dead
        assert client.membership().replicas == ["r0"]

    def test_two_agents_tracked_independently(self, fast_server):
        client = connect(fast_server.url)
        a = ReplicaAgent(fast_server.url, "r0").start()
        b = ReplicaAgent(fast_server.url, "r1").start()
        try:
            assert wait_until(
                lambda: client.membership().live == ["r0", "r1"])
            a.stop()
            assert wait_until(lambda: client.membership().live == ["r1"])
        finally:
            a.stop()
            b.stop()

    def test_agent_reregisters_after_server_forgets(self, fast_server):
        with ReplicaAgent(fast_server.url, "r0") as agent:
            assert wait_until(lambda: agent.beats_sent >= 1)
            # Simulate a plane restart losing the registry.
            fast_server.plane._agents.clear()
            assert wait_until(
                lambda: "r0" in fast_server.plane._agents)
            assert agent.hb_interval == 0.02  # re-adopted, not invented


class TestShutdown:
    def test_stop_is_idempotent(self, fast_server):
        agent = ReplicaAgent(fast_server.url, "r0").start()
        agent.stop()
        agent.stop()
        assert not agent.running

    def test_start_twice_is_single_thread(self, fast_server):
        agent = ReplicaAgent(fast_server.url, "r0").start()
        thread = agent._thread
        agent.start()
        assert agent._thread is thread
        agent.stop()

    def test_agent_survives_server_going_away(self):
        server = serve(ServiceConfig(
            faults=FaultConfig(hb_interval=0.02, hb_timeout=0.1)))
        agent = ReplicaAgent(server.url, "r0").start()
        wait_until(lambda: agent.beats_sent >= 1)
        server.close()
        time.sleep(0.1)  # heartbeats now fail; the loop must not die
        assert agent.running
        assert agent.last_error is not None
        agent.stop()
        assert not agent.running

    def test_agent_survives_connection_reset_mid_read(self, fast_server,
                                                      monkeypatch):
        def reset_mid_read(*_args, **_kwargs):
            class Response:
                def __enter__(self):
                    return self

                def __exit__(self, *_exc):
                    return False

                def read(self, *_args):
                    raise ConnectionResetError(104, "Connection reset by peer")

            return Response()

        agent = ReplicaAgent(fast_server.url, "r0").start()
        try:
            assert wait_until(lambda: agent.beats_sent >= 1)
            monkeypatch.setattr(urllib.request, "urlopen", reset_mid_read)
            assert wait_until(
                lambda: isinstance(agent.last_error, ServiceError))
            time.sleep(5 * agent.hb_interval)
            assert agent.running
            # Once the transport heals, the same thread beats again.
            monkeypatch.undo()
            sent = agent.beats_sent
            assert wait_until(lambda: agent.beats_sent > sent)
        finally:
            agent.stop()

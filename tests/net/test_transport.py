"""Tests for the control-plane message transport."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.net.message import Message
from repro.net.topology import Topology
from repro.net.transport import Network
from repro.obs import TraceRecorder
from repro.sim.engine import Simulator


def make_net(latency=0.001, capacity=100.0, nodes=("a", "b", "c")):
    sim = Simulator()
    topo = Topology.lan(list(nodes), latency=latency, capacity=capacity)
    return sim, Network(sim, topo)


class TestMessage:
    def test_uid_monotone(self):
        m1 = Message("a", "b", "p", "K")
        m2 = Message("a", "b", "p", "K")
        assert m2.uid > m1.uid

    def test_reply_to_swaps_endpoints(self):
        m = Message("a", "b", "client", "REQUEST")
        r = m.reply_to("ACK", {"x": 1})
        assert (r.src, r.dst, r.port, r.kind) == ("b", "a", "client", "ACK")
        assert r.payload == {"x": 1}

    def test_reply_to_custom_port(self):
        m = Message("a", "b", "client", "REQUEST")
        assert m.reply_to("ACK", port="other").port == "other"


class TestDelivery:
    def test_latency_plus_serialization(self):
        sim, net = make_net(latency=0.5, capacity=10.0)
        ep_a, ep_b = net.endpoint("a"), net.endpoint("b")
        got = []

        def receiver(sim):
            msg = yield ep_b.recv("main")
            got.append((sim.now, msg.kind))

        sim.process(receiver(sim))
        ep_a.send("b", "main", "PING", size=1.0)  # 1 MB over 10 MB/s = 0.1 s
        sim.run()
        assert got == [(0.6, "PING")]

    def test_send_to_self_rejected(self):
        sim, net = make_net()
        with pytest.raises(ValidationError):
            net.endpoint("a").send("a", "main", "X")

    def test_unknown_endpoint_rejected(self):
        sim, net = make_net()
        with pytest.raises(ValidationError):
            net.endpoint("nope")

    def test_ports_are_demultiplexed(self):
        sim, net = make_net()
        ep_a, ep_b = net.endpoint("a"), net.endpoint("b")
        got = {"client": [], "replica": []}

        def listener(sim, port):
            while True:
                msg = yield ep_b.recv(port)
                got[port].append(msg.kind)
                if msg.kind == "STOP":
                    return

        sim.process(listener(sim, "client"))
        sim.process(listener(sim, "replica"))
        ep_a.send("b", "client", "REQ")
        ep_a.send("b", "replica", "SHARE")
        ep_a.send("b", "client", "STOP")
        ep_a.send("b", "replica", "STOP")
        sim.run()
        assert got == {"client": ["REQ", "STOP"], "replica": ["SHARE", "STOP"]}

    def test_broadcast_excludes_self(self):
        sim, net = make_net()
        ep_a = net.endpoint("a")
        ep_a.broadcast(["a", "b", "c"], "main", "HELLO")
        sim.run()
        assert net.messages_sent == 2
        assert net.mailbox("b", "main").try_get() is not None
        assert net.mailbox("c", "main").try_get() is not None

    def test_counters(self):
        sim, net = make_net()
        net.endpoint("a").send("b", "m", "X", size=0.5)
        sim.run()
        assert net.messages_sent == 1
        assert net.messages_delivered == 1
        assert net.mb_sent == pytest.approx(0.5)
        assert net.sent_by_node["a"] == 1

    def test_pending(self):
        sim, net = make_net()
        ep = net.endpoint("a")
        ep.send("b", "m", "X")
        sim.run()
        assert net.endpoint("b").pending("m") == 1


class TestCrashSemantics:
    def test_crashed_receiver_drops(self):
        sim, net = make_net()
        net.crash("b")
        net.endpoint("a").send("b", "m", "X")
        sim.run()
        assert net.messages_delivered == 0

    def test_crashed_sender_drops(self):
        sim, net = make_net()
        net.crash("a")
        net.endpoint("a").send("b", "m", "X")
        sim.run()
        assert net.messages_delivered == 0

    def test_restore_resumes_delivery(self):
        sim, net = make_net()
        net.crash("b")
        net.restore("b")
        net.endpoint("a").send("b", "m", "X")
        sim.run()
        assert net.messages_delivered == 1

    def test_message_in_flight_when_crash_dropped(self):
        sim, net = make_net(latency=1.0)
        net.endpoint("a").send("b", "m", "X")
        sim.call_at(0.5, lambda: net.crash("b"))
        sim.run()
        assert net.messages_delivered == 0

    def test_is_crashed(self):
        sim, net = make_net()
        assert not net.is_crashed("a")
        net.crash("a")
        assert net.is_crashed("a")


_NODES = ("a", "b", "c", "d")
_sends = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 3),
              st.sampled_from(["SOLUTION", "MU_UPDATE", "SOLVE_SYNC"]),
              st.floats(1e-9, 10.0, allow_nan=False)),
    max_size=40)


class TestCharge:
    """``charge`` is ``deliver``'s accounting with nothing delivered."""

    @staticmethod
    def network(crashed, cuts):
        sim = Simulator()
        rec = TraceRecorder()
        net = Network(sim, Topology.lan(list(_NODES), latency=1e-3,
                                        capacity=100.0), recorder=rec)
        for node in crashed:
            net.crash(node)
        for src, dst in cuts:
            net.cut_link(src, dst)
        return sim, net, rec

    @settings(max_examples=60, deadline=None)
    @given(_sends, st.sets(st.sampled_from(_NODES), max_size=2),
           st.sets(st.tuples(st.sampled_from(_NODES),
                             st.sampled_from(_NODES))
                   .filter(lambda p: p[0] != p[1]), max_size=3))
    def test_property_charge_counts_exactly_like_deliver(self, sends,
                                                         crashed, cuts):
        messages = [(_NODES[i], _NODES[(i + off) % 4], kind, size)
                    for i, off, kind, size in sends]
        sim_d, net_d, rec_d = self.network(crashed, cuts)
        for src, dst, kind, size in messages:
            net_d.endpoint(src).send(dst, "m", kind, size=size)
        sim_c, net_c, rec_c = self.network(crashed, cuts)
        queued = len(sim_c._queue)
        net_c.charge([(src, kind, size) for src, _dst, kind, size in messages])
        assert net_c.messages_sent == net_d.messages_sent == len(messages)
        assert net_c.mb_sent == net_d.mb_sent  # bit-equal, same add order
        assert net_c.sent_by_node == net_d.sent_by_node
        for name in ("net.messages", "net.mb"):
            assert rec_c.counter_series(name) == rec_d.counter_series(name)
        assert len(sim_c._queue) == queued
        assert net_c._mailboxes == {}
        assert net_c.messages_delivered == 0

"""Control-plane message transport.

Reliable, ordered-per-pair delivery with one-way propagation latency from
the :class:`~repro.net.topology.Topology` plus a serialization delay
``size / min(src_capacity, dst_capacity)``.  Each node registers named
*ports* (mailboxes); a process reads a port by blocking on it — the EDR
server's ClientListener is a process blocked on its node's ``"client"``
port.

Messages no process reads — the solver's per-iteration coordination —
are *charged* instead (:meth:`Network.charge`): counted exactly like a
delivered message, their delay paid by the sender's own timeout, but
never scheduled or queued.

Crashed nodes (see :class:`~repro.net.faults.FaultInjector`) silently drop
traffic in both directions, which is what lets the ring failure detector
observe timeouts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.errors import ValidationError
from repro.net.message import Message
from repro.net.topology import Topology
from repro.obs import NULL_RECORDER
from repro.sim.events import Event
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["Network", "Endpoint"]


class Endpoint:
    """A node's handle on the network: send messages, receive per port."""

    def __init__(self, network: "Network", name: str) -> None:
        self._network = network
        self.name = name

    def send(self, dst: str, port: str, kind: str, payload=None,
             size: float = 1e-4) -> None:
        """Fire-and-forget a message to ``dst``'s ``port``."""
        msg = Message(src=self.name, dst=dst, port=port, kind=kind,
                      payload=payload, size=size,
                      sent_at=self._network.sim.now)
        self._network.deliver(msg)

    def broadcast(self, dsts: Iterable[str], port: str, kind: str,
                  payload=None, size: float = 1e-4) -> None:
        """Send the same message to every destination (excluding self)."""
        for dst in dsts:
            if dst != self.name:
                self.send(dst, port, kind, payload, size)

    def recv(self, port: str) -> Event:
        """Event firing with the next message on ``port`` (yield it)."""
        return self._network.mailbox(self.name, port).get()

    def pending(self, port: str) -> int:
        """Number of queued, undelivered messages on ``port``."""
        return len(self._network.mailbox(self.name, port))


class Network:
    """Message switch over a topology.

    Statistics (message and byte counters, per node and total) feed the
    communication-complexity comparisons between CDPSM, LDDM and DONAR.
    ``messages_sent`` / ``mb_sent`` / ``sent_by_node`` count every sent
    or charged message; ``messages_delivered`` counts mailbox deliveries
    only.
    An optional ``recorder`` (:mod:`repro.obs`) additionally aggregates
    per-message-kind counters (``net.messages`` / ``net.mb``) so traces
    can split solver coordination from heartbeats and data-plane control.
    """

    def __init__(self, sim: "Simulator", topology: Topology,
                 recorder=None) -> None:
        self.sim = sim
        self.topology = topology
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._mailboxes: dict[tuple[str, str], Store] = {}
        self._crashed: set[str] = set()
        self._cut: set[tuple[str, str]] = set()
        self.messages_sent = 0
        self.messages_delivered = 0
        self.mb_sent = 0.0
        self.sent_by_node: dict[str, int] = {n: 0 for n in topology.nodes}

    # -- wiring ----------------------------------------------------------------
    def endpoint(self, name: str) -> Endpoint:
        """Handle for node ``name`` (must exist in the topology)."""
        self.topology.index(name)  # validates
        return Endpoint(self, name)

    def mailbox(self, node: str, port: str) -> Store:
        """The (auto-created) mailbox for ``(node, port)``."""
        key = (node, port)
        box = self._mailboxes.get(key)
        if box is None:
            self.topology.index(node)  # validates
            box = Store(self.sim)
            self._mailboxes[key] = box
        return box

    # -- fault hooks -------------------------------------------------------------
    def crash(self, node: str) -> None:
        """Drop all traffic to and from ``node`` until :meth:`restore`."""
        self.topology.index(node)
        self._crashed.add(node)

    def restore(self, node: str) -> None:
        """Reconnect a crashed node."""
        self._crashed.discard(node)

    def is_crashed(self, node: str) -> bool:
        """True while ``node`` is crash-faulted."""
        return node in self._crashed

    def cut_link(self, src: str, dst: str) -> None:
        """Silently drop ``src`` -> ``dst`` messages (directed partition).

        Only the one direction is cut; the reverse link and both nodes'
        other links keep working — the partial-partition case a purely
        local failure detector must still resolve.
        """
        self.topology.index(src)
        self.topology.index(dst)
        self._cut.add((src, dst))

    def heal_link(self, src: str, dst: str) -> None:
        """Restore a previously cut directed link."""
        self._cut.discard((src, dst))

    def is_link_cut(self, src: str, dst: str) -> bool:
        """True while the directed link ``src`` -> ``dst`` is cut."""
        return (src, dst) in self._cut

    # -- delivery ---------------------------------------------------------------
    def transit_delay(self, msg: Message) -> float:
        """Propagation + serialization delay for ``msg``."""
        prop = self.topology.latency(msg.src, msg.dst)
        line = min(self.topology.capacity(msg.src),
                   self.topology.capacity(msg.dst))
        return prop + msg.size / line

    def charge(self, charges: Iterable[tuple[str, str, float]]) -> None:
        """Count ``(src, kind, size)`` messages without delivering them.

        The sender-side accounting :meth:`deliver` does, one message at a
        time in the given order (so ``mb_sent`` sums bit-for-bit as if
        each had been sent), with no event scheduled and no mailbox
        touched.  For traffic no process reads; the caller pays the
        transit delay in its own timeout.
        """
        sent = self.sent_by_node
        rec = self.recorder
        n = 0
        mb = self.mb_sent
        for src, kind, size in charges:
            n += 1
            mb += size
            sent[src] = sent.get(src, 0) + 1
            if rec.enabled:
                rec.count("net.messages", kind=kind)
                rec.count("net.mb", size, kind=kind)
        self.messages_sent += n
        self.mb_sent = mb

    def deliver(self, msg: Message) -> None:
        """Accept a message for delivery (used by :class:`Endpoint`)."""
        if msg.src == msg.dst:
            raise ValidationError("cannot send a message to self")
        self.charge(((msg.src, msg.kind, msg.size),))
        if msg.src in self._crashed:
            return  # sender is dead: message never leaves
        if (msg.src, msg.dst) in self._cut:
            return  # directed link is partitioned: message is lost
        delay = self.transit_delay(msg)
        ev = self.sim.timeout(delay, msg)
        ev.add_callback(self._arrive)

    def _arrive(self, ev: Event) -> None:
        msg: Message = ev.value
        if msg.dst in self._crashed:
            return  # receiver is dead: drop silently
        self.mailbox(msg.dst, msg.port).put(msg)
        self.messages_delivered += 1

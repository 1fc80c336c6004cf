"""Typed message envelopes carried by the transport."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Message"]

_message_counter = itertools.count()


@dataclass(frozen=True)
class Message:
    """A control-plane message.

    Attributes
    ----------
    src, dst:
        Node names.
    port:
        Logical listener the message is addressed to — the EDR server's
        ``"client"`` port (ClientListener) or a client's ``"assign"``
        port, for example.  Solver coordination is charged on the network
        (:meth:`~repro.net.transport.Network.charge`), never built as a
        message.
    kind:
        Application-level message type tag (e.g. ``"REQUEST"``).
    payload:
        Arbitrary application data.
    size:
        Serialized size in MB (control messages are small; the transport
        adds ``size / capacity`` serialization delay).
    sent_at:
        Simulation time the message entered the network.
    uid:
        Monotone per-process unique id (diagnostics, dedup in tests).
    """

    src: str
    dst: str
    port: str
    kind: str
    payload: Any = None
    size: float = 1e-4  # 100 bytes expressed in MB
    sent_at: float = 0.0
    uid: int = field(default_factory=lambda: next(_message_counter))

    def reply_to(self, kind: str, payload: Any = None, *, port: str | None = None,
                 size: float = 1e-4) -> "Message":
        """Build a response addressed back to this message's sender."""
        return Message(src=self.dst, dst=self.src,
                       port=port if port is not None else self.port,
                       kind=kind, payload=payload, size=size)

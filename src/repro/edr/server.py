"""The EDR replica server agent (Fig. 2's components).

Each replica runs a ClientListener (request intake), participates in solve
sessions (driven by :mod:`repro.edr.scheduler`), and serves FileDownload
transfers.  Transfer activity feeds the node's power state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.cluster.node import NodeActivity, ReplicaNode
from repro.edr.messages import MsgKind, Ports
from repro.net.transport import Network
from repro.sim.process import Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["ReplicaServer"]


class ReplicaServer:
    """One replica's server-side processes.

    Parameters
    ----------
    sim, network: the substrate.
    node: the emulated node (for power/activity bookkeeping).
    on_request: callback invoked with (server, message) whenever a client
        REQUEST lands here — the system's epoch driver uses the *lead*
        replica's intake as the batch source.
    """

    def __init__(self, sim: "Simulator", network: Network, node: ReplicaNode,
                 on_request: Callable | None = None) -> None:
        self.sim = sim
        self.network = network
        self.node = node
        self.name = node.name
        self.endpoint = network.endpoint(self.name)
        self.on_request = on_request
        self.requests_seen = 0
        self.active_transfers = 0
        self._listener = sim.process(self._client_listener())

    # -- ClientListener ----------------------------------------------------------
    def _client_listener(self):
        try:
            while True:
                msg = yield self.endpoint.recv(Ports.CLIENT)
                if msg.kind != MsgKind.REQUEST:
                    continue
                self.requests_seen += 1
                if self.on_request is not None:
                    self.on_request(self, msg)
        except Interrupt:
            return

    # -- FileDownload bookkeeping ----------------------------------------------
    def transfer_started(self) -> None:
        """A download from this replica began."""
        self.active_transfers += 1
        if self.node.activity is not NodeActivity.SELECTING:
            self.node.set_activity(NodeActivity.TRANSFERRING,
                                   now=self.sim.now)

    def transfer_finished(self) -> None:
        """A download from this replica completed or was cancelled."""
        self.active_transfers = max(0, self.active_transfers - 1)
        if self.active_transfers == 0 \
                and self.node.activity is NodeActivity.TRANSFERRING:
            self.node.set_activity(NodeActivity.IDLE, now=self.sim.now)

    def shutdown(self) -> None:
        """Stop this server's processes (crash or end of run)."""
        if self._listener.is_alive:
            self._listener.defused = True
            self._listener.interrupt("server shutdown")

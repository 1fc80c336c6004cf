"""The EDR client agent.

A client broadcasts each request to the live replicas (replica selection
is transparent — the client does not choose), waits for the runtime's
ASSIGN decision, then opens parallel downloads from every replica with a
positive share, exactly as the paper's client side does with its
per-replica download threads.  If a replica dies mid-download the client
re-requests the undelivered remainder.

With ``coalesce=True`` the per-request downloads of one ASSIGN batch are
grouped per source replica into a single weighted
:class:`~repro.net.flows.AggregateFlow` (weight = live request
multiplicity).  Under max-min fairness this is exactly equivalent to the
separate per-request flows — every internal request completes at the
same instant it would have on its own flow — while the flow table and
the fair-share recompute see one entry per (replica, client) pair per
epoch instead of one per request.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.edr.messages import MsgKind, Ports
from repro.metrics.latency import ResponseTimeStats
from repro.net.flows import FlowManager
from repro.net.transport import Network
from repro.obs import NULL_RECORDER
from repro.sim.process import Interrupt
from repro.workload.requests import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["ClientAgent"]


class ClientAgent:
    """One client's request issuing + download processes."""

    def __init__(self, sim: "Simulator", network: Network, flows: FlowManager,
                 name: str, requests: list[Request],
                 live_replicas: Callable[[], list[str]],
                 stats: ResponseTimeStats,
                 on_transfer_event: Callable[[str, str, float], None] | None = None,
                 on_delivered: Callable[[str, float], None] | None = None,
                 *, coalesce: bool, recorder=None) -> None:
        self.sim = sim
        self.network = network
        self.flows = flows
        self.name = name
        self.endpoint = network.endpoint(name)
        self.requests = sorted(requests, key=lambda r: r.arrival)
        self.live_replicas = live_replicas
        self.stats = stats
        self.on_transfer_event = on_transfer_event or (lambda *_: None)
        self.on_delivered = on_delivered or (lambda *_: None)
        self.coalesce = coalesce
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.delivered_mb = 0.0
        self.retries = 0
        self._req_seq = 0
        # Per-request bookkeeping on the coalesced path: parts still in
        # flight and bytes lost to cancellations, keyed by request uid.
        self._uid_left: dict[str, int] = {}
        self._uid_lost: dict[str, float] = {}
        self._issuer = sim.process(self._issue_requests())
        self._assignee = sim.process(self._assign_listener())

    # -- issuing ------------------------------------------------------------------
    def _request_id(self) -> str:
        self._req_seq += 1
        return f"{self.name}/r{self._req_seq}"

    def _broadcast_request(self, size_mb: float) -> str:
        uid = self._request_id()
        self.stats.issued(uid, self.sim.now)
        self.endpoint.broadcast(self.live_replicas(), Ports.CLIENT,
                                MsgKind.REQUEST,
                                payload={"uid": uid, "client": self.name,
                                         "size": size_mb})
        return uid

    def _issue_requests(self):
        try:
            for req in self.requests:
                delay = req.arrival - self.sim.now
                if delay > 0:
                    yield self.sim.timeout(delay)
                self._broadcast_request(req.size_mb)
        except Interrupt:
            return

    # -- receiving assignments & downloading --------------------------------------
    def _assign_listener(self):
        try:
            while True:
                msg = yield self.endpoint.recv(Ports.ASSIGN)
                if msg.kind != MsgKind.ASSIGN:
                    continue
                payload = msg.payload
                if self.coalesce:
                    for uid in payload["shares"]:
                        self.stats.answered(uid, self.sim.now)
                    self._download_coalesced(payload["shares"],
                                             payload["by_replica"])
                    continue
                for uid, shares in payload["shares"].items():
                    self.stats.answered(uid, self.sim.now)
                    self.sim.process(self._download(uid, shares))
        except Interrupt:
            return

    def _download(self, uid: str, shares: dict[str, float]):
        """Parallel downloads, one flow per replica with a positive share."""
        flows = []
        for replica, amount in shares.items():
            if amount <= 0:
                continue
            flow = self.flows.transfer(replica, self.name, amount)
            self.on_transfer_event(replica, "start", amount)
            # Notify at the flow's true completion instant — the download
            # loop below awaits flows in list order, which can be later.
            flow.done.add_callback(
                lambda _ev, r=replica, f=flow:
                self.on_transfer_event(r, "finish", f.size))
            flows.append((replica, flow))
        lost = 0.0
        for replica, flow in flows:
            yield flow.done
            if flow.completed:
                self.delivered_mb += flow.size
                self.on_delivered(self.name, flow.size)
            else:
                lost += flow.size - max(0.0, flow.size - flow.remaining)
                # Count the partial delivery that did land.
                got = flow.size - flow.remaining
                if got > 0:
                    self.delivered_mb += got
                    self.on_delivered(self.name, got)
        if lost > 1e-9:
            # Replica died mid-transfer: re-request the missing remainder.
            self.retries += 1
            self._broadcast_request(lost)

    def _download_coalesced(self, shares_map: dict[str, dict[str, float]],
                            by_replica: dict[str, list]) -> None:
        """One weighted aggregate flow per source replica for this batch.

        ``by_replica`` is the announcer's ``{replica: [(uid, amount),
        ...]}`` grouping of ``shares_map``.  Per-request accounting —
        delivery, transfer events, loss and retry — hangs off the
        aggregate's part resolutions, which fire at each request's true
        completion instant.
        """
        n_parts = 0
        total_mb = 0.0
        for parts in by_replica.values():
            for uid, amount in parts:
                self._uid_left[uid] = self._uid_left.get(uid, 0) + 1
                n_parts += 1
                total_mb += amount
        for replica, parts in by_replica.items():
            flow = self.flows.transfer_aggregate(replica, self.name, parts)
            for _uid, amount in parts:
                self.on_transfer_event(replica, "start", amount)
            flow.on_part = (
                lambda uid, size, got, completed, r=replica:
                self._part_resolved(r, uid, size, got, completed))
        rec = self.recorder
        if rec.enabled:
            rec.event("runtime.traffic", sim_time=self.sim.now,
                      client=self.name, n_requests=len(shares_map),
                      n_parts=n_parts, n_flows=len(by_replica),
                      mb=total_mb)

    def _part_resolved(self, replica: str, uid: str, size: float,
                       got: float, completed: bool) -> None:
        """One request's share of one aggregate flow finished (or died)."""
        self.on_transfer_event(replica, "finish", size)
        if completed:
            self.delivered_mb += size
            self.on_delivered(self.name, size)
        else:
            if got > 0:
                self.delivered_mb += got
                self.on_delivered(self.name, got)
            self._uid_lost[uid] = self._uid_lost.get(uid, 0.0) + (size - got)
        left = self._uid_left.get(uid, 0) - 1
        if left > 0:
            self._uid_left[uid] = left
            return
        self._uid_left.pop(uid, None)
        lost = self._uid_lost.pop(uid, 0.0)
        if lost > 1e-9:
            # Replica died mid-transfer: re-request the missing remainder
            # once the request's last surviving share has resolved — the
            # same instant the per-flow download loop would have reached.
            self.retries += 1
            self._broadcast_request(lost)

    def shutdown(self) -> None:
        """Stop this client's processes."""
        for proc in (self._issuer, self._assignee):
            if proc.is_alive:
                proc.defused = True
                proc.interrupt("client shutdown")

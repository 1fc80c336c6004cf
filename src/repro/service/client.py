"""``EDRClient``: the HTTP implementation of the control-plane protocol.

Built on :mod:`urllib.request` (stdlib only).  The client speaks the
same :mod:`repro.edr.messages` models as the in-process plane and builds
its calls from the shared :data:`repro.service.schemas.ENDPOINTS` table,
so it satisfies :class:`repro.service.plane.ControlPlane` structurally —
swap an ``InProcessControlPlane()`` for ``connect(url)`` and nothing
else changes.
"""

from __future__ import annotations

import http.client
import urllib.error
import urllib.request

from repro.edr.messages import (
    WIRE_VERSION,
    ErrorResponse,
    EventRequest,
    EventResponse,
    HealthResponse,
    HeartbeatRequest,
    HeartbeatResponse,
    MembershipResponse,
    RegisterRequest,
    RegisterResponse,
    SolveRequest,
    SolveResponse,
    WireEvent,
    WireModel,
)
from repro.errors import ServiceError, VersionMismatchError
from repro.service.schemas import ENDPOINTS, Endpoint

__all__ = ["EDRClient", "connect"]


class EDRClient:
    """Typed SDK for a running control-plane server.

    Every method mirrors an :class:`~repro.service.plane.ControlPlane`
    method: requests are wire models serialized to JSON, responses are
    parsed back into wire models.  Transport failures (unreachable
    server, a connection reset or timeout mid-response, a malformed
    HTTP reply) raise :class:`~repro.errors.ServiceError`; remote
    failures raise it carrying the HTTP status and the remote error
    type; a 426 raises
    :class:`~repro.errors.VersionMismatchError`.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)

    # -- transport -----------------------------------------------------------
    def _call(self, endpoint: Endpoint, request: WireModel | None):
        url = self.base_url + endpoint.path
        body = None
        headers = {"Accept": "application/json"}
        if request is not None:
            body = request.to_json().encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(url, data=body, headers=headers,
                                     method=endpoint.method)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                raw = resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise self._remote_error(exc) from exc
        except (OSError, http.client.HTTPException) as exc:
            # URLError (refused, DNS), a connection reset or timeout
            # mid-read, a truncated or garbled response: all transport.
            reason = getattr(exc, "reason", None) or exc
            raise ServiceError(
                f"cannot reach control plane at {url}: {reason}") from exc
        if endpoint.response is None:
            return raw
        return endpoint.response.from_json(raw)

    @staticmethod
    def _remote_error(exc: urllib.error.HTTPError) -> Exception:
        detail = ""
        remote_type = None
        try:
            err = ErrorResponse.from_json(exc.read().decode("utf-8"))
            detail = err.detail or err.error
            remote_type = err.error
        except Exception:  # noqa: BLE001 - body may be non-JSON
            detail = str(exc)
        if exc.code == 426 or remote_type == "VersionMismatchError":
            return VersionMismatchError(
                f"server rejected wire version: {detail}",
                expected=WIRE_VERSION)
        return ServiceError(f"HTTP {exc.code}: {detail}",
                            status=exc.code, remote_type=remote_type)

    # -- ControlPlane surface ------------------------------------------------
    def solve(self, request: SolveRequest | None = None,
              **fields) -> SolveResponse:
        """``POST /v1/solve``; pass a :class:`SolveRequest` or its fields."""
        if request is None:
            request = SolveRequest(**fields)
        elif fields:
            raise ServiceError("pass a SolveRequest or fields, not both")
        return self._call(ENDPOINTS["/v1/solve"], request)

    def events(self, events, **_ignored) -> EventResponse:
        """``POST /v1/events``; ``events`` are wire or core event objects."""
        wire = [e if isinstance(e, WireEvent) else WireEvent.from_core(e)
                for e in events]
        return self._call(ENDPOINTS["/v1/events"], EventRequest(events=wire))

    def membership(self) -> MembershipResponse:
        """``GET /v1/membership``."""
        return self._call(ENDPOINTS["/v1/membership"], None)

    def register(self, agent: str, *,
                 capacity_mbps: float | None = None) -> RegisterResponse:
        """``POST /v1/agents/register``."""
        return self._call(
            ENDPOINTS["/v1/agents/register"],
            RegisterRequest(agent=agent, capacity_mbps=capacity_mbps))

    def heartbeat(self, agent: str, *, seq: int = 0) -> HeartbeatResponse:
        """``POST /v1/agents/heartbeat``."""
        return self._call(ENDPOINTS["/v1/agents/heartbeat"],
                          HeartbeatRequest(agent=agent, seq=seq))

    def health(self) -> HealthResponse:
        """``GET /v1/health``."""
        return self._call(ENDPOINTS["/v1/health"], None)

    def metrics_text(self) -> str:
        """``GET /metrics`` — raw Prometheus text exposition."""
        return self._call(ENDPOINTS["/metrics"], None)

    def close(self) -> None:
        """Symmetry with the in-process plane (urllib holds no session)."""

    def __enter__(self) -> "EDRClient":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False


def connect(base_url: str, *, timeout: float = 30.0) -> EDRClient:
    """Health-checked client for the server at ``base_url``.

    The promoted top-level entry point (``repro.connect(url)``).  Raises
    :class:`~repro.errors.ServiceError` if the server is unreachable or
    unhealthy, :class:`~repro.errors.VersionMismatchError` if it speaks
    a newer wire protocol.
    """
    client = EDRClient(base_url, timeout=timeout)
    health = client.health()
    if not health.ok:
        raise ServiceError(f"control plane at {base_url} reports unhealthy")
    if health.wire_version > WIRE_VERSION:
        raise VersionMismatchError(
            f"server speaks wire version {health.wire_version}, "
            f"this client speaks {WIRE_VERSION}",
            got=health.wire_version, expected=WIRE_VERSION)
    return client

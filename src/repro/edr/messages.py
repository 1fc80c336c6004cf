"""Protocol constants and typed wire schemas for the EDR control plane.

Two layers live here:

* the **in-sim protocol constants** (:class:`Ports`, :class:`MsgKind`) —
  the paper's listener threads and message tags used by the simulated
  transport; and
* the **typed wire models** — versioned, dataclass-based request/response
  schemas shared by the in-process control plane and the HTTP service
  (:mod:`repro.service`).  The library API and the wire API are the
  *same* contract: :class:`~repro.service.plane.ControlPlane`
  implementations exchange these models whether the transport is a
  function call or ``POST /v1/solve``.

Wire-model contract (enforced by ``tests/service/test_schemas.py``):

* ``to_json`` / ``from_json`` round-trip to an equal model;
* unknown fields in an incoming payload are tolerated (forward
  compatibility within a protocol version);
* a payload whose ``v`` field is missing, malformed, newer than
  :data:`WIRE_VERSION`, or older than the model's
  :attr:`~WireModel.MIN_VERSION` is rejected with
  :class:`~repro.errors.VersionMismatchError` — a peer speaking another
  protocol must not be half-parsed;
* solve and event responses are class-space: they carry K class rows
  and a client -> class index, check them when built, and derive the
  C x N ``allocation`` from them on first read (it never travels).
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar

import numpy as np

from repro.core.aggregate import expand_class_rows
from repro.errors import VersionMismatchError, WireFormatError

__all__ = [
    "Ports",
    "MsgKind",
    "WIRE_VERSION",
    "WireModel",
    "SolveRequest",
    "SolveResponse",
    "WireEvent",
    "EventRequest",
    "EventResponse",
    "MembershipResponse",
    "RegisterRequest",
    "RegisterResponse",
    "HeartbeatRequest",
    "HeartbeatResponse",
    "HealthResponse",
    "ErrorResponse",
    "MODEL_TYPES",
    "parse_message",
]


class Ports:
    """Logical listener ports on each node (Fig. 2's threads)."""

    #: ClientListener — new client requests arrive here.
    CLIENT = "client"
    #: ReplicaListener — solver coordination between replicas.
    REPLICA = "replica"
    #: Client-side mailbox for scheduling decisions.
    ASSIGN = "assign"
    #: Membership/heartbeat traffic (the fault-tolerance ring).
    RING = "ring"


class MsgKind:
    """Application message type tags."""

    REQUEST = "REQUEST"            # client -> replicas: new demand
    SOLVE_SYNC = "SOLVE_SYNC"      # replica <-> replica: CDPSM solution share
    MU_UPDATE = "MU_UPDATE"        # client -> replica: LDDM dual price
    SOLUTION = "SOLUTION"          # replica -> client: LDDM column share
    ASSIGN = "ASSIGN"              # replica -> client: final share decision
    HEARTBEAT = "HEARTBEAT"        # ring liveness probe
    MEMBER_DEAD = "MEMBER_DEAD"    # failure announcement
    MEMBER_ALIVE = "MEMBER_ALIVE"  # rejoin announcement (restored member)


#: Wire protocol version this build speaks.  Bump on any incompatible
#: schema change; parsers reject payloads declaring a newer version.
#: Version 2 made solve and event responses class-space (K class rows
#: plus a client -> class index instead of the C x N client matrix).
WIRE_VERSION = 2


def _encodable(value: Any) -> Any:
    """``json.dumps`` hook for the values JSON does not encode natively."""
    if isinstance(value, WireModel):
        return value._payload()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise WireFormatError(
        f"field value of type {type(value).__name__} is not wire-encodable")


@dataclass
class WireModel:
    """Base for every wire request/response model.

    Subclasses are plain dataclasses whose fields hold JSON-compatible
    values (numbers, strings, bools, lists, dicts, nested models; numpy
    arrays and scalars encode as their lists and items).  Fields with
    ``init=False`` never travel, and neither do views derived from the
    fields (properties).  The envelope adds ``v`` (protocol version) and
    ``type`` (the model's :attr:`TYPE` tag); :meth:`from_dict` validates
    both, tolerates unknown fields, and rejects missing required fields.
    """

    #: Wire tag identifying the model; unique across the registry.
    TYPE: ClassVar[str] = ""
    #: Oldest wire version whose payload of this type this build reads.
    MIN_VERSION: ClassVar[int] = 1
    #: Optional per-field parsers applied to incoming payload values.
    _CONVERTERS: ClassVar[dict[str, Callable[[Any], Any]]] = {}

    @classmethod
    def _wire_fields(cls) -> list[dataclasses.Field]:
        return [f for f in dataclasses.fields(cls) if f.init]

    def _payload(self) -> dict:
        out: dict[str, Any] = {"v": WIRE_VERSION, "type": self.TYPE}
        for f in self._wire_fields():
            out[f.name] = getattr(self, f.name)
        return out

    def to_json(self) -> str:
        """The enveloped JSON text form of this model."""
        try:
            return json.dumps(self._payload(), default=_encodable)
        except (TypeError, ValueError) as exc:  # WireFormatError included
            raise WireFormatError(f"{self.TYPE}: {exc}") from exc

    def to_dict(self) -> dict:
        """The enveloped plain-dict form of this model (what
        :meth:`to_json` encodes, decoded again)."""
        return json.loads(self.to_json())

    @classmethod
    def from_dict(cls, payload: Any) -> "WireModel":
        """Parse and validate an enveloped plain dict into a model."""
        if not isinstance(payload, dict):
            raise WireFormatError(
                f"{cls.TYPE or cls.__name__}: payload must be an object, "
                f"got {type(payload).__name__}")
        version = payload.get("v")
        if not isinstance(version, int) or isinstance(version, bool) \
                or version < 1:
            raise VersionMismatchError(
                f"{cls.TYPE or cls.__name__}: missing or malformed wire "
                f"version {version!r}", got=version, expected=WIRE_VERSION)
        if version > WIRE_VERSION:
            raise VersionMismatchError(
                f"{cls.TYPE or cls.__name__}: peer speaks wire version "
                f"{version}, this build speaks {WIRE_VERSION}",
                got=version, expected=WIRE_VERSION)
        if version < cls.MIN_VERSION:
            raise VersionMismatchError(
                f"{cls.TYPE}: wire version {version} payloads are no longer "
                f"read; this build reads version {cls.MIN_VERSION} and up",
                got=version, expected=WIRE_VERSION)
        tag = payload.get("type")
        if tag is not None and tag != cls.TYPE:
            raise WireFormatError(
                f"expected a {cls.TYPE!r} payload, got type {tag!r}")
        kwargs: dict[str, Any] = {}
        for f in cls._wire_fields():
            if f.name in payload:
                value = payload[f.name]
                converter = cls._CONVERTERS.get(f.name)
                if converter is not None and value is not None:
                    value = converter(value)
                kwargs[f.name] = value
            elif f.default is dataclasses.MISSING \
                    and f.default_factory is dataclasses.MISSING:
                raise WireFormatError(
                    f"{cls.TYPE}: missing required field {f.name!r}")
        # Unknown payload fields are deliberately ignored (forward
        # compatibility within a protocol version).
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise WireFormatError(f"{cls.TYPE}: {exc}") from exc

    @classmethod
    def from_json(cls, text: str | bytes) -> "WireModel":
        """Parse and validate enveloped JSON text into a model."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise WireFormatError(
                f"{cls.TYPE or cls.__name__}: invalid JSON: {exc}") from exc
        return cls.from_dict(payload)


def _float_rows(rows: Any) -> list:
    return [[float(x) for x in row] for row in rows]


def _bool_rows(rows: Any) -> list:
    return [[bool(x) for x in row] for row in rows]


def _floats(xs: Any) -> list:
    return [float(x) for x in xs]


@dataclass
class SolveRequest(WireModel):
    """``POST /v1/solve`` — one replica-selection instance.

    ``demands``/``prices`` are required; everything else defaults to the
    paper's calibration.  ``alpha``/``beta``/``gamma`` accept a scalar or
    one value per replica.  ``mask`` is the (C, N) eligibility matrix
    (``None`` = all-eligible).  ``clients`` optionally names the demand
    rows so a follow-up event stream (`/v1/events`) can address them.
    ``options`` is forwarded to the solver (``max_iter``, ``tol``, ...).
    ``algorithm`` defaults to ``"waterfill"``, the certified class-space
    solve; ``"lddm"`` / ``"cdpsm"`` run the paper's algorithms.
    """

    TYPE: ClassVar[str] = "solve_request"
    _CONVERTERS: ClassVar[dict] = {
        "demands": _floats, "prices": _floats, "capacities": _floats,
        "mask": _bool_rows,
        "clients": lambda v: [str(c) for c in v],
    }

    demands: list
    prices: list
    capacities: list | None = None
    alpha: float | list = None
    beta: float | list = None
    gamma: float | list = None
    mask: list | None = None
    algorithm: str = "waterfill"
    aggregate: bool = True
    clients: list | None = None
    options: dict = field(default_factory=dict)


def _check_class_space(model) -> tuple[np.ndarray, np.ndarray]:
    """Shape / index checks of a class-space response, at parse time.

    A malformed payload is a :class:`~repro.errors.WireFormatError` when
    the model is built, not when a lazy view is first read.  Returns the
    ``(class_of, client_demands)`` arrays the checks already built.
    """
    rows = np.asarray(model.class_rows, dtype=float)
    class_demand = np.asarray(model.class_demand, dtype=float)
    class_of = np.asarray(model.class_of)
    demands = np.asarray(model.client_demands, dtype=float)
    K = class_demand.shape[0] if class_demand.ndim == 1 else -1
    if rows.ndim != 2 or rows.shape[0] != K:
        raise WireFormatError(
            "class_rows must hold one row per class_demand entry")
    if class_of.ndim != 1 or demands.shape != class_of.shape:
        raise WireFormatError(
            "class_of and client_demands need one entry per client")
    if class_of.size and (class_of.dtype.kind not in "iu"
                          or class_of.min() < 0 or class_of.max() >= K):
        raise WireFormatError("class_of entries must index class_rows")
    if model.clients is not None and len(model.clients) != class_of.size:
        raise WireFormatError("clients must name every class_of entry")
    return class_of.astype(np.intp, copy=False), demands


class _ClassSpaceResponse:
    """Mixin of the class-space responses: checked when built, expanded
    on first read.

    An encoder that only sends the wire fields (the HTTP server) never
    pays for the C x N ``allocation``.
    """

    def __post_init__(self) -> None:
        self._clients_index = _check_class_space(self)

    @functools.cached_property
    def allocation(self) -> list:
        """The (C, N) client rows: one vectorised expansion
        (:func:`~repro.core.aggregate.expand_class_rows`) of
        ``class_rows`` by ``class_of``, ``client_demands`` and
        ``class_demand``.  Exact, since JSON carries every float by
        ``repr``, so a decoded response rebuilds the sender's rows bit
        for bit."""
        class_of, demands = self._clients_index
        return expand_class_rows(
            np.asarray(self.class_rows, dtype=float), class_of, demands,
            np.asarray(self.class_demand, dtype=float)).tolist()


#: Per-element decoders of the class-space response fields; ``class_of``
#: and ``client_demands`` (C entries each) are read by the vectorised
#: check above instead.
_CLASS_SPACE_CONVERTERS = {
    "class_rows": _float_rows, "class_demand": _floats, "loads": _floats,
    "clients": lambda v: [str(c) for c in v],
}


@dataclass
class SolveResponse(_ClassSpaceResponse, WireModel):
    """``POST /v1/solve`` result, in class space.

    The wire carries the K class rows (``class_rows``, summing to
    ``class_demand``), the per-class multipliers ``class_duals``, and
    each client's class (``class_of``) and demand (``client_demands``),
    in request order.  ``allocation`` (C x N) and ``duals`` (C) are
    derived from them on first read — the exact exchangeable expansion
    ``class_rows[k] * R_c / D_k``, and each member's class multiplier
    (exchangeable clients share one at the optimum: it prices a unit of
    the class's demand) — and never travel.
    """

    TYPE: ClassVar[str] = "solve_response"
    MIN_VERSION: ClassVar[int] = 2
    _CONVERTERS: ClassVar[dict] = dict(_CLASS_SPACE_CONVERTERS,
                                       class_duals=_floats)

    class_rows: list
    class_demand: list
    class_of: list
    client_demands: list
    objective: float
    iterations: int
    converged: bool
    loads: list = field(default_factory=list)
    class_duals: list | None = None
    method: str = ""
    solve_time_s: float | None = None
    warm_started: bool | None = None
    n_classes: int | None = None
    clients: list | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.class_duals is not None \
                and len(self.class_duals) != len(self.class_rows):
            raise WireFormatError("class_duals need one entry per class")

    @functools.cached_property
    def duals(self) -> list | None:
        """Each client's class multiplier (``None`` without duals)."""
        if self.class_duals is None:
            return None
        mu = np.asarray(self.class_duals, dtype=float)
        return mu[self._clients_index[0]].tolist()


@dataclass
class WireEvent(WireModel):
    """One client-granular churn event (arrival/departure/demand change).

    The wire twin of :class:`repro.core.incremental.ClientArrival` /
    :class:`~repro.core.incremental.ClientDeparture` /
    :class:`~repro.core.incremental.DemandChange` — see
    :meth:`from_core` / :meth:`to_core`.
    """

    TYPE: ClassVar[str] = "event"
    _CONVERTERS: ClassVar[dict] = {
        "eligibility": lambda v: [bool(x) for x in v],
    }

    kind: str                      # "arrival" | "departure" | "demand_change"
    client: str
    demand: float | None = None
    eligibility: list | None = None

    KINDS: ClassVar[tuple] = ("arrival", "departure", "demand_change")

    @classmethod
    def from_core(cls, event) -> "WireEvent":
        """Encode a :mod:`repro.core.incremental` event dataclass."""
        from repro.core.incremental import (
            ClientArrival, ClientDeparture, DemandChange,
        )
        if isinstance(event, ClientArrival):
            return cls(kind="arrival", client=event.client,
                       demand=float(event.demand),
                       eligibility=[bool(x) for x in event.eligibility])
        if isinstance(event, ClientDeparture):
            return cls(kind="departure", client=event.client)
        if isinstance(event, DemandChange):
            return cls(kind="demand_change", client=event.client,
                       demand=float(event.demand))
        raise WireFormatError(
            f"unknown event type {type(event).__name__}")

    def to_core(self):
        """Decode into the matching :mod:`repro.core.incremental` event."""
        from repro.core.incremental import (
            ClientArrival, ClientDeparture, DemandChange,
        )
        if self.kind == "arrival":
            if self.demand is None or self.eligibility is None:
                raise WireFormatError(
                    "arrival events need demand and eligibility")
            return ClientArrival(
                client=self.client, demand=float(self.demand),
                eligibility=np.asarray(self.eligibility, dtype=bool))
        if self.kind == "departure":
            return ClientDeparture(client=self.client)
        if self.kind == "demand_change":
            if self.demand is None:
                raise WireFormatError("demand_change events need demand")
            return DemandChange(client=self.client,
                                demand=float(self.demand))
        raise WireFormatError(f"unknown event kind {self.kind!r}")


@dataclass
class EventRequest(WireModel):
    """``POST /v1/events`` — a batch of churn events, applied in order."""

    TYPE: ClassVar[str] = "event_request"
    _CONVERTERS: ClassVar[dict] = {
        "events": lambda v: [WireEvent.from_dict(d) for d in v],
    }

    events: list = field(default_factory=list)


@dataclass
class EventResponse(_ClassSpaceResponse, WireModel):
    """``POST /v1/events`` result: what the incremental plane did.

    ``applied`` counts events absorbed in place; ``resolves`` counts the
    full (warm) re-solves fallback declines triggered.  The response
    carries the post-stream plane in class space — its K class rows and
    demands, and the sorted registry as ``clients`` with each one's
    class and demand — so callers can verify parity without a second
    round trip; ``allocation`` is derived from those exactly as in
    :class:`SolveResponse`.
    """

    TYPE: ClassVar[str] = "event_response"
    MIN_VERSION: ClassVar[int] = 2
    _CONVERTERS: ClassVar[dict] = _CLASS_SPACE_CONVERTERS

    applied: int
    resolves: int
    sweeps: int
    objective: float
    class_rows: list
    class_demand: list
    class_of: list
    client_demands: list
    loads: list = field(default_factory=list)
    clients: list = field(default_factory=list)
    fallback_reasons: dict = field(default_factory=dict)


@dataclass
class MembershipResponse(WireModel):
    """``GET /v1/membership`` — registered agents and liveness."""

    TYPE: ClassVar[str] = "membership_response"
    _CONVERTERS: ClassVar[dict] = {
        "replicas": lambda v: [str(c) for c in v],
        "live": lambda v: [str(c) for c in v],
    }

    replicas: list = field(default_factory=list)
    live: list = field(default_factory=list)
    heartbeat_age_s: dict = field(default_factory=dict)
    hb_interval: float = 0.05
    hb_timeout: float = 0.25


@dataclass
class RegisterRequest(WireModel):
    """``POST /v1/agents/register`` — a replica agent joins the plane."""

    TYPE: ClassVar[str] = "register_request"

    agent: str
    capacity_mbps: float | None = None


@dataclass
class RegisterResponse(WireModel):
    """Registration ack; tells the agent its heartbeat cadence.

    Agents MUST adopt ``hb_interval``/``hb_timeout`` from this response
    (they come from the server's :class:`~repro.service.plane.
    ServiceConfig`) rather than hard-coding their own.
    """

    TYPE: ClassVar[str] = "register_response"
    _CONVERTERS: ClassVar[dict] = {
        "replicas": lambda v: [str(c) for c in v],
    }

    agent: str
    hb_interval: float
    hb_timeout: float
    replicas: list = field(default_factory=list)


@dataclass
class HeartbeatRequest(WireModel):
    """``POST /v1/agents/heartbeat`` — liveness probe from an agent."""

    TYPE: ClassVar[str] = "heartbeat_request"

    agent: str
    seq: int = 0


@dataclass
class HeartbeatResponse(WireModel):
    """Heartbeat ack; ``known`` is False for unregistered agents."""

    TYPE: ClassVar[str] = "heartbeat_response"

    agent: str
    known: bool = True


@dataclass
class HealthResponse(WireModel):
    """``GET /v1/health`` — liveness + version negotiation data."""

    TYPE: ClassVar[str] = "health_response"

    ok: bool = True
    version: str = ""
    wire_version: int = WIRE_VERSION


@dataclass
class ErrorResponse(WireModel):
    """Any failed endpoint call: typed error envelope."""

    TYPE: ClassVar[str] = "error_response"

    error: str
    detail: str = ""
    status: int = 400


#: Registry of every wire model by its ``type`` tag.
MODEL_TYPES: dict[str, type[WireModel]] = {
    model.TYPE: model
    for model in (
        SolveRequest, SolveResponse, WireEvent, EventRequest,
        EventResponse, MembershipResponse, RegisterRequest,
        RegisterResponse, HeartbeatRequest, HeartbeatResponse,
        HealthResponse, ErrorResponse,
    )
}


def parse_message(text: str | bytes) -> WireModel:
    """Parse enveloped JSON into whatever model its ``type`` tag names."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise WireFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise WireFormatError("wire payload must be a JSON object")
    tag = payload.get("type")
    model = MODEL_TYPES.get(tag)
    if model is None:
        raise WireFormatError(f"unknown wire message type {tag!r}")
    return model.from_dict(payload)

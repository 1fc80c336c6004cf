"""The transport-agnostic control plane behind every service endpoint.

:class:`ControlPlane` is the protocol both backends implement:

* :class:`InProcessControlPlane` — the library path.  Solves run through
  :func:`repro.core.solve`, churn events route to an
  :class:`~repro.core.incremental.IncrementalState` (or a
  :class:`~repro.edr.coordinator.ShardCoordinator` when sharding is
  configured), membership is a server-side failure detector fed by agent
  heartbeats.
* :class:`repro.service.client.EDRClient` — the HTTP path.  Same
  methods, same wire models, transport is ``urllib`` instead of a
  function call.

Because both sides exchange the :mod:`repro.edr.messages` models and
JSON round-trips floats exactly (``repr``-based), an allocation computed
through HTTP is bit-identical to the in-process one — the parity the CI
service smoke asserts at 1e-9.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.aggregate import ClassStructure
from repro.core.api import ALGORITHMS, _option_names, solve as core_solve
from repro.core.incremental import ClientArrival, ClientDeparture, \
    DemandChange, IncrementalState
from repro.core.params import (
    PAPER_ALPHA,
    PAPER_BETA,
    PAPER_GAMMA,
    PAPER_BANDWIDTH,
    ProblemData,
)
from repro.core.problem import ReplicaSelectionProblem
from repro.core.warmstart import recover_mu
from repro.edr.coordinator import ShardCoordinator
from repro.edr.messages import (
    WIRE_VERSION,
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
)
from repro.edr.system import FaultConfig, SolverOptions
from repro.errors import ValidationError
from repro.obs import TraceRecorder
from repro.obs.export import to_prometheus_text

__all__ = ["ServiceConfig", "ControlPlane", "InProcessControlPlane"]


@dataclass
class ServiceConfig:
    """Configuration of one control-plane service instance.

    Reuses the runtime's composable sub-configs: ``solver`` supplies the
    sharding/incremental policy for the event plane, ``faults`` the
    heartbeat cadence the failure detector enforces (and hands to agents
    at registration — agents never hard-code timeouts).
    """

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = pick a free port
    solver: SolverOptions = field(default_factory=SolverOptions)
    faults: FaultConfig = field(default_factory=FaultConfig)


@runtime_checkable
class ControlPlane(Protocol):
    """What a control plane does, regardless of transport.

    The server dispatches each endpoint to the method named in
    :data:`repro.service.schemas.ENDPOINTS`; the client SDK implements
    the same surface over HTTP, so callers can swap
    ``InProcessControlPlane()`` for ``connect(url)`` without touching
    call sites.
    """

    def solve(self, request: SolveRequest) -> SolveResponse: ...

    def events(self, request: EventRequest) -> EventResponse: ...

    def membership(self) -> MembershipResponse: ...

    def register(self, request: RegisterRequest) -> RegisterResponse: ...

    def heartbeat(self, request: HeartbeatRequest) -> HeartbeatResponse: ...

    def health(self) -> HealthResponse: ...

    def metrics_text(self) -> str: ...

    def close(self) -> None: ...


class InProcessControlPlane:
    """The function-call backend of :class:`ControlPlane`.

    Thread-safe (the HTTP server handles requests concurrently); all
    state mutation happens under one lock.  ``clock`` is injectable for
    failure-detector tests.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 recorder: TraceRecorder | None = None,
                 clock=time.monotonic) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self._clock = clock
        self._lock = threading.RLock()
        self._closed = False
        # -- event plane (populated by a solve that names clients) ----------
        self._state: IncrementalState | None = None
        self._coordinator: ShardCoordinator | None = None
        self._tokens: list[bytes] = []
        self._masks: dict[bytes, np.ndarray] = {}
        self._registry: dict[str, tuple[bytes, float]] = {}
        self._cost: dict[str, np.ndarray] = {}
        # -- membership (agent registry + failure detector) -----------------
        self._agents: dict[str, dict] = {}

    # -- solve ---------------------------------------------------------------
    def solve(self, request: SolveRequest) -> SolveResponse:
        """Solve one instance; optionally arm the event plane.

        When ``request.clients`` names the demand rows, the converged
        class-space allocation seeds an incremental state (or a sharded
        coordinator, per the service's :class:`SolverOptions`) so a
        follow-up ``/v1/events`` stream can be absorbed without
        re-solving from scratch.
        """
        data = self._problem_data(request)
        problem = ReplicaSelectionProblem(data)
        algorithm = request.algorithm
        if algorithm not in ALGORITHMS:
            raise ValidationError(
                f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
        # ``step`` is a callable schedule; JSON cannot carry one.
        allowed = _option_names(algorithm) - {"step"}
        unknown = sorted(set(request.options) - allowed)
        if unknown:
            raise ValidationError(
                f"unknown {algorithm} solver option(s) {unknown}")
        aggregate = bool(request.aggregate) and algorithm != "reference"
        clients = request.clients
        if clients is not None:
            if len(clients) != data.n_clients:
                raise ValidationError(
                    "clients must name every demand row exactly once")
            if len(set(clients)) != len(clients):
                raise ValidationError("client names must be unique")
        with self._lock:
            self._check_open()
            self.recorder.count("service.requests", endpoint="solve")
            solution = core_solve(problem, algorithm, aggregate=aggregate,
                                  recorder=self.recorder,
                                  **dict(request.options))
            duals = recover_mu(problem, solution.allocation)
            if clients is not None:
                self._arm_event_plane(data, solution.allocation,
                                      list(clients))
            return SolveResponse(
                allocation=solution.allocation.tolist(),
                objective=float(solution.objective),
                iterations=int(solution.iterations),
                converged=bool(solution.converged),
                loads=solution.loads.tolist(),
                duals=duals.tolist(),
                method=solution.method,
                solve_time_s=solution.solve_time_s,
                warm_started=solution.warm_started,
                n_classes=solution.n_classes,
                clients=list(clients) if clients is not None else None,
            )

    def _problem_data(self, request: SolveRequest) -> ProblemData:
        """Materialize a :class:`ProblemData` from a wire request."""
        prices = np.asarray(request.prices, dtype=float)
        n = prices.shape[0]
        if request.capacities is not None:
            capacities = np.asarray(request.capacities, dtype=float)
        else:
            capacities = np.full(n, PAPER_BANDWIDTH)
        return ProblemData(
            demands=request.demands,
            capacities=capacities,
            prices=prices,
            alpha=request.alpha if request.alpha is not None else PAPER_ALPHA,
            beta=request.beta if request.beta is not None else PAPER_BETA,
            gamma=request.gamma if request.gamma is not None else PAPER_GAMMA,
            mask=request.mask,
        )

    def _arm_event_plane(self, data: ProblemData, allocation: np.ndarray,
                         clients: list[str]) -> None:
        """Seed the incremental/sharded plane from a converged solve."""
        self._teardown_event_plane()
        structure = ClassStructure.from_mask(data.mask, data.R)
        tokens = list(structure.keys)
        reduced = structure.reduce_data(data)
        rows = structure.reduce_rows(allocation)
        registry = {
            name: (tokens[int(structure.class_of_client[i])],
                   float(data.R[i]))
            for i, name in enumerate(clients)
        }
        self._tokens = tokens
        self._masks = {t: structure.masks[k].copy()
                       for k, t in enumerate(tokens)}
        self._registry = registry
        self._cost = {"capacities": data.B.copy(), "prices": data.u.copy(),
                      "alpha": data.alpha.copy(), "beta": data.beta.copy(),
                      "gamma": data.gamma.copy()}
        opts = self.config.solver
        if opts.sharding is not None:
            self._coordinator = ShardCoordinator(
                reduced, tokens, opts.sharding, clients=dict(registry),
                recorder=self.recorder)
            self._coordinator.solve()
        else:
            self._state = IncrementalState(
                reduced, tokens, rows, clients=dict(registry),
                drift_limit=opts.incremental_drift_limit)

    def _teardown_event_plane(self) -> None:
        if self._coordinator is not None:
            self._coordinator.close()
        self._coordinator = None
        self._state = None
        self._tokens = []
        self._masks = {}
        self._registry = {}
        self._cost = {}

    # -- events --------------------------------------------------------------
    def events(self, request: EventRequest) -> EventResponse:
        """Apply a churn stream to the armed event plane, in order."""
        with self._lock:
            self._check_open()
            self.recorder.count("service.requests", endpoint="events")
            if self._state is None and self._coordinator is None:
                raise ValidationError(
                    "no event plane armed; POST /v1/solve with clients "
                    "first")
            applied = 0
            resolves = 0
            sweeps = 0
            reasons: dict[str, int] = {}
            for wire_event in request.events:
                event = wire_event.to_core()
                self._validate_event(event)
                if self._coordinator is not None:
                    routed = self._coordinator.apply_event(event)
                    sweeps += routed.sweeps
                    reason = getattr(routed, "fallback_reason", None)
                    if reason:
                        resolves += 1
                        reasons[reason] = reasons.get(reason, 0) + 1
                else:
                    result = self._state.apply_event(event)
                    sweeps += result.sweeps
                    if not result.ok:
                        resolves += 1
                        reasons[result.reason] = \
                            reasons.get(result.reason, 0) + 1
                applied += 1
                self._absorb_into_registry(event)
                if self._state is not None and self._state.stale:
                    self._full_resolve()
            return self._event_snapshot(applied, resolves, sweeps, reasons)

    def _validate_event(self, event) -> None:
        if isinstance(event, ClientArrival):
            if event.client in self._registry:
                raise ValidationError(
                    f"client {event.client!r} already registered")
            if len(event.eligibility) != len(self._cost["prices"]):
                raise ValidationError("eligibility row has wrong length")
        elif event.client not in self._registry:
            raise ValidationError(f"unknown client {event.client!r}")

    def _absorb_into_registry(self, event) -> None:
        """Mirror one validated event into the plane-owned registry."""
        if isinstance(event, ClientArrival):
            row = np.asarray(event.eligibility, dtype=bool)
            token = row.tobytes()
            if token not in self._masks:
                self._masks[token] = row.copy()
                self._tokens.append(token)
            self._registry[event.client] = (token, float(event.demand))
        elif isinstance(event, ClientDeparture):
            del self._registry[event.client]
        elif isinstance(event, DemandChange):
            token, _ = self._registry[event.client]
            self._registry[event.client] = (token, float(event.demand))

    def _class_demands(self) -> np.ndarray:
        """Per-class demand totals from the plane-owned registry."""
        totals = {t: 0.0 for t in self._tokens}
        for token, demand in self._registry.values():
            totals[token] += demand
        return np.array([totals[t] for t in self._tokens])

    def _full_resolve(self) -> None:
        """Warm full re-solve after an incremental decline (the fallback).

        Rebuilds the class-space instance from the registry, warm-starts
        from the stale state's rows, and re-arms a fresh
        :class:`IncrementalState`.
        """
        tokens = list(self._tokens)
        masks = np.vstack([self._masks[t] for t in tokens])
        demands = self._class_demands()
        data = ProblemData(demands=demands,
                           capacities=self._cost["capacities"],
                           prices=self._cost["prices"],
                           alpha=self._cost["alpha"],
                           beta=self._cost["beta"],
                           gamma=self._cost["gamma"], mask=masks)
        warm = np.zeros(data.shape)
        stale = self._state
        for k, token in enumerate(tokens):
            if stale is not None and token in stale._index:
                warm[k] = stale.row(token)
        solution = core_solve(ReplicaSelectionProblem(data), "lddm",
                              warm_start=np.where(masks, warm, 0.0),
                              recorder=self.recorder)
        self._state = IncrementalState(
            data, tokens, solution.allocation, clients=dict(self._registry),
            drift_limit=self.config.solver.incremental_drift_limit)
        self.recorder.count("service.resolves")

    def _event_snapshot(self, applied: int, resolves: int, sweeps: int,
                        reasons: dict[str, int]) -> EventResponse:
        """Post-stream state: objective, loads, per-client allocation."""
        if self._coordinator is not None:
            self._coordinator.refresh_loads()
            loads = np.asarray(self._coordinator.loads, dtype=float)
            objective = self._coordinator.objective()
            rows = self._coordinator.rows_for(self._tokens)
        else:
            loads = self._state.loads.copy()
            objective = self._state.objective()
            rows = self._state.rows_for(self._tokens)
        index = {t: k for k, t in enumerate(self._tokens)}
        class_demand = self._class_demands()
        clients = sorted(self._registry)
        allocation = np.zeros((len(clients), loads.shape[0]))
        for i, name in enumerate(clients):
            token, demand = self._registry[name]
            k = index[token]
            if class_demand[k] > 0.0:
                allocation[i] = rows[k] * (demand / class_demand[k])
        return EventResponse(
            applied=applied, resolves=resolves, sweeps=sweeps,
            objective=float(objective), loads=loads.tolist(),
            clients=clients, allocation=allocation.tolist(),
            fallback_reasons=reasons,
        )

    # -- membership ----------------------------------------------------------
    def register(self, request: RegisterRequest) -> RegisterResponse:
        """Admit an agent; the response dictates its heartbeat cadence."""
        if not request.agent:
            raise ValidationError("agent name must be non-empty")
        faults = self.config.faults
        with self._lock:
            self._check_open()
            self.recorder.count("service.requests", endpoint="register")
            self._agents[request.agent] = {
                "registered_at": self._clock(),
                "last_heartbeat": self._clock(),
                "capacity_mbps": request.capacity_mbps,
                "beats": 0,
            }
            self.recorder.event("service.register", agent=request.agent)
            return RegisterResponse(
                agent=request.agent,
                hb_interval=faults.hb_interval,
                hb_timeout=faults.hb_timeout,
                replicas=sorted(self._agents),
            )

    def heartbeat(self, request: HeartbeatRequest) -> HeartbeatResponse:
        """Record a liveness probe; unknown agents are told to register."""
        with self._lock:
            self._check_open()
            self.recorder.count("service.requests", endpoint="heartbeat")
            entry = self._agents.get(request.agent)
            if entry is None:
                return HeartbeatResponse(agent=request.agent, known=False)
            entry["last_heartbeat"] = self._clock()
            entry["beats"] += 1
            self.recorder.count("service.heartbeats", agent=request.agent)
            return HeartbeatResponse(agent=request.agent, known=True)

    def membership(self) -> MembershipResponse:
        """Registered agents, with liveness judged by heartbeat age."""
        faults = self.config.faults
        with self._lock:
            self._check_open()
            self.recorder.count("service.requests", endpoint="membership")
            now = self._clock()
            ages = {name: now - entry["last_heartbeat"]
                    for name, entry in self._agents.items()}
            live = sorted(name for name, age in ages.items()
                          if age <= faults.hb_timeout)
            return MembershipResponse(
                replicas=sorted(self._agents), live=live,
                heartbeat_age_s={k: float(v)
                                 for k, v in sorted(ages.items())},
                hb_interval=faults.hb_interval,
                hb_timeout=faults.hb_timeout,
            )

    # -- misc ----------------------------------------------------------------
    def health(self) -> HealthResponse:
        """Liveness + version negotiation data."""
        import repro

        return HealthResponse(ok=not self._closed,
                              version=repro.__version__,
                              wire_version=WIRE_VERSION)

    def metrics_text(self) -> str:
        """Live Prometheus text exposition of the plane's recorder."""
        with self._lock:
            return to_prometheus_text(self.recorder)

    def close(self) -> None:
        """Release the event plane (worker pools included); idempotent."""
        with self._lock:
            if self._closed:
                return
            self._teardown_event_plane()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ValidationError("control plane is closed")

    # -- context manager -----------------------------------------------------
    def __enter__(self) -> "InProcessControlPlane":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False

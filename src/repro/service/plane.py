"""The transport-agnostic control plane behind every service endpoint.

:class:`ControlPlane` is the protocol both backends implement:

* :class:`InProcessControlPlane` — the library path.  A solve that names
  its clients runs :func:`repro.core.solve` once and hands the class rows
  to one :class:`~repro.edr.coordinator.ShardCoordinator` (a single shard
  unless sharding is configured), which answers it, absorbs the churn
  events and owns the client registry — the plane keeps no copy;
  membership is a server-side failure detector fed by agent heartbeats.
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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.aggregate import aggregate_problem
from repro.core.api import ALGORITHMS, _option_names, solve as core_solve
from repro.core.params import PAPER_ALPHA, PAPER_BANDWIDTH, PAPER_BETA, \
    PAPER_GAMMA, ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.core.warmstart import recover_mu
from repro.edr.coordinator import ShardCoordinator, ShardingConfig
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
        #: the one event plane, armed by a solve that names its clients
        self._coordinator: ShardCoordinator | None = None
        #: agent -> last heartbeat time, all the failure detector judges by
        self._agents: dict[str, float] = {}

    # -- solve ---------------------------------------------------------------
    def solve(self, request: SolveRequest) -> SolveResponse:
        """Solve one instance; optionally arm the event plane.

        When ``request.clients`` names the demand rows the solve is one
        pipeline: group the clients into eligibility classes once, run
        the requested algorithm once, hand its class rows to a
        :class:`ShardCoordinator` (sharded per the service's
        :class:`SolverOptions`, one shard otherwise) and read the class
        rows / ``loads`` / ``objective`` back from it the way every event
        snapshot is read — the response equals the next ``events([])``
        exactly.  Under ``aggregate`` — and always for ``"waterfill"``,
        the default — the algorithm runs in class space; otherwise
        (``aggregate=False``, ``"reference"``) its client rows are summed
        per class.  Either way the response is class space:
        its ``allocation`` is the exchangeable expansion of the class
        rows, each client its demand share of its class row.  Without
        ``clients`` nothing is armed and the class rows, loads and
        objective are the solver's own.
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
        # The water-fill solve is class space whatever ``aggregate`` says.
        aggregate = algorithm == "waterfill" or (
            bool(request.aggregate) and algorithm != "reference")
        clients = request.clients
        if clients is not None:
            if len(clients) != data.n_clients:
                raise ValidationError(
                    "clients must name every demand row exactly once")
            if len(set(clients)) != len(clients):
                raise ValidationError("client names must be unique")
        with self._serving("solve"):
            t0 = time.perf_counter()
            options = dict(request.options, recorder=self.recorder)
            agg = aggregate_problem(problem, recorder=self.recorder)
            structure, tokens = agg.structure, list(agg.structure.keys)
            solution = core_solve(agg.problem if aggregate else problem,
                                  algorithm, **options)
            rows = solution.allocation if aggregate \
                else structure.reduce_rows(solution.allocation)
            class_demand = structure.demands
            loads, objective = solution.loads, solution.objective
            if clients is not None:
                self._teardown_event_plane()
                self._coordinator = coord = ShardCoordinator(
                    agg.problem.data, tokens,
                    self.config.solver.sharding or ShardingConfig(n_shards=1),
                    clients={name: (tokens[k], demand) for name, k, demand
                             in zip(clients, structure.class_of_client,
                                    data.R.tolist())},
                    allocation=rows, recorder=self.recorder)
                # The plane's own rows and demands, in request class order.
                held, _, class_demand, rows = coord.class_snapshot()
                at = {token: k for k, token in enumerate(held)}
                order = [at[token] for token in tokens]
                rows, class_demand = rows[order], class_demand[order]
                loads, objective = coord.loads, coord.objective()
            return SolveResponse(
                class_rows=rows.tolist(), class_demand=class_demand.tolist(),
                class_of=structure.class_of_client.tolist(),
                client_demands=data.R.tolist(),
                objective=float(objective),
                iterations=int(solution.iterations),
                converged=bool(solution.converged),
                loads=loads.tolist(),
                class_duals=recover_mu(agg.problem, rows).tolist(),
                method=solution.method,
                solve_time_s=time.perf_counter() - t0,
                warm_started=solution.warm_started,
                n_classes=agg.n_classes if aggregate else None,
                clients=list(clients) if clients is not None else None,
            )

    @staticmethod
    def _problem_data(request: SolveRequest) -> ProblemData:
        """Materialize a :class:`ProblemData` from a wire request."""
        def given(value, default):
            return default if value is None else value

        return ProblemData(
            demands=request.demands, prices=request.prices, mask=request.mask,
            capacities=given(request.capacities,
                             np.full(len(request.prices), PAPER_BANDWIDTH)),
            alpha=given(request.alpha, PAPER_ALPHA),
            beta=given(request.beta, PAPER_BETA),
            gamma=given(request.gamma, PAPER_GAMMA))

    def _teardown_event_plane(self) -> None:
        if self._coordinator is not None:
            self._coordinator.close()
        self._coordinator = None

    # -- events --------------------------------------------------------------
    def events(self, request: EventRequest) -> EventResponse:
        """Apply a churn batch to the armed event plane.

        One :meth:`ShardCoordinator.apply_events` call: the whole batch
        is validated and its post-batch instance certified before
        anything is applied, so a rejected batch leaves the plane
        unchanged; an accepted one is absorbed once per touched shard.
        """
        with self._serving("events"):
            coord = self._coordinator
            if coord is None:
                raise ValidationError("no event plane armed; POST /v1/solve "
                                      "with clients first")
            events = [wire_event.to_core() for wire_event in request.events]
            routed = coord.apply_events(events)
            reason = routed.fallback_reason
            coord.refresh_loads()
            tokens, _, class_demand, rows = coord.class_snapshot()
            at = {token: k for k, token in enumerate(tokens)}
            registry = sorted(coord.clients())
            return EventResponse(
                applied=len(events), resolves=int(reason is not None),
                sweeps=routed.sweeps,
                objective=float(coord.objective()),
                class_rows=rows.tolist(), class_demand=class_demand.tolist(),
                class_of=[at[token] for _, token, _ in registry],
                client_demands=[demand for _, _, demand in registry],
                loads=coord.loads.tolist(),
                clients=[name for name, _, _ in registry],
                fallback_reasons={reason: 1} if reason else {},
            )

    # -- membership ----------------------------------------------------------
    def register(self, request: RegisterRequest) -> RegisterResponse:
        """Admit an agent; the response dictates its heartbeat cadence."""
        if not request.agent:
            raise ValidationError("agent name must be non-empty")
        faults = self.config.faults
        with self._serving("register"):
            self._agents[request.agent] = self._clock()
            self.recorder.event("service.register", agent=request.agent)
            return RegisterResponse(
                agent=request.agent,
                hb_interval=faults.hb_interval,
                hb_timeout=faults.hb_timeout,
                replicas=sorted(self._agents),
            )

    def heartbeat(self, request: HeartbeatRequest) -> HeartbeatResponse:
        """Record a liveness probe; unknown agents are told to register."""
        with self._serving("heartbeat"):
            if request.agent not in self._agents:
                return HeartbeatResponse(agent=request.agent, known=False)
            self._agents[request.agent] = self._clock()
            self.recorder.count("service.heartbeats", agent=request.agent)
            return HeartbeatResponse(agent=request.agent, known=True)

    def membership(self) -> MembershipResponse:
        """Registered agents, with liveness judged by heartbeat age."""
        faults = self.config.faults
        with self._serving("membership"):
            now = self._clock()
            ages = {name: now - last for name, last in self._agents.items()}
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
            self._teardown_event_plane()
            self._closed = True

    @contextmanager
    def _serving(self, endpoint: str):
        """Hold the lock for one counted request to an open plane."""
        with self._lock:
            if self._closed:
                raise ValidationError("control plane is closed")
            self.recorder.count("service.requests", endpoint=endpoint)
            yield

    # -- context manager -----------------------------------------------------
    def __enter__(self) -> "InProcessControlPlane":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

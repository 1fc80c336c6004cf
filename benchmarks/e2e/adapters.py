"""The only file of the benchmark that imports from ``repro``.

Two kinds of names live here:

* the **entry points** the workloads drive (imported eagerly: if one is
  gone the benchmark cannot run and must fail loudly);
* the **layer callables** the traced pass wraps or probes (resolved
  lazily by dotted path: one that is gone makes that layer's metrics
  ``null`` with the reason, and the end-to-end run carries on).
"""

from __future__ import annotations

import importlib

from repro import (
    EDRSystem,
    NetConfig,
    ProblemData,
    ReplicaSelectionProblem,
    RuntimeConfig,
    SolverOptions,
    connect,
    serve,
    solve,
    solve_reference,
)
from repro.core.incremental import ClientArrival, ClientDeparture, DemandChange
from repro.edr.coordinator import ShardCoordinator, ShardingConfig, \
    solve_sharded
from repro.edr.messages import SolveRequest, WireEvent
from repro.experiments import PAPER_DFS, PAPER_VIDEO, make_trace
from repro.experiments.fig6_fig7 import traffic_scenario
from repro.experiments.runtime_common import run_runtime
from repro.service import InProcessControlPlane

__all__ = [
    "EDRSystem", "NetConfig", "ProblemData",
    "ReplicaSelectionProblem", "RuntimeConfig", "SolverOptions", "connect",
    "serve", "solve", "solve_reference", "ClientArrival", "ClientDeparture",
    "DemandChange", "ShardCoordinator", "ShardingConfig", "solve_sharded",
    "SolveRequest", "WireEvent", "PAPER_DFS", "PAPER_VIDEO", "make_trace",
    "traffic_scenario", "run_runtime", "InProcessControlPlane",
    "LayerMissing", "layer", "resolve", "TRACE_TARGETS", "sim_events",
]


class LayerMissing(Exception):
    """A layer callable could not be resolved; carries the reason."""


def resolve(path: str):
    """``"pkg.mod:Owner.attr"`` -> ``(owner, "attr")``."""
    module, _, attrs = path.partition(":")
    owner = importlib.import_module(module)
    *parents, last = attrs.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, last


def layer(path: str):
    """The callable at ``path`` for a probe, or :class:`LayerMissing`."""
    try:
        owner, attr = resolve(path)
        return getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise LayerMissing(f"{path}: {type(exc).__name__}: {exc}") from exc


#: (span name, dotted path, wrapper options).  A function imported by name
#: into another module is wrapped where it is *used*.  Private names are
#: the layer's only entry from the simulator's event loop; losing one
#: makes that layer's metrics null, nothing more.
TRACE_TARGETS = [
    ("service.http.solve", "repro.service.client:EDRClient.solve",
     {"remote": True}),
    ("service.http.events", "repro.service.client:EDRClient.events",
     {"remote": True}),
    ("service.http.health", "repro.service.client:EDRClient.health",
     {"remote": True}),
    ("service.plane.solve",
     "repro.service.plane:InProcessControlPlane.solve", {}),
    ("service.plane.events",
     "repro.service.plane:InProcessControlPlane.events", {}),
    ("edr.messages.encode", "repro.edr.messages:WireModel.to_json", {}),
    ("edr.messages.decode", "repro.edr.messages:WireModel.from_json", {}),
    ("core.api.solve", "repro.service.plane:core_solve", {}),
    ("core.aggregate.group",
     "repro.core.aggregate:ClassStructure.from_mask", {}),
    ("core.aggregate.reduce",
     "repro.core.aggregate:ClassStructure.reduce_data", {}),
    ("core.aggregate.expand",
     "repro.core.aggregate:ClassStructure.expand_rows", {}),
    ("core.lddm.solve", "repro.core.lddm:LddmSolver.solve", {}),
    ("core.kernels.columns", "repro.core.kernels:lddm_solve_columns", {}),
    ("core.kernels.waterfill", "repro.core.shard:waterfill_rows", {}),
    ("core.incremental.event",
     "repro.core.incremental:IncrementalState.apply_event", {}),
    ("core.incremental.retarget",
     "repro.core.incremental:IncrementalState.retarget", {}),
    ("edr.coordinator.solve",
     "repro.edr.coordinator:ShardCoordinator.solve", {}),
    ("edr.coordinator.event",
     "repro.edr.coordinator:ShardCoordinator.apply_event", {}),
    ("core.shard.round", "repro.core.shard:SolveShard.solve_round", {}),
    ("core.shard_workers.round",
     "repro.core.shard_workers:ShardWorkerPool.run_round", {}),
    ("sim.engine.run", "repro.edr.system:EDRSystem.run", {}),
    ("core.warmstart.project", "repro.edr.system:project_warm_start", {}),
    ("net.transport.send", "repro.net.transport:Endpoint.send", {}),
    ("net.flows.transfer", "repro.net.flows:FlowManager.transfer", {}),
    ("net.flows.aggregate",
     "repro.net.flows:FlowManager.transfer_aggregate", {"capture": 256}),
    ("net.flows.timer", "repro.net.flows:FlowManager._on_timer", {}),
    ("net.fairshare.rates", "repro.net.flows:fair_share_rates", {}),
]


def sim_events(system) -> int:
    """Events the simulator scheduled (its queue's sequence counter)."""
    try:
        return int(system.sim._queue._seq)
    except AttributeError as exc:
        raise LayerMissing(f"sim.engine event counter: {exc}") from exc

"""Event taxonomy: the names and required fields instrumentation emits.

The schemas are documentation *and* the contract the exporter round-trip
tests pin: every record a :class:`~repro.obs.recorder.TraceRecorder`
captures is a flat JSON-serializable dict with a ``kind`` ("event",
"sample", "span", or "counter"), a monotonic timestamp ``t`` (seconds
since the recorder was created; counters are aggregates and carry no
timestamp), and a ``name``.  Known event names additionally guarantee
the fields listed in :data:`EVENT_SCHEMAS`.

Counters (aggregated in-recorder, exported once):

==========================  ====================================================
``net.messages``            control messages accepted by the transport
                            (label ``kind``: REQUEST, SOLVE_SYNC, ...)
``net.mb``                  control-message megabytes (label ``kind``)
``runtime.batches``         sub-batches the EDR driver scheduled
``warmstart.hit``           solves seeded from the warm-start cache
``warmstart.miss``          cold-started solves
``warmstart.invalidation``  cache flushes (membership changes)
``incremental.event``       class-demand deltas the runtime's event plane
                            absorbed (no batch solve)
``incremental.fallback``    runtime chunks the event plane declined
                            (label ``reason``) -> batch solve + re-arm
``shard.event``             client events recorded on one solve shard
                            (label ``shard``)
``shard.fallback``          shard declines (label ``reason``): events
                            recover by force-target + exchange rounds,
                            chunk retargets report ``ok=False``
``coordinator.refresh``     residual-triggered full exchange-round
                            refreshes of the sharded plane
``coordinator.resolve``     re-layouts of the plane from the certified
                            solve of its own class instance (exchange
                            rounds that ended uncertified)
``coordinator.migration``   classes whose owning shard changed in a
                            skew-repair re-layout (rows move with them)
``shard.bytes_static``      bytes of shard geometry shipped to the
                            persistent worker fleet via shared memory
``shard.bytes_round``       per-round delta bytes crossing the process
                            boundary (task dicts + returned rows)
``net.fair_recompute``      fair-share rate recomputations in the flow
                            manager (one per start/finish/cancel batch)
``net.flows_settled``       transfers settled to completion (aggregate
                            flows count one per internal request)
``net.flows_coalesced``     downloads absorbed into an existing
                            aggregate flow (k parts -> k-1 absorbed)
==========================  ====================================================
"""

from __future__ import annotations

__all__ = ["RECORD_KINDS", "COUNTER_NAMES", "EVENT_SCHEMAS",
           "validate_record"]

#: Every record kind an exporter may emit.
RECORD_KINDS = ("event", "sample", "span", "counter", "summary")

#: Counter names the built-in instrumentation increments.
COUNTER_NAMES = (
    "net.messages",
    "net.mb",
    "runtime.batches",
    "warmstart.hit",
    "warmstart.miss",
    "warmstart.invalidation",
    "incremental.event",
    "incremental.fallback",
    "shard.event",
    "shard.fallback",
    "coordinator.refresh",
    "coordinator.resolve",
    "coordinator.migration",
    "shard.bytes_static",
    "shard.bytes_round",
    "net.fair_recompute",
    "net.flows_settled",
    "net.flows_coalesced",
)

#: Known event names -> fields guaranteed to be present (beyond
#: ``kind``/``t``/``name``).  Instrumentation may add more fields;
#: unknown names are allowed (the taxonomy is open).
EVENT_SCHEMAS: dict[str, tuple[str, ...]] = {
    # One per solver iteration (LDDM): dual residual, dual step, max |mu|.
    "lddm.iteration": ("k", "residual", "step", "mu_max"),
    # One per solver iteration (CDPSM): consensus disagreement, step.
    "cdpsm.iteration": ("k", "change", "step"),
    # One per finished in-process solve (both solvers + reference).
    "solver.solve": ("method", "iterations", "converged", "objective",
                     "solve_time_s", "warm_started"),
    # One per DistributedSolveSession.run(): simulated-time solve stats
    # plus the session's exact per-round message/byte plan.
    "session.solve": ("algorithm", "rows", "n_clients", "n_replicas",
                      "iterations", "converged", "sim_start", "sim_duration",
                      "messages", "mb", "msgs_per_round", "mb_per_round"),
    # One per EDR runtime sub-batch solved by an optimizing scheduler.
    "runtime.batch": ("sim_time", "algorithm", "n_requests", "n_clients",
                      "n_classes", "iterations", "converged", "warm_started",
                      "solve_sim_s"),
    # One per sub-batch absorbed by the runtime's event plane
    # (class-demand changes applied + refinement sweeps, no batch solve).
    "runtime.incremental": ("sim_time", "n_requests", "n_clients",
                            "events", "sweeps", "solve_sim_s"),
    # One per shard best-response inside a dual-price exchange round
    # (demand_share feeds the elasticity skew diagnostics).
    "shard.solve": ("shard", "rows", "sweeps", "converged", "demand_share"),
    # One per dual-price exchange round (global residual after gather).
    "coordinator.round": ("round", "residual", "n_shards", "wall_s"),
    # One per ShardCoordinator.solve() call.
    "coordinator.solve": ("rounds", "residual", "converged", "n_shards",
                          "n_classes"),
    # One per skew-repair re-layout (rebalance()): classes moved and the
    # demand skew before/after.
    "coordinator.repartition": ("moves", "n_shards", "skew_before",
                                "skew_after"),
    # One per shard-count resize (a re-layout onto another count).
    "coordinator.resize": ("from_shards", "to_shards", "n_classes"),
    # One per coalesced ASSIGN batch a client turned into downloads.
    "runtime.traffic": ("sim_time", "client", "n_requests", "n_parts",
                        "n_flows", "mb"),
    # Ring membership transition ("dead" or "alive").
    "membership": ("change", "member"),
    # Experiment-runner marker: everything after belongs to this figure.
    "experiment.figure": ("figure",),
    # Sweep-point marker emitted inside a figure run.
    "experiment.point": ("figure",),
}

#: ``sample`` records: name -> labels beyond ``value``.
SAMPLE_SCHEMAS: dict[str, tuple[str, ...]] = {
    # Objective of the repaired candidate at iteration ``k`` (only when
    # the producing solve tracks objectives).
    "solver.objective": ("k", "value"),
}


def validate_record(record: dict) -> None:
    """Raise ``ValueError`` if ``record`` violates the export contract.

    Used by the schema round-trip tests and by :func:`~repro.obs.export.
    from_jsonl` (exporting code keeps the hot path validation-free).
    """
    if not isinstance(record, dict):
        raise ValueError(f"record must be a dict, got {type(record)!r}")
    kind = record.get("kind")
    if kind not in RECORD_KINDS:
        raise ValueError(f"unknown record kind {kind!r}")
    if kind == "summary":
        return
    name = record.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(f"record needs a nonempty string name: {record!r}")
    if kind == "counter":
        if not isinstance(record.get("value"), (int, float)):
            raise ValueError(f"counter needs a numeric value: {record!r}")
        return
    if not isinstance(record.get("t"), (int, float)):
        raise ValueError(f"{kind} record needs a numeric t: {record!r}")
    if kind == "span" and not isinstance(record.get("duration"),
                                         (int, float)):
        raise ValueError(f"span record needs a duration: {record!r}")
    if kind == "sample":
        required = ("value",) + SAMPLE_SCHEMAS.get(name, ())
    else:
        required = EVENT_SCHEMAS.get(name, ())
    missing = [f for f in required if f not in record]
    if missing:
        raise ValueError(f"{kind} {name!r} missing fields {missing}")

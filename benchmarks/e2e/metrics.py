"""Names, units, directions and bounds of every metric the benchmark prints.

Three tables:

* :data:`E2E` — the end-to-end metrics a user of each workload sees, by
  the names the README documents, with the bound ``compare.py`` applies.
* :data:`SLOTS` — the seven end-to-end numbers ``BENCHMARK.json`` declares.
  The driver wants every workload to print every declared metric, so a
  slot is a *role* (full pass, small operation, throughput, answer cost);
  the README's table says which workload metric fills it.
* :data:`PER_LAYER` — one row per layer metric, no bound.
"""

from __future__ import annotations

import statistics

WORKLOADS = ("svc-churn", "plane-scale", "paper-replay", "traffic-replay")

#: name -> (unit, better, bound, kind).  ``kind`` is how the bound reads:
#: ``rel`` = share of the baseline median the metric may worsen by (1e-9
#: for simulated quantities: only float noise passes), ``ceiling`` =
#: absolute value it must stay under.
E2E = {
    "setup_s":         ("s",     "lower",  0.10, "rel"),
    "solve_s":         ("s",     "lower",  0.10, "rel"),
    "sharded_solve_s": ("s",     "lower",  0.10, "rel"),
    "solve_gap":       ("ratio", "lower",  1e-6, "ceiling"),
    "req_p50_ms":      ("ms",    "lower",  0.10, "rel"),
    "req_p95_ms":      ("ms",    "lower",  0.10, "rel"),
    "event_p50_ms":    ("ms",    "lower",  0.10, "rel"),
    "event_p99_ms":    ("ms",    "lower",  0.10, "rel"),
    "events_per_s":    ("1/s",   "higher", 0.10, "rel"),
    "requests_per_s":  ("1/s",   "higher", 0.10, "rel"),
    "cost_cents":      ("cents", "lower",  1e-9, "rel"),
    "response_ms":     ("ms",    "lower",  1e-9, "rel"),
    "saving_pct":      ("%",     "higher", 1e-9, "rel"),
    "fail_ratio":      ("ratio", "lower",  0.0,  "ceiling"),
    "peak_rss_mb":     ("MB",    "lower",  0.10, "rel"),
}

_COMMON = ("setup_s", "fail_ratio", "peak_rss_mb")
E2E_BY_WORKLOAD = {
    "svc-churn": _COMMON + ("solve_s", "solve_gap", "req_p50_ms",
                            "req_p95_ms", "events_per_s"),
    "plane-scale": _COMMON + ("solve_s", "sharded_solve_s", "solve_gap",
                              "event_p50_ms", "event_p99_ms",
                              "events_per_s"),
    "paper-replay": _COMMON + ("requests_per_s", "cost_cents",
                               "response_ms", "saving_pct"),
    "traffic-replay": _COMMON + ("requests_per_s", "cost_cents",
                                 "response_ms"),
}

#: The driver-facing end-to-end metrics: name -> (unit, better).  Bounds
#: live in BENCHMARK.json, set from the measured run-to-run spread.
SLOTS = {
    "setup_s":     ("s",     "lower"),
    "pass_s":      ("s",     "lower"),
    "op_p50_ms":   ("ms",    "lower"),
    "op_tail_ms":  ("ms",    "lower"),
    "ops_per_s":   ("1/s",   "higher"),
    "cost_per_mb": ("cost/MB", "lower"),
    "peak_rss_mb": ("MB",    "lower"),
}

#: name -> (unit, better).  A workload that does not exercise a layer
#: prints 0 for it; a layer whose callable is gone prints -1 on the
#: driver line and ``null`` plus the reason in the report.
PER_LAYER = {
    "edr.messages.encode_s":              ("s", "lower"),
    "edr.messages.decode_s":              ("s", "lower"),
    "edr.messages.solve_bytes":           ("bytes", "lower"),
    "edr.messages.event_resp_bytes":      ("bytes", "lower"),
    "service.http.rtt_ms":                ("ms", "lower"),
    "service.http.self_ms":               ("ms", "lower"),
    "service.http.errors":                ("count", "lower"),
    "service.plane.solve_s":              ("s", "lower"),
    "service.plane.solve_self_s":         ("s", "lower"),
    "service.plane.events1_ms":           ("ms", "lower"),
    "service.plane.events100_ms":         ("ms", "lower"),
    "service.plane.snapshot_ms":          ("ms", "lower"),
    "service.plane.resolves":             ("count", "lower"),
    "service.plane.sweeps":               ("count", "lower"),
    "core.aggregate.group_s":             ("s", "lower"),
    "core.aggregate.reduce_s":            ("s", "lower"),
    "core.aggregate.expand_s":            ("s", "lower"),
    "core.aggregate.classes":             ("count", "lower"),
    "core.aggregate.bytes_computed":      ("bytes", "lower"),
    "core.lddm.solve_s":                  ("s", "lower"),
    "core.lddm.iterations":               ("count", "lower"),
    "core.lddm.iter_us":                  ("us", "lower"),
    "core.kernels.waterfill_calls":       ("count", "lower"),
    "core.kernels.waterfill_s":           ("s", "lower"),
    "core.kernels.columns_calls":         ("count", "lower"),
    "core.kernels.columns_s":             ("s", "lower"),
    "edr.coordinator.solve_s":            ("s", "lower"),
    "edr.coordinator.rounds":             ("count", "lower"),
    "edr.coordinator.residual":           ("ratio", "lower"),
    "edr.coordinator.parallel_eff":       ("ratio", "higher"),
    "edr.coordinator.event_demand_us":    ("us", "lower"),
    "edr.coordinator.event_arrival_us":   ("us", "lower"),
    "edr.coordinator.event_departure_us": ("us", "lower"),
    "edr.coordinator.event_newclass_us":  ("us", "lower"),
    "edr.coordinator.refreshes":          ("count", "lower"),
    "edr.coordinator.fallbacks":          ("count", "lower"),
    "core.shard.round_s":                 ("s", "lower"),
    "core.shard_workers.static_bytes":    ("bytes", "lower"),
    "core.shard_workers.round_bytes":     ("bytes", "lower"),
    "core.shard_workers.reships":         ("count", "lower"),
    "core.incremental.event_us":          ("us", "lower"),
    "core.incremental.sweeps":            ("count", "lower"),
    "core.incremental.fallbacks":         ("count", "lower"),
    "core.incremental.kkt_residual":      ("ratio", "lower"),
    "edr.system.batches":                 ("count", "lower"),
    "edr.system.solve_iterations":        ("count", "lower"),
    "edr.system.warm_ratio":              ("ratio", "higher"),
    "edr.system.incremental_events":      ("count", "higher"),
    "edr.system.incremental_fallbacks":   ("count", "lower"),
    "edr.scheduler.sim_solve_s":          ("s", "lower"),
    "net.transport.messages":             ("count", "lower"),
    "net.transport.comm_mb":              ("MB", "lower"),
    "net.transport.msgs_per_request":     ("count", "lower"),
    "net.flows.recomputes":               ("count", "lower"),
    "net.flows.recomputes_per_request":   ("count", "lower"),
    "net.flows.parts_settled":            ("count", "higher"),
    "net.flows.parts_coalesced":          ("count", "higher"),
    "net.flows.coalesce_ratio":           ("ratio", "higher"),
    "net.flows.part_us":                  ("us", "lower"),
    "net.fairshare.calls":                ("count", "lower"),
    "net.fairshare.busy_s":               ("s", "lower"),
    "net.fairshare.call_us":              ("us", "lower"),
    "sim.engine.events":                  ("count", "lower"),
    "sim.engine.event_us":                ("us", "lower"),
    "sim.engine.self_s":                  ("s", "lower"),
    "obs.trace_overhead":                 ("ratio", "lower"),
}


def median(samples) -> float:
    return float(statistics.median(samples))


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (nearest rank on the sorted samples)."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
    return float(ordered[rank])


def mean(samples) -> float:
    return float(sum(samples) / len(samples)) if samples else 0.0

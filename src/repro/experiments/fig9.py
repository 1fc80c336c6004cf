"""Fig. 9 — system performance: EDR vs DONAR response time scaling.

Three EDR replicas (LDDM) against three DONAR mapping nodes; the request
count sweeps 24..192 (YouTube-patterned).  Published shape: the two
systems' response times are very close, under ~200 ms per request, and
grow near-linearly with the request count; EDR's asymptotic communication
complexity is lower, so it wins at scale.

The solver-, event- and shard-scaling series beyond the paper's sweep
are measured by ``benchmarks/test_bench_{aggregate,incremental,shard}.py``
on :func:`~repro.experiments.scenarios.scaling_problem` instances and by
the ``benchmarks/e2e`` ledger, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.edr.coordinator import ShardingConfig
from repro.edr.donar_runtime import DonarRuntime
from repro.edr.system import EDRSystem, RuntimeConfig, SolverOptions
from repro.errors import ValidationError
from repro.experiments.parallel import parallel_map
from repro.experiments.scenarios import FIG9_PRICES, Scenario, make_trace
from repro.util.tables import render_series
from repro.workload.apps import FILE_SERVICE

__all__ = ["Fig9Result", "run", "run_point", "DEFAULT_REQUEST_COUNTS"]

DEFAULT_REQUEST_COUNTS = (24, 48, 72, 96, 120, 144, 168, 192)


@dataclass
class Fig9Result:
    """Mean response time per request count for both systems."""

    request_counts: list[int]
    edr_mean_response: list[float]
    donar_mean_response: list[float]
    edr_total_response: list[float] = field(default_factory=list)
    donar_total_response: list[float] = field(default_factory=list)
    #: Simulated seconds EDR spent inside LDDM solves, per request count.
    edr_solve_time: list[float] = field(default_factory=list)
    #: Total LDDM iterations across all of EDR's solves, per request count.
    edr_solve_iterations: list[int] = field(default_factory=list)

    def render(self) -> str:
        table = render_series(
            {"EDR_ms": [1000 * v for v in self.edr_mean_response],
             "DONAR_ms": [1000 * v for v in self.donar_mean_response],
             "EDR_total_s": self.edr_total_response,
             "DONAR_total_s": self.donar_total_response},
            x=self.request_counts, x_label="requests",
            title=("Fig. 9 — response time vs request count, "
                   "EDR (3 replicas, LDDM) vs DONAR (3 mapping nodes)"))
        worst = max(self.edr_mean_response) * 1000
        return (table + f"\nworst EDR mean response: {worst:.1f} ms "
                "(paper: < 200 ms per request, near-linear growth)")


def _scenario(count: int, max_clients: int = 24) -> Scenario:
    # All requests submitted (nearly) together, as in the paper's sweep:
    # the whole count lands within ~20 ms, so the systems must schedule
    # one large backlog and later requests queue behind earlier chunks —
    # this is what makes response time grow with the request count.
    return Scenario(name=f"fig9-{count}", app=FILE_SERVICE,
                    n_requests=count, n_clients=min(count, max_clients),
                    arrival_rate=count * 50.0)


def run_point(point: int | tuple, recorder=None) -> dict:
    """One sweep point: both systems at one request count.

    Module-level and driven entirely by its argument — a count, or a
    ``(count, warm_start[, aggregate[, max_clients[, sharding]]])``
    tuple — so it pickles cleanly into worker processes and gives
    bit-identical results at any ``--jobs`` level (every random draw
    derives from the scenario's fixed seed).  ``sharding`` lays EDR's
    event plane out over shards (and turns it on): a shard count or a
    :class:`~repro.edr.coordinator.ShardingConfig`.  ``recorder``
    threads a :class:`~repro.obs.Recorder` through the EDR runtime
    (serial sweeps only — events captured in worker processes would be
    lost).
    """
    defaults = (True, True, 24, None)
    vals = (point,) if isinstance(point, int) else tuple(point)
    count, warm, aggregate, max_clients, sharding = \
        (vals + defaults[len(vals) - 1:])[:5]
    shard_cfg = None
    if sharding:
        shard_cfg = sharding if isinstance(sharding, ShardingConfig) \
            else ShardingConfig(n_shards=int(sharding))
    scenario = _scenario(int(count), max_clients=int(max_clients))
    trace = make_trace(scenario)
    if recorder is not None and recorder.enabled:
        recorder.event("experiment.point", figure="fig9",
                       requests=int(count))
    edr = EDRSystem(trace, RuntimeConfig(
        solver=SolverOptions(warm_start=warm, aggregate=aggregate,
                             sharding=shard_cfg),
        prices=FIG9_PRICES, batch_capacity_fraction=0.35,
        recorder=recorder)).run(app="dfs")
    donar = DonarRuntime(trace, RuntimeConfig(prices=FIG9_PRICES)
                         ).run(app="dfs")
    return {
        "count": int(count),
        "edr_mean": edr.mean_response,
        "donar_mean": donar.mean_response,
        "edr_total": sum(edr.response_times),
        "donar_total": sum(donar.response_times),
        "edr_solve_time": float(edr.extras.get("solve_time", 0.0)),
        "edr_solve_iterations": int(edr.extras.get("solve_iterations", 0)),
    }


def run(request_counts=DEFAULT_REQUEST_COUNTS, jobs: int = 1,
        warm_start: bool = True, aggregate: bool = True,
        max_clients: int = 24, sharding=None, recorder=None) -> Fig9Result:
    """Sweep the request count for both systems.

    ``jobs > 1`` spreads the (independent) sweep points over worker
    processes; ``warm_start=False`` forces every EDR batch to cold-start,
    for the warm-vs-cold regression and benchmarks; ``aggregate=False``
    disables the class-space solve; ``max_clients`` lifts the paper's
    24-client population cap so the sweep can grow the client count with
    the request count; ``sharding`` (a shard count or a
    :class:`~repro.edr.coordinator.ShardingConfig`) lays EDR's event
    plane out over that many shards.  An enabled ``recorder``
    forces ``jobs=1`` — events captured inside worker processes would
    be lost.
    """
    counts = [int(c) for c in request_counts]
    if not counts or min(counts) < 1:
        raise ValidationError("request_counts must be positive")
    point_fn = run_point
    if recorder is not None and getattr(recorder, "enabled", False):
        jobs = 1
        point_fn = partial(run_point, recorder=recorder)
    points = parallel_map(
        point_fn,
        [(c, warm_start, aggregate, int(max_clients), sharding)
         for c in counts],
        jobs=jobs)
    return Fig9Result(
        request_counts=counts,
        edr_mean_response=[p["edr_mean"] for p in points],
        donar_mean_response=[p["donar_mean"] for p in points],
        edr_total_response=[p["edr_total"] for p in points],
        donar_total_response=[p["donar_total"] for p in points],
        edr_solve_time=[p["edr_solve_time"] for p in points],
        edr_solve_iterations=[p["edr_solve_iterations"] for p in points])

"""The four workloads.  Each one generates its inputs from the seed here,
in the benchmark process, drives the program through its public entry
points only, checks what comes back, and turns its samples into metrics.

A workload is a class with this life cycle (``run.py`` drives it)::

    w = Workload(seed, scale, ledger)
    w.setup()            # inputs + program state; timed -> setup_s
    w.round(tracer)      # one fixed-size round of timed operations
    w.end_round()        # release what the round holds (server, pools)
    ...                  # setup/round/end_round repeat while time is left
    w.finish()           # end-of-run checks (reference gaps, determinism)
    w.e2e(), w.slots()   # end-to-end metrics
    w.probes(tracer), w.per_layer(tracer)   # traced pass only

``scale`` shrinks every size (``--quick`` uses 1/20); at 1.0 the sizes are
the ones the README documents.
"""

from __future__ import annotations

import dataclasses
import time
import warnings

import numpy as np

import adapters as A
from checks import (
    PARITY_TOL,
    Ledger,
    check_allocation,
    check_equal,
    check_gap,
    relative_gap,
)
from metrics import mean, median, percentile

now = time.perf_counter


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


# -- inputs ------------------------------------------------------------------

#: Replica electricity prices (cents/kWh): the paper's Fig. 6/7 vector.
PRICES = (1.0, 8.0, 1.0, 6.0, 1.0, 5.0, 2.0, 3.0)


def deployment(n_replicas: int, n_patterns: int, absent: int = 0):
    """The eligibility patterns of a deployment, plus ``absent`` more that
    no client has at arm time.

    Which replicas a client region can reach is part of the workload's
    definition, like the replica count, so it does not move with
    ``--seed``: LDDM's iteration count depends on it far more than on the
    traffic, and a solve time that swings 2x between seeds would say
    nothing.  The seed draws the traffic: demands, which pattern each
    client has, and every churn event.  Every pattern keeps >= 2 eligible
    replicas, so any demand split stays feasible under 0.6 x total
    capacity per replica (Hall's condition).
    """
    rng = np.random.default_rng([2013, n_replicas, n_patterns])
    rows = [np.ones(n_replicas, dtype=bool)]
    seen = {rows[0].tobytes()}
    while len(rows) < n_patterns + absent:
        row = rng.random(n_replicas) < 0.6
        if row.sum() >= 2 and row.tobytes() not in seen:
            seen.add(row.tobytes())
            rows.append(row)
    return np.array(rows[:n_patterns]), rows[n_patterns:]


def make_instance(rng, n_clients: int, patterns: np.ndarray):
    """A fig9-style batch instance: lognormal ~10 MB demands (the DFS
    profile), one pattern per client, capacities scaled with demand."""
    sigma = 0.25
    demands = rng.lognormal(np.log(10.0) - sigma ** 2 / 2.0, sigma, n_clients)
    mask = patterns[rng.integers(0, len(patterns), n_clients)]
    prices = np.resize(PRICES, patterns.shape[1])
    return A.ReplicaSelectionProblem(A.ProblemData.paper_defaults(
        demands=demands, prices=prices, bandwidth=0.6 * demands.sum(),
        mask=mask))


# -- churn: the benchmark's mirror of the plane's client registry -----------

class Registry:
    """Who is registered, with what demand and eligibility row.

    The mirror is what every returned allocation is checked against and
    what the post-churn reference problem is built from, so it is kept by
    the benchmark and never read back from the program.
    """

    def __init__(self, data) -> None:
        mask = np.asarray(data.mask, dtype=bool)
        codes = mask @ (1 << np.arange(mask.shape[1]))
        _codes, first, inverse = np.unique(codes, return_index=True,
                                           return_inverse=True)
        tokens = [mask[i].tobytes() for i in first]
        self.patterns = {t: mask[i].copy() for t, i in zip(tokens, first)}
        #: class row (position in ``patterns``) of each initial client
        self.initial_class = inverse
        demands = data.R.tolist()
        self.members = {f"c{i}": (tokens[k], demands[i])
                        for i, k in enumerate(inverse.tolist())}
        self.names = list(self.members)
        self.class_demand = dict.fromkeys(self.patterns, 0.0)
        for token, demand in self.members.values():
            self.class_demand[token] += demand
        logs = np.log(np.maximum(data.R, 1e-9))
        self._mu, self._sigma = float(logs.mean()), float(logs.std())
        self._fresh = 0
        self.cost = {"capacities": data.B.copy(), "prices": data.u.copy(),
                     "alpha": data.alpha.copy(), "beta": data.beta.copy(),
                     "gamma": data.gamma.copy()}

    def fork(self) -> "Registry":
        """A copy that can be churned without disturbing this mirror."""
        other = object.__new__(Registry)
        other.__dict__.update(self.__dict__)
        other.patterns = dict(self.patterns)
        other.members = dict(self.members)
        other.names = list(self.names)
        other.class_demand = dict(self.class_demand)
        return other

    def draw(self, rng, n: int, mix, new_rows=(), p_new: float = 0.0):
        """``n`` events ``(kind, name, demand, row)``, applied to the mirror
        as they are drawn.  ``mix`` = (demand change, arrival, departure)
        shares; ``p_new`` of the draws are arrivals on ``new_rows``, which
        are ``newclass`` the first time a row is used."""
        tokens = list(self.patterns)
        events = []
        for _ in range(n):
            u = rng.random()
            demand = float(rng.lognormal(self._mu, self._sigma))
            if u < p_new:
                row = new_rows[int(rng.integers(len(new_rows)))]
                kind = "arrival" if row.tobytes() in self.patterns \
                    else "newclass"
                events.append(self._arrive(kind, demand, row))
                continue
            u = (u - p_new) / (1.0 - p_new)
            if u < mix[0]:
                name = self.names[int(rng.integers(len(self.names)))]
                token, old = self.members[name]
                self.members[name] = (token, demand)
                self.class_demand[token] += demand - old
                events.append(("demand", name, demand, None))
            elif u < mix[0] + mix[1]:
                token = tokens[int(rng.integers(len(tokens)))]
                events.append(self._arrive("arrival", demand,
                                           self.patterns[token]))
            else:
                i = int(rng.integers(len(self.names)))
                self.names[i], self.names[-1] = self.names[-1], self.names[i]
                name = self.names.pop()
                token, old = self.members.pop(name)
                self.class_demand[token] -= old
                events.append(("departure", name, None, None))
        return events

    def _arrive(self, kind, demand, row):
        token = row.tobytes()
        if token not in self.patterns:
            self.patterns[token] = row
            self.class_demand[token] = 0.0
        self._fresh += 1
        name = f"x{self._fresh}"
        self.members[name] = (token, demand)
        self.names.append(name)
        self.class_demand[token] += demand
        return (kind, name, demand, row)

    def total_demand(self) -> float:
        return float(sum(self.class_demand.values()))

    def class_problem(self):
        """The class-space instance the registry describes right now."""
        tokens = list(self.patterns)
        demands = np.maximum([self.class_demand[t] for t in tokens], 0.0)
        data = A.ProblemData(demands=demands,
                             mask=np.vstack([self.patterns[t]
                                             for t in tokens]),
                             **self.cost)
        return A.ReplicaSelectionProblem(data)

    def class_rows(self, allocation, names=None) -> np.ndarray:
        """Sum a per-client allocation into class rows (``patterns``
        order); ``names`` defaults to the initial clients, in order."""
        P = np.asarray(allocation, dtype=float)
        if names is None:
            index = self.initial_class
        else:
            position = {t: k for k, t in enumerate(self.patterns)}
            index = np.array([position[self.members[n][0]] for n in names])
        return np.column_stack([
            np.bincount(index, weights=P[:, j], minlength=len(self.patterns))
            for j in range(P.shape[1])])

    def arrays_for(self, names):
        """Demands and eligibility rows of ``names``, in that order."""
        members, patterns = self.members, self.patterns
        demands = np.array([members[n][1] for n in names])
        mask = np.array([patterns[members[n][0]] for n in names])
        return demands, mask


def _core_event(event):
    kind, name, demand, row = event
    if kind == "demand":
        return A.DemandChange(name, demand)
    if kind == "departure":
        return A.ClientDeparture(name)
    return A.ClientArrival(name, demand, row)


def _wire_event(event):
    kind, name, demand, row = event
    if kind == "demand":
        return A.WireEvent(kind="demand_change", client=name, demand=demand)
    if kind == "departure":
        return A.WireEvent(kind="departure", client=name)
    return A.WireEvent(kind="arrival", client=name, demand=demand,
                       eligibility=row.tolist())


def _reference_objective(problem, rows) -> float:
    """Optimum of a class-space instance from the centralized scipy
    solver, started at the answer under test (its class ``rows``).

    Started cold, SLSQP sometimes stops early at a poor point; started at
    the answer it can only confirm it or find something better, and it
    reaches the optimum to 1e-15 from answers up to 1e-3 off.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return float(A.solve_reference(problem, warm_start=rows).objective)


def _aggregate_bytes(n_clients: int, n_replicas: int, n_classes: int) -> int:
    """Bytes the aggregated solve must touch, from array sizes (computed,
    not measured): read mask + demands, write the expanded allocation,
    read/write the class rows."""
    return (n_clients * n_replicas + 8 * n_clients
            + 8 * n_clients * n_replicas + 16 * n_classes * n_replicas)


def _stat(summary: dict, span: str, key: str):
    """``n`` / ``total_s`` / ``self_s`` of a span name; 0 if never seen."""
    return summary.get(span, {}).get(key, 0)


class Workload:
    name = ""

    def __init__(self, seed: int, scale: float, ledger: Ledger) -> None:
        self.seed = int(seed)
        self.scale = float(scale)
        self.ledger = ledger
        self.samples: dict[str, list[float]] = {}
        #: counts that must read the same on every repetition of one run
        self.repeat: dict[str, list] = {}
        #: layer -> why its probe or counter could not be resolved
        self.missing: dict[str, str] = {}

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def rng(self, stream: int):
        return np.random.default_rng([self.seed, stream])

    def timed(self, tracer, op: str, key: str, fn, what: str):
        """Run ``fn`` as one attempted operation; an exception is a failed
        operation, not a crashed benchmark."""
        try:
            with tracer.op(op):
                t0 = now()
                out = fn()
                self.sample(key, now() - t0)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self.ledger.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return None
        self.ledger.record(True, what)
        return out

    def soft(self, layer: str, probe) -> None:
        """Run a layer probe; an unresolvable callable nulls that layer's
        metrics instead of failing the run."""
        try:
            probe()
        except A.LayerMissing as exc:
            self.missing[layer] = str(exc)

    def setup(self) -> None: ...
    def round(self, tracer) -> None: ...
    def end_round(self) -> None: ...
    def finish(self) -> None: ...
    def probes(self, tracer) -> None: ...

    def close(self) -> None:
        """Release what ``setup`` started (server threads, worker
        processes); called on every way out of a run, so idempotent."""

    #: sample keys holding the seconds of whole timed operations
    TIMED: tuple = ()

    def op_seconds(self) -> float:
        """Seconds spent inside timed operations so far (checks and input
        generation excluded): what the tracing overhead is measured on."""
        return sum(sum(self.samples.get(k, ())) for k in self.TIMED)

    def sample_counts(self) -> dict[str, int]:
        return {k: len(v) for k, v in self.samples.items()}


# -- svc-churn ---------------------------------------------------------------

class SvcChurn(Workload):
    """Live HTTP server on loopback, one closed-loop ``EDRClient``."""

    name = "svc-churn"
    CLIENTS, REPLICAS, PATTERNS = 10_000, 8, 12
    SINGLES, BATCHES, BATCH = 20, 8, 100
    TIMED = ("solve_s", "single_s", "batch_s")
    MIX = (0.50, 0.35, 0.15)

    def __init__(self, seed, scale, ledger) -> None:
        super().__init__(seed, scale, ledger)
        self.ref = None

    def setup(self) -> None:
        n = _scaled(self.CLIENTS, self.scale, 50)
        patterns, _ = deployment(self.REPLICAS, self.PATTERNS)
        problem = make_instance(self.rng(0), n, patterns)
        self.data = d = problem.data
        self.registry = Registry(d)
        self.request = A.SolveRequest(
            demands=d.R.tolist(), prices=d.u.tolist(),
            capacities=d.B.tolist(), mask=d.mask.tolist(),
            clients=list(self.registry.names), options={"max_iter": 5000})
        self.events_rng = self.rng(1)
        self.server = A.serve()
        self.client = A.connect(self.server.url)
        self.resolves = self.sweeps = 0
        self.last_events = None

    def _check_events(self, what: str, resp, sent: int) -> None:
        ok = self.ledger.record(resp.applied == sent,
                                f"{what}: applied {resp.applied} of {sent}")
        if not ok:
            return
        demands, mask = self.registry.arrays_for(resp.clients)
        check_allocation(self.ledger, what, resp.allocation, demands, mask,
                         self.data.B)
        self.resolves += resp.resolves
        self.sweeps += resp.sweeps
        self.last_events = resp

    def round(self, tracer) -> None:
        d, reg, client = self.data, self.registry, self.client
        resp = self.timed(tracer, "solve", "solve_s",
                          lambda: client.solve(self.request),
                          "POST /v1/solve")
        if resp is None:
            return
        self.solve_resp = resp
        self.ledger.record(bool(resp.converged), "solve did not converge")
        check_allocation(self.ledger, "solve response", resp.allocation,
                         d.R, d.mask, d.B)
        if self.ref is None:
            # Once per run: the answer against the independent optimum,
            # and HTTP against the same request served in process.
            self.ref = _reference_objective(
                reg.class_problem(), reg.class_rows(resp.allocation))
            with A.InProcessControlPlane() as local:
                direct = local.solve(self.request)
            diff = float(np.max(np.abs(np.asarray(resp.allocation)
                                       - np.asarray(direct.allocation))))
            self.ledger.record(diff <= PARITY_TOL,
                               f"HTTP vs in-process allocation: {diff:.3g}")
        self.sample("solve_gap", check_gap(self.ledger, "solve",
                                           resp.objective, self.ref))
        self.repeat.setdefault("solve.iterations", []).append(
            resp.iterations)

        for _ in range(_scaled(self.SINGLES, self.scale, 3)):
            wire = [_wire_event(e)
                    for e in reg.draw(self.events_rng, 1, self.MIX)]
            out = self.timed(tracer, "single", "single_s",
                             lambda: client.events(wire),
                             "POST /v1/events (1)")
            if out is not None:
                self._check_events("single event", out, 1)
        batch = _scaled(self.BATCH, self.scale, 5)
        for _ in range(_scaled(self.BATCHES, self.scale, 2)):
            wire = [_wire_event(e)
                    for e in reg.draw(self.events_rng, batch, self.MIX)]
            out = self.timed(tracer, "batch", "batch_s",
                             lambda: client.events(wire),
                             f"POST /v1/events ({batch})")
            if out is not None:
                self._check_events("event batch", out, batch)
                self.sample("batch_rate", batch / self.samples["batch_s"][-1])

        if self.last_events is not None:
            last = self.last_events
            post = _reference_objective(
                reg.class_problem(),
                reg.class_rows(last.allocation, last.clients))
            self.sample("post_gap", check_gap(
                self.ledger, "post-churn", last.objective, post))
            self.cost_per_mb = last.objective / reg.total_demand()
            for key, value in (("events.objective", last.objective),
                               ("events.resolves", self.resolves),
                               ("events.sweeps", self.sweeps)):
                self.repeat.setdefault(key, []).append(value)

    def end_round(self) -> None:
        self.server.close()

    def finish(self) -> None:
        for key, values in self.repeat.items():
            check_equal(self.ledger, key, values)

    def close(self) -> None:
        if getattr(self, "server", None) is not None:
            self.server.close()

    def e2e(self) -> dict:
        s = self.samples
        return {
            "solve_s": (median(s["solve_s"]), len(s["solve_s"])),
            "solve_gap": (max(s["solve_gap"] + s["post_gap"]),
                          len(s["solve_gap"]) + len(s["post_gap"])),
            "req_p50_ms": (1e3 * median(s["single_s"]), len(s["single_s"])),
            "req_p95_ms": (1e3 * percentile(s["single_s"], 95),
                           len(s["single_s"])),
            "events_per_s": (median(s["batch_rate"]), len(s["batch_rate"])),
        }

    def slots(self, e2e) -> dict:
        return {"pass_s": e2e["solve_s"][0],
                "op_p50_ms": e2e["req_p50_ms"][0],
                "op_tail_ms": e2e["req_p95_ms"][0],
                "ops_per_s": e2e["events_per_s"][0],
                "cost_per_mb": self.cost_per_mb}

    # -- traced pass --------------------------------------------------------
    def probes(self, tracer) -> None:
        client = self.client
        t0 = now()
        for _ in range(20):
            client.health()
        self.rtt_ms = 1e3 * (now() - t0) / 20
        for _ in range(5):
            with tracer.op("snapshot"):
                client.events([])
        self.encode_s = self.decode_s = 0.0
        self.solve_bytes = self.event_resp_bytes = 0
        self.soft("edr.messages", self._probe_messages)

    def _probe_messages(self) -> None:
        """``to_json`` / ``parse_message`` on the real request and
        response bodies of this run."""
        parse = A.layer("repro.edr.messages:parse_message")
        # The response's wall-clock field would make the byte counts differ
        # from run to run by a digit or two.
        solve_resp = dataclasses.replace(self.solve_resp, solve_time_s=None)
        models = (self.request, solve_resp, self.last_events)
        t0 = now()
        bodies = [m.to_json() for m in models]
        self.encode_s = now() - t0
        t0 = now()
        for body in bodies:
            parse(body)
        self.decode_s = now() - t0
        self.solve_bytes = len(bodies[0]) + len(bodies[1])
        self.event_resp_bytes = len(bodies[2])

    def per_layer(self, tracer) -> dict:
        S = tracer.summary()

        def total(name):
            return _stat(S, name, "total_s")

        d = self.data
        resp = self.solve_resp
        lddm_s = total("core.lddm.solve")
        return {
            "edr.messages.encode_s": self.encode_s,
            "edr.messages.decode_s": self.decode_s,
            "edr.messages.solve_bytes": self.solve_bytes,
            "edr.messages.event_resp_bytes": self.event_resp_bytes,
            "service.http.rtt_ms": self.rtt_ms,
            "service.http.self_ms": 1e3 * mean(tracer.self_durations(
                "service.http.events", "single")),
            "service.http.errors": self.ledger.failed,
            "service.plane.solve_s": mean(
                tracer.durations("service.plane.solve", "solve")),
            "service.plane.solve_self_s": mean(tracer.self_durations(
                "service.plane.solve", "solve", minus="core.api.solve")),
            "service.plane.events1_ms": 1e3 * mean(
                tracer.durations("service.plane.events", "single")),
            "service.plane.events100_ms": 1e3 * mean(
                tracer.durations("service.plane.events", "batch")),
            "service.plane.snapshot_ms": 1e3 * mean(
                tracer.durations("service.plane.events", "snapshot")),
            "service.plane.resolves": self.resolves,
            "service.plane.sweeps": self.sweeps,
            "core.aggregate.group_s": total("core.aggregate.group"),
            "core.aggregate.reduce_s": total("core.aggregate.reduce"),
            "core.aggregate.expand_s": total("core.aggregate.expand"),
            "core.aggregate.classes": resp.n_classes,
            "core.aggregate.bytes_computed": _aggregate_bytes(
                d.n_clients, d.n_replicas, resp.n_classes),
            "core.lddm.solve_s": lddm_s,
            "core.lddm.iterations": resp.iterations,
            "core.lddm.iter_us": 1e6 * lddm_s / max(resp.iterations, 1),
            "core.kernels.columns_calls": _stat(S, "core.kernels.columns",
                                                "n"),
            "core.kernels.columns_s": total("core.kernels.columns"),
            "core.incremental.event_us": 1e6 * mean(
                tracer.durations("core.incremental.event")),
            "core.incremental.sweeps": self.sweeps,
            "core.incremental.fallbacks": self.resolves,
        }


# -- plane-scale -------------------------------------------------------------

class PlaneScale(Workload):
    """In-process control plane at 10^6 clients; no wire, no simulator."""

    name = "plane-scale"
    CLIENTS, REPLICAS, PATTERNS = 1_000_000, 8, 24
    SHARDS, EVENTS, NEW_PATTERNS = 2, 3_000, 16
    MIX, P_NEW = (0.50, 0.25, 0.25), 0.02   # of the rest: 49/24.5/24.5 %
    TIMED = ("solve_s", "sharded_solve_s", "stream_s")
    CHUNK = 50     # events per throughput sample

    def setup(self) -> None:
        n = _scaled(self.CLIENTS, self.scale, 200)
        patterns, self.new_rows = deployment(self.REPLICAS, self.PATTERNS,
                                             self.NEW_PATTERNS)
        # The population belongs to the deployment too: how many
        # Gauss-Seidel sweeps an event needs follows the converged
        # operating point (1.0-1.7 per event across seed-drawn
        # populations, a bimodal median), so the seed draws the churn only.
        self.problem = make_instance(
            np.random.default_rng([2013, n]), n, patterns)
        d = self.problem.data
        self.registry = reg = Registry(d)
        self.ref = None
        self.class_problem = reg.class_problem()
        self.tokens = list(reg.patterns)
        self.coord = A.ShardCoordinator(
            self.class_problem.data, self.tokens,
            A.ShardingConfig(n_shards=self.SHARDS), clients=reg.members)
        armed = self.coord.solve()
        self.ledger.record(armed.converged, "coordinator did not converge")
        self.events_rng = self.rng(1)
        self.kind_s: dict[str, list[float]] = {}
        self.sweeps = 0

    def _check_solution(self, what: str, sol) -> None:
        d = self.problem.data
        self.ledger.record(bool(sol.converged), f"{what} did not converge")
        check_allocation(self.ledger, what, sol.allocation, d.R, d.mask, d.B)

    def round(self, tracer) -> None:
        problem = self.problem
        sol = self.timed(
            tracer, "solve", "solve_s",
            lambda: A.solve(problem, "lddm", aggregate=True, max_iter=5000),
            "repro.solve")
        mono = None
        if sol is not None:
            self._check_solution("monolithic solve", sol)
            if self.ref is None:
                self.ref = _reference_objective(
                    self.class_problem,
                    self.registry.class_rows(sol.allocation))
            self.sample("solve_gap", check_gap(self.ledger, "solve",
                                               sol.objective, self.ref))
            self.mono = mono = (sol.objective, sol.iterations, sol.n_classes)
            self.repeat.setdefault("solve.iterations", []).append(
                sol.iterations)
        del sol
        sol = self.timed(
            tracer, "sharded", "sharded_solve_s",
            lambda: A.solve_sharded(problem, self.SHARDS, mode="process"),
            "solve_sharded")
        if sol is not None:
            self._check_solution("sharded solve", sol)
            if mono is not None:
                gap = abs(relative_gap(sol.objective, mono[0]))
                self.ledger.record(gap <= 1e-6,
                                   f"sharded vs monolithic: {gap:.3g}")
            self.sharded_rounds = sol.iterations
            self.repeat.setdefault("sharded.rounds", []).append(
                sol.iterations)
        del sol
        self._stream(tracer, _scaled(self.EVENTS, self.scale, 40))

    def _stream(self, tracer, n: int) -> None:
        events = self.registry.draw(self.events_rng, n, self.MIX,
                                    self.new_rows, self.P_NEW)
        core = [_core_event(e) for e in events]
        apply_event = self.coord.apply_event
        lat = []
        try:
            with tracer.op("events"):
                t_begin = now()
                for event in core:
                    t0 = now()
                    routed = apply_event(event)
                    lat.append(now() - t0)
                    self.sweeps += routed.sweeps
                wall = now() - t_begin
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self.ledger.record(False, f"apply_event: "
                                      f"{type(exc).__name__}: {exc}")
            return
        self.ledger.attempted += len(core)
        self.samples.setdefault("event_s", []).extend(lat)
        self.sample("stream_s", wall)
        for i in range(0, len(lat) - self.CHUNK + 1, self.CHUNK):
            self.sample("chunk_rate", self.CHUNK / sum(lat[i:i + self.CHUNK]))
        for (kind, *_), seconds in zip(events, lat):
            self.kind_s.setdefault(kind, []).append(seconds)

    def end_round(self) -> None:
        pass

    def finish(self) -> None:
        reg, coord = self.registry, self.coord
        residual = coord.residual()
        self.ledger.record(residual <= 1e-6,
                           f"post-churn residual {residual:.3g}")
        tokens = list(reg.patterns)
        rows = coord.rows_for(tokens)
        post = _reference_objective(reg.class_problem(), rows)
        self.post_objective = coord.objective()
        self.sample("post_gap", check_gap(self.ledger, "post-churn",
                                          self.post_objective, post))
        check_allocation(
            self.ledger, "post-churn class rows", rows,
            [reg.class_demand[t] for t in tokens],
            np.vstack([reg.patterns[t] for t in tokens]),
            reg.cost["capacities"])
        for key, values in self.repeat.items():
            check_equal(self.ledger, key, values)
        self.coord.close()

    def close(self) -> None:
        if getattr(self, "coord", None) is not None:
            self.coord.close()

    def e2e(self) -> dict:
        s = self.samples
        return {
            "solve_s": (median(s["solve_s"]), len(s["solve_s"])),
            "sharded_solve_s": (median(s["sharded_solve_s"]),
                                len(s["sharded_solve_s"])),
            "solve_gap": (max(s["solve_gap"] + s["post_gap"]),
                          len(s["solve_gap"]) + len(s["post_gap"])),
            "event_p50_ms": (1e3 * median(s["event_s"]), len(s["event_s"])),
            "event_p99_ms": (1e3 * percentile(s["event_s"], 99),
                             len(s["event_s"])),
            "events_per_s": (median(s["chunk_rate"]), len(s["chunk_rate"])),
        }

    def slots(self, e2e) -> dict:
        return {"pass_s": e2e["solve_s"][0] + e2e["sharded_solve_s"][0],
                "op_p50_ms": e2e["event_p50_ms"][0],
                # p95, not event_p99_ms: over ten runs of one seed p99 of
                # ~6000 events spread 0.09 of its median, p95 0.06, and
                # the host's slow phases add to both.
                "op_tail_ms": 1e3 * percentile(self.samples["event_s"], 95),
                "ops_per_s": e2e["events_per_s"][0],
                "cost_per_mb": self.post_objective
                / self.registry.total_demand()}

    # -- traced pass --------------------------------------------------------
    def probes(self, tracer) -> None:
        data, tokens = self.class_problem.data, self.tokens
        self.coordinator = {}
        for mode in ("serial", "process"):
            config = A.ShardingConfig(n_shards=self.SHARDS, mode=mode)
            with A.ShardCoordinator(data, tokens, config) as coord:
                with tracer.op("coordinator_" + mode):
                    result = coord.solve()
                pool = coord.worker_pool
                self.coordinator[mode] = {
                    "wall_s": result.wall_s, "rounds": result.rounds,
                    "residual": result.residual,
                    "static_bytes": pool.static_bytes if pool else 0,
                    "round_bytes": pool.round_bytes if pool else 0,
                    "reships": pool.reships if pool else 0}
        self.bare_event_us = 0.0
        self.soft("core.incremental", lambda: self._probe_bare(tracer))

    def _probe_bare(self, tracer) -> None:
        """The same kind of stream on a bare ``IncrementalState``: what an
        event costs without the coordinator's routing around it."""
        state_cls = A.layer("repro.core.incremental:IncrementalState")
        shadow = self.registry.fork()
        tokens = list(shadow.patterns)
        state = state_cls(shadow.class_problem().data, tokens,
                          self.coord.rows_for(tokens),
                          clients=shadow.members, drift_limit=10.0)
        events = shadow.draw(self.rng(3), _scaled(1000, self.scale, 40),
                             self.MIX)
        lat = []
        with tracer.op("bare_incremental"):
            for event in map(_core_event, events):
                t0 = now()
                state.apply_event(event)
                lat.append(now() - t0)
        self.bare_event_us = 1e6 * mean(lat)

    def per_layer(self, tracer) -> dict:
        S = tracer.summary()

        def under(name, op):
            return sum(tracer.durations(name, op))

        d = self.problem.data
        _objective, iterations, n_classes = self.mono
        lddm_s = under("core.lddm.solve", "solve")
        serial, process = (self.coordinator[m] for m in ("serial", "process"))
        kind_us = {k: 1e6 * mean(v) for k, v in self.kind_s.items()}
        states = [sh.state for sh in self.coord.shards]
        return {
            "core.aggregate.group_s": under("core.aggregate.group", "solve"),
            "core.aggregate.reduce_s": under("core.aggregate.reduce",
                                             "solve"),
            "core.aggregate.expand_s": under("core.aggregate.expand",
                                             "solve"),
            "core.aggregate.classes": n_classes,
            "core.aggregate.bytes_computed": _aggregate_bytes(
                d.n_clients, d.n_replicas, n_classes),
            "core.lddm.solve_s": lddm_s,
            "core.lddm.iterations": iterations,
            "core.lddm.iter_us": 1e6 * lddm_s / max(iterations, 1),
            "core.kernels.columns_calls": len(
                tracer.durations("core.kernels.columns", "solve")),
            "core.kernels.columns_s": under("core.kernels.columns", "solve"),
            "core.kernels.waterfill_calls": _stat(
                S, "core.kernels.waterfill", "n"),
            "core.kernels.waterfill_s": _stat(
                S, "core.kernels.waterfill", "total_s"),
            "edr.coordinator.solve_s": under("edr.coordinator.solve",
                                             "sharded"),
            "edr.coordinator.rounds": process["rounds"],
            "edr.coordinator.residual": process["residual"],
            "edr.coordinator.parallel_eff": serial["wall_s"]
            / (self.SHARDS * max(process["wall_s"], 1e-12)),
            "edr.coordinator.event_demand_us": kind_us.get("demand", 0.0),
            "edr.coordinator.event_arrival_us": kind_us.get("arrival", 0.0),
            "edr.coordinator.event_departure_us": kind_us.get("departure",
                                                              0.0),
            "edr.coordinator.event_newclass_us": kind_us.get("newclass",
                                                             0.0),
            "edr.coordinator.refreshes": self.coord.refreshes,
            "edr.coordinator.fallbacks": self.coord.fallbacks,
            "core.shard.round_s": mean(tracer.durations("core.shard.round")),
            "core.shard_workers.static_bytes": process["static_bytes"],
            "core.shard_workers.round_bytes": process["round_bytes"],
            "core.shard_workers.reships": process["reships"],
            "core.incremental.event_us": self.bare_event_us,
            "core.incremental.sweeps": self.sweeps,
            "core.incremental.fallbacks": sum(st.fallbacks for st in states),
            "core.incremental.kkt_residual": max(st.kkt_residual()
                                                 for st in states),
        }


# -- the two replays ---------------------------------------------------------

class Replay(Workload):
    """Shared by the replays: samples and metrics of ``EDRSystem`` runs."""

    TIMED = ("pass_s",)
    #: the replay whose simulated responses and cents/MB fill the
    #: driver-facing answer slots
    SLOT_RUN = ""

    def _account(self, label: str, trace, result, system, wall: float,
                 lddm: bool) -> None:
        n = len(trace)
        delivered = len(result.response_times)
        self.ledger.attempted += n
        if delivered != n:
            self.ledger.failed += n - delivered
            self.ledger.failures.append(
                f"{label}: {delivered} of {n} requests delivered")
        total_mb = trace.total_mb()
        mb_err = abs(result.extras["delivered_mb"] - total_mb) / total_mb
        self.ledger.record(mb_err <= 1e-6,
                           f"{label}: delivered MB off by {mb_err:.3g}")
        self.round_requests += n
        self.round_wall += wall
        self.round_cents[label] = result.total_cents
        self.runs.append((label, result, system))
        if lddm:
            self.lddm_responses.extend(result.response_times)
        if label == self.SLOT_RUN:
            self.slot_responses = list(result.response_times)
            self.slot_cost_per_mb = result.total_cents / total_mb

    def _begin_round(self) -> None:
        self.round_requests, self.round_wall = 0, 0.0
        self.round_cents: dict[str, float] = {}
        self.runs = []
        self.lddm_responses: list[float] = []

    def _end_round_metrics(self, lddm_labels) -> None:
        self.sample("requests_per_s", self.round_requests / self.round_wall)
        self.sample("pass_s", self.round_wall)
        self.cost_cents = sum(self.round_cents[k] for k in lddm_labels)
        self.response_ms = 1e3 * mean(self.lddm_responses)
        for key, value in (("cost_cents", self.cost_cents),
                           ("response_ms", self.response_ms)):
            self.repeat.setdefault(key, []).append(value)
        for key, value in self._counts().items():
            self.repeat.setdefault(key, []).append(value)

    def _counts(self) -> dict:
        """Exact per-layer counts of the round, summed over its runs."""
        extras = [result.extras for _l, result, _s in self.runs]

        def total(key):
            return sum(e[key] for e in extras)

        requests = self.round_requests
        warm, cold = total("warm_solves"), total("cold_solves")
        settled = total("flows_settled")
        return {
            "edr.system.batches": total("batches"),
            "edr.system.solve_iterations": total("solve_iterations"),
            "edr.system.warm_ratio": warm / max(warm + cold, 1),
            "edr.system.incremental_events": total("incremental_events"),
            "edr.system.incremental_fallbacks":
                total("incremental_fallbacks"),
            "edr.scheduler.sim_solve_s": total("solve_time"),
            "net.transport.messages": total("messages"),
            "net.transport.comm_mb": total("comm_mb"),
            "net.transport.msgs_per_request": total("messages") / requests,
            "net.flows.recomputes": total("flow_recomputes"),
            "net.flows.recomputes_per_request":
                total("flow_recomputes") / requests,
            "net.flows.parts_settled": settled,
            "net.flows.parts_coalesced": total("flows_coalesced"),
            "net.flows.coalesce_ratio":
                total("flows_coalesced") / max(settled, 1),
        }

    def end_round(self) -> None:
        pass

    def finish(self) -> None:
        for key, values in self.repeat.items():
            check_equal(self.ledger, key, values)

    def e2e(self) -> dict:
        s = self.samples
        n = len(s["requests_per_s"])
        return {"requests_per_s": (median(s["requests_per_s"]), n),
                "cost_cents": (self.cost_cents, n),
                "response_ms": (self.response_ms, len(self.lddm_responses))}

    def slots(self, e2e) -> dict:
        return {"pass_s": median(self.samples["pass_s"]),
                "op_p50_ms": 1e3 * median(self.slot_responses),
                "op_tail_ms": 1e3 * percentile(self.slot_responses, 95),
                "ops_per_s": e2e["requests_per_s"][0],
                "cost_per_mb": self.slot_cost_per_mb}

    # -- traced pass --------------------------------------------------------
    def probes(self, tracer) -> None:
        """Micro-probes of the data-plane layers, on bare objects."""
        self.fair_call_us = self.sim_event_us = self.part_us = 0.0
        self.sim_events = 0
        self.soft("net.fairshare", self._probe_fairshare)
        self.soft("sim.engine", self._probe_simulator)
        self.soft("net.flows", lambda: self._probe_flows(tracer))

    def _probe_fairshare(self) -> None:
        """``fair_share_rates`` at 200 and 2 000 flows over 24 x 8
        endpoints."""
        fair = A.layer("repro.net.fairshare:fair_share_rates")
        rng = self.rng(9)
        caps = np.full(32, 100.0)
        per_call = []
        for flows in (200, 2000):
            src = rng.integers(0, 8, flows)
            dst = rng.integers(8, 32, flows)
            w = rng.integers(1, 6, flows).astype(float)
            reps = 20
            t0 = now()
            for _ in range(reps):
                fair(src, dst, w, caps)
            per_call.append((now() - t0) / reps)
        self.fair_call_us = 1e6 * mean(per_call)

    def _probe_simulator(self) -> None:
        """Null ``call_at`` callbacks through a bare ``Simulator``."""
        self.sim_events = sum(A.sim_events(system)
                              for _l, _r, system in self.runs)
        sim = A.layer("repro.sim.engine:Simulator")()
        count = _scaled(100_000, self.scale, 1000)
        t0 = now()
        for i in range(count):
            sim.call_at(i * 1e-6, _noop)
        sim.run()
        self.sim_event_us = 1e6 * (now() - t0) / count

    def _probe_flows(self, tracer) -> None:
        """Replay the ASSIGN batches recorded in the traced round on a
        bare ``Simulator`` + ``FlowManager``."""
        recorded = tracer.captured.get("net.flows.aggregate", [])
        if not recorded:
            return
        sim = A.layer("repro.sim.engine:Simulator")()
        flows = A.layer("repro.net.flows:FlowManager")(
            sim, recorded[0][0].topology)
        parts = 0
        t0 = now()
        for _self, src, dst, batch in recorded:
            flows.transfer_aggregate(src, dst, batch)
            parts += len(batch)
        sim.run()
        self.part_us = 1e6 * (now() - t0) / parts

    def per_layer(self, tracer) -> dict:
        S = tracer.summary()
        out = dict(self._counts())
        out.update({
            "core.lddm.iterations": out["edr.system.solve_iterations"],
            "core.kernels.columns_calls": _stat(S, "core.kernels.columns",
                                                "n"),
            "core.kernels.columns_s": _stat(S, "core.kernels.columns",
                                            "total_s"),
            "core.incremental.event_us": 1e6 * mean(
                tracer.durations("core.incremental.retarget")),
            "net.flows.part_us": self.part_us,
            "net.fairshare.calls": _stat(S, "net.fairshare.rates", "n"),
            "net.fairshare.busy_s": _stat(S, "net.fairshare.rates",
                                          "total_s"),
            "net.fairshare.call_us": self.fair_call_us,
            "sim.engine.events": self.sim_events,
            "sim.engine.event_us": self.sim_event_us,
            "sim.engine.self_s": _stat(S, "sim.engine.run", "self_s"),
        })
        return out


def _noop() -> None:
    pass


class PaperReplay(Replay):
    """The paper's own scale: DFS and video traces under three schedulers."""

    name = "paper-replay"
    ALGORITHMS = ("lddm", "cdpsm", "round_robin")
    # The 24-request video trace moves 2x in cost with the seed (and LDDM
    # loses to round-robin on some draws); the 240-request DFS trace moves
    # 9 %, so it alone fills the slots a bound is put on.
    SLOT_RUN = "dfs/lddm"

    def setup(self) -> None:
        scenarios = (A.PAPER_DFS, A.PAPER_VIDEO)
        if self.scale != 1.0:
            scenarios = tuple(s.scaled(max(self.scale, 0.1))
                              for s in scenarios)
        self.scenarios = scenarios
        self.traces = {s.name: A.make_trace(s, seed=self.seed)
                       for s in scenarios}

    def round(self, tracer) -> None:
        self._begin_round()
        for scenario in self.scenarios:
            for algorithm in self.ALGORITHMS:
                label = f"{scenario.app.name}/{algorithm}"
                t0 = now()
                try:
                    with tracer.op(label):
                        result, system = A.run_runtime(
                            scenario, algorithm, seed=self.seed,
                            keep_system=True)
                except Exception as exc:  # noqa: BLE001 - counted
                    self.ledger.record(False, f"{label}: "
                                       f"{type(exc).__name__}: {exc}")
                    continue
                self._account(label, self.traces[scenario.name], result,
                              system, now() - t0, algorithm == "lddm")
        names = [s.app.name for s in self.scenarios]
        self._end_round_metrics([f"{n}/lddm" for n in names])
        baseline = sum(self.round_cents[f"{n}/round_robin"] for n in names)
        self.saving_pct = 100.0 * (1.0 - self.cost_cents / baseline)
        self.repeat.setdefault("saving_pct", []).append(self.saving_pct)

    def e2e(self) -> dict:
        out = super().e2e()
        out["saving_pct"] = (self.saving_pct,
                             len(self.samples["requests_per_s"]))
        return out


class TrafficReplay(Replay):
    """5 000 one-megabyte requests through the incremental control plane,
    coalesced flows and the vector fair-share kernel."""

    name = "traffic-replay"
    REQUESTS = 5_000
    SLOT_RUN = "traffic/lddm"

    def setup(self) -> None:
        scenario = A.traffic_scenario(_scaled(self.REQUESTS, self.scale, 100))
        self.app = scenario.app.name
        self.trace = A.make_trace(scenario, seed=self.seed)
        config = A.RuntimeConfig(
            solver=A.SolverOptions(incremental=True,
                                   incremental_max_clients=64),
            net=A.NetConfig(coalesce=True, flow_kernel="vector"),
            poll_interval=0.25)
        self.system = A.EDRSystem(self.trace, config)

    def round(self, tracer) -> None:
        self._begin_round()
        t0 = now()
        try:
            with tracer.op("replay"):
                result = self.system.run(app=self.app)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self.ledger.record(False,
                               f"replay: {type(exc).__name__}: {exc}")
            return
        self._account("traffic/lddm", self.trace, result, self.system,
                      now() - t0, True)
        self._end_round_metrics(["traffic/lddm"])


WORKLOAD_CLASSES = {w.name: w for w in (SvcChurn, PlaneScale, PaperReplay,
                                        TrafficReplay)}

#: Rounds a run makes when neither --seconds nor --reps is given.
DEFAULT_REPS = {"svc-churn": 10, "plane-scale": 3, "paper-replay": 7,
                "traffic-replay": 5}

#: Whether ``setup`` runs before every round (fresh server / system) or
#: once per run (the 10^6-client registry takes seconds to build).
SETUP_EVERY_ROUND = {"svc-churn": True, "plane-scale": False,
                     "paper-replay": True, "traffic-replay": True}

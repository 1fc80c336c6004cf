"""End-to-end instrumentation: solvers, runtime, membership, transport.

These tests pin the reconciliation guarantees the tracing subsystem
advertises: per-iteration event counts match reported iteration counts,
runtime counters match the `ExperimentResult.extras` bookkeeping that
predates the recorder, and transport counters match the network's own
statistics.
"""

import pytest

import numpy as np

from repro.core import ProblemData, ReplicaSelectionProblem, solve
from repro.core.aggregate import solve_aggregated
from repro.edr.coordinator import solve_sharded
from repro.edr.membership import MembershipRing
from repro.edr.system import EDRSystem, RuntimeConfig, SolverOptions
from repro.obs import TraceRecorder, iter_records, validate_record

from tests.edr.conftest import burst_trace


@pytest.fixture
def small_problem() -> ReplicaSelectionProblem:
    data = ProblemData.paper_defaults(
        demands=[30.0, 50.0, 20.0], prices=[2.0, 10.0, 4.0])
    return ReplicaSelectionProblem(data)


class TestSolverInstrumentation:
    @pytest.mark.parametrize("algorithm", ["lddm", "cdpsm"])
    def test_iteration_events_match_iteration_count(self, algorithm,
                                                    small_problem):
        rec = TraceRecorder()
        sol = solve(small_problem, algorithm, recorder=rec, max_iter=40)
        iters = rec.events_named(f"{algorithm}.iteration")
        assert len(iters) == sol.iterations
        assert [e["k"] for e in iters] == list(range(sol.iterations))

    def test_solver_solve_event_fields(self, small_problem):
        rec = TraceRecorder()
        sol = solve(small_problem, "lddm", recorder=rec, max_iter=40)
        (done,) = rec.events_named("solver.solve")
        assert done["method"] == "lddm"
        assert done["iterations"] == sol.iterations
        assert done["objective"] == pytest.approx(sol.objective)
        assert done["solve_time_s"] == pytest.approx(sol.solve_time_s)
        assert done["warm_started"] is False

    def test_objective_samples_when_tracked(self, small_problem):
        rec = TraceRecorder()
        sol = solve(small_problem, "lddm", recorder=rec, max_iter=30,
                    track_objective=True)
        samples = [r for r in rec.records if r["kind"] == "sample"
                   and r["name"] == "solver.objective"]
        assert len(samples) == sol.iterations
        assert samples[-1]["value"] == pytest.approx(
            sol.objective_history[-1])

    def test_reference_solve_event(self, small_problem):
        rec = TraceRecorder()
        sol = solve(small_problem, "reference", recorder=rec)
        (done,) = rec.events_named("solver.solve")
        assert done["method"] == "reference"
        assert done["objective"] == pytest.approx(sol.objective)


class TestAggregatedSolveSpans:
    """Group / reduce / solve / expand are the four layers of an
    aggregated solve; each is timed by exactly one span."""

    STAGES = ["aggregate.group", "aggregate.reduce", "aggregate.solve",
              "aggregate.expand"]

    @pytest.fixture
    def class_problem(self) -> ReplicaSelectionProblem:
        mask = np.array([[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 0]],
                        dtype=bool)[np.arange(30) % 3]
        data = ProblemData.paper_defaults(
            demands=np.linspace(2.0, 8.0, 30), prices=[2.0, 10.0, 4.0, 1.0],
            mask=mask)
        return ReplicaSelectionProblem(data)

    @pytest.mark.parametrize("run", [
        lambda p, rec: solve_aggregated(p, "lddm", recorder=rec),
        lambda p, rec: solve(p, "cdpsm", aggregate=True, recorder=rec,
                             max_iter=30),
        lambda p, rec: solve_sharded(p, 2, recorder=rec),
        lambda p, rec: solve_sharded(p, 1, recorder=rec),
    ], ids=["solve_aggregated", "solve-cdpsm", "sharded", "one-shard"])
    def test_four_stage_spans_once_each_in_order(self, run, class_problem):
        rec = TraceRecorder()
        sol = run(class_problem, rec)
        spans = [r for r in rec.records if r["kind"] == "span"]
        assert [r["name"] for r in spans] == self.STAGES
        assert all(r["duration"] >= 0.0 for r in spans)
        assert sum(r["duration"] for r in spans) <= sol.solve_time_s
        for record in iter_records(rec):
            validate_record(record)

    def test_untraced_solve_is_unchanged(self, class_problem):
        traced = solve_aggregated(class_problem, recorder=TraceRecorder())
        plain = solve_aggregated(class_problem)
        assert np.array_equal(traced.allocation, plain.allocation)


class TestRuntimeInstrumentation:
    @pytest.fixture(scope="class")
    def traced_run(self):
        rec = TraceRecorder()
        trace = burst_trace(count=16, n_clients=8)
        res = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"),
            recorder=rec)).run(app="test")
        return rec, res

    def test_batch_events_match_extras(self, traced_run):
        rec, res = traced_run
        batches = rec.events_named("runtime.batch")
        assert len(batches) == res.extras["batches"]
        assert rec.counter_total("runtime.batches") == res.extras["batches"]
        assert sum(b["iterations"] for b in batches) \
            == res.extras["solve_iterations"]
        assert sum(b["solve_sim_s"] for b in batches) \
            == pytest.approx(res.extras["solve_time"])

    def test_warm_start_counters_match_extras(self, traced_run):
        rec, res = traced_run
        assert rec.counter_total("warmstart.hit") \
            == res.extras["warm_solves"]
        assert rec.counter_total("warmstart.miss") \
            == res.extras["cold_solves"]

    def test_session_events_match_solver_iterations(self, traced_run):
        rec, res = traced_run
        sessions = rec.events_named("session.solve")
        assert len(sessions) == res.extras["batches"]
        assert sum(s["iterations"] for s in sessions) \
            == res.extras["solve_iterations"]

    def test_network_counters_match_transport_stats(self, traced_run):
        rec, res = traced_run
        assert rec.counter_total("net.messages") == res.extras["messages"]
        assert rec.counter_total("net.mb") \
            == pytest.approx(res.extras["comm_mb"])

    def test_session_message_totals_reconcile_by_kind(self, traced_run):
        # The session's precomputed plan and the transport's per-kind
        # counters must agree on solver-coordination traffic.
        rec, _res = traced_run
        series = rec.counter_series("net.messages")
        solver_msgs = sum(
            v for labels, v in series.items()
            if dict(labels)["kind"] in ("SOLUTION", "MU_UPDATE"))
        sessions = rec.events_named("session.solve")
        assert solver_msgs == sum(s["messages"] for s in sessions)

    def test_flow_counters_match_extras(self, traced_run):
        rec, res = traced_run
        assert rec.counter_total("net.fair_recompute") \
            == res.extras["flow_recomputes"]
        assert rec.counter_total("net.flows_settled") \
            == res.extras["flows_settled"]
        assert rec.counter_total("net.flows_coalesced") \
            == res.extras["flows_coalesced"]

    def test_traffic_events_reconcile_with_flow_counters(self, traced_run):
        # Every coalesced download batch announces itself; with no
        # crashes every announced part settles, and the aggregation
        # saving (parts minus flows) is exactly the coalesce counter.
        rec, res = traced_run
        traffic = rec.events_named("runtime.traffic")
        assert traffic
        assert sum(e["n_requests"] for e in traffic) \
            == len(res.response_times) + res.extras["retries"]
        assert sum(e["n_parts"] for e in traffic) \
            == rec.counter_total("net.flows_settled")
        assert sum(e["n_parts"] - e["n_flows"] for e in traffic) \
            == rec.counter_total("net.flows_coalesced")
        assert sum(e["mb"] for e in traffic) \
            == pytest.approx(res.extras["delivered_mb"])

    def test_per_iteration_events_present(self, traced_run):
        rec, res = traced_run
        iters = rec.events_named("lddm.iteration")
        assert len(iters) == res.extras["solve_iterations"]

    def test_every_captured_record_validates(self, traced_run):
        rec, _res = traced_run
        for record in iter_records(rec):
            validate_record(record)

    def test_default_run_records_nothing(self):
        trace = burst_trace(count=8, n_clients=4)
        system = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm")))
        system.run(app="test")
        assert system.recorder.enabled is False


class TestMembershipInstrumentation:
    def test_transitions_recorded(self):
        rec = TraceRecorder()
        ring = MembershipRing(["a", "b", "c"], recorder=rec)
        ring.mark_dead("b")
        ring.mark_dead("b")  # idempotent: no second event
        ring.mark_alive("b")
        events = rec.events_named("membership")
        assert [(e["change"], e["member"]) for e in events] \
            == [("dead", "b"), ("alive", "b")]

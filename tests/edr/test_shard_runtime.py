"""Runtime integration of the sharded event plane.

``SolverOptions.sharding`` lays out the runtime's one event plane — a
:class:`~repro.edr.coordinator.ShardCoordinator` armed from every batch
solve — over several shards.  These tests pin that the plane fires,
delivers the same work as the monolithic runtime at comparable energy,
survives a mid-run replica crash (re-armed on the shrunken live set),
answers independently of the shard count where classes do not
interact, reports why it declines, and records the obs taxonomy.
"""

import pytest

from repro.edr.coordinator import ShardingConfig
from repro.edr.system import EDRSystem, RuntimeConfig, SolverOptions
from repro.errors import ValidationError
from repro.experiments import make_trace
from repro.experiments.fig6_fig7 import traffic_scenario
from repro.obs import TraceRecorder
from repro.obs.events import validate_record

from tests.edr.conftest import burst_trace


def _run(trace, n_shards=2, recorder=None):
    cfg = RuntimeConfig(
        solver=SolverOptions(algorithm="lddm",
                             sharding=ShardingConfig(n_shards=n_shards)),
        recorder=recorder)
    system = EDRSystem(trace, cfg)
    return system, system.run(app="dfs")


class TestConfigValidation:
    def test_sharding_requires_aggregate(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(
                solver=SolverOptions(
                    sharding=ShardingConfig(), aggregate=False))

    def test_sharding_requires_lddm(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(
                solver=SolverOptions(
                    sharding=ShardingConfig(), algorithm="cdpsm"))


class TestShardedRuntime:
    def test_sharded_path_fires_and_delivers(self):
        trace = burst_trace(count=30, n_clients=12, rate=10.0, seed=3)
        _, res = _run(trace)
        assert res.extras["incremental_chunks"] >= 1
        assert res.extras["incremental_events"] >= 1
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-6)

    def test_parity_with_monolithic_runtime(self):
        trace = burst_trace(count=30, n_clients=12, rate=10.0, seed=4)
        _, sharded = _run(trace)
        mono_trace = burst_trace(count=30, n_clients=12, rate=10.0, seed=4)
        mono_sys = EDRSystem(mono_trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm")))
        mono = mono_sys.run(app="dfs")
        assert sharded.extras["delivered_mb"] == pytest.approx(
            mono.extras["delivered_mb"], rel=1e-6)
        # Same optimum, so comparable energy cost.
        assert sharded.total_cents <= mono.total_cents * 1.05

    def test_crash_rebuilds_the_plane(self):
        trace = burst_trace(count=20, n_clients=10, rate=4.0, seed=5)
        cfg = RuntimeConfig(
            solver=SolverOptions(
                algorithm="lddm", sharding=ShardingConfig(n_shards=2)))
        system = EDRSystem(trace, cfg)
        system.crash_replica("replica2", at=1.5)
        res = system.run(app="dfs")
        assert "replica2" not in system.ring.live
        # Chunks solved on both sides of the crash; everything lands.
        assert res.extras["cold_solves"] + res.extras["warm_solves"] >= 2
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-6)

    def test_obs_taxonomy_recorded_and_valid(self):
        rec = TraceRecorder()
        trace = burst_trace(count=24, n_clients=10, rate=10.0, seed=7)
        _, res = _run(trace, recorder=rec)
        names = {r.get("name") for r in rec.records}
        # The plane is armed from the paper's session, not built by
        # exchange rounds: one plane event per absorbed chunk.
        assert "runtime.incremental" in names
        assert "session.solve" in names
        assert "runtime.shard" not in names
        for record in rec.records:
            validate_record(record)

    def test_extras_counters_present(self):
        trace = burst_trace(count=24, n_clients=10, rate=10.0, seed=8)
        _, res = _run(trace)
        for key in ("incremental_chunks", "incremental_events",
                    "incremental_fallbacks", "incremental_fallback_reasons",
                    "shard_rounds", "shard_migrations"):
            assert key in res.extras
        # The cold build of the plane is one session.
        assert res.extras["cold_solves"] + res.extras["warm_solves"] >= 1
        assert res.extras["incremental_chunks"] >= 1

    def test_drift_declines_are_counted_by_reason(self):
        trace = burst_trace(count=24, n_clients=10, rate=10.0, seed=8)
        cfg = RuntimeConfig(solver=SolverOptions(
            algorithm="lddm",
            sharding=ShardingConfig(n_shards=1, drift_limit=1e-9)))
        res = EDRSystem(trace, cfg).run(app="dfs")
        fallbacks = res.extras["incremental_fallbacks"]
        assert fallbacks >= 1
        assert res.extras["incremental_fallback_reasons"] == \
            {"drift": fallbacks}
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-6)


def _traffic_run(**solver_kwargs):
    trace = make_trace(traffic_scenario(300), seed=2013)
    cfg = RuntimeConfig(
        solver=SolverOptions(incremental_max_clients=64, **solver_kwargs),
        poll_interval=0.25)
    return EDRSystem(trace, cfg).run(app="traffic")


def test_shard_count_does_not_change_the_answer_without_interaction():
    # Every traffic_scenario chunk has one eligibility class, so shards
    # never interact: the 2-shard plane answers bit for bit like the
    # one-shard plane (its second shard stays empty).
    one = _traffic_run(incremental=True)
    two = _traffic_run(sharding=ShardingConfig(n_shards=2))
    assert one.extras["incremental_chunks"] >= 1
    assert two.total_cents == one.total_cents
    assert two.response_times == one.response_times

"""Runtime integration of the sharded dual-price control plane.

``RuntimeConfig.sharding`` routes scheduling chunks through a
:class:`~repro.edr.coordinator.ShardCoordinator` instead of batch
solves — these tests pin that the path fires, delivers the same work as
the monolithic runtime at comparable energy, survives a mid-run replica
crash (plane rebuild on the shrunken live set), sizes the shard-local
warm caches from the global budget, and records the obs taxonomy.
"""

import pytest

from repro.edr.coordinator import ShardingConfig
from repro.edr.system import EDRSystem, RuntimeConfig, SolverOptions
from repro.errors import ValidationError
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

    def test_warm_cache_entries_positive(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(solver=SolverOptions(warm_cache_entries=0))


class TestShardedRuntime:
    def test_sharded_path_fires_and_delivers(self):
        trace = burst_trace(count=30, n_clients=12, rate=10.0, seed=3)
        _, res = _run(trace)
        assert res.extras["shard_chunks"] >= 1
        assert res.extras["shard_events"] >= 1
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
        assert res.extras["shard_chunks"] >= 2
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-6)

    def test_shard_cache_sizing_follows_global_budget(self):
        trace = burst_trace(count=8, n_clients=4, rate=10.0, seed=6)
        cfg = RuntimeConfig(
            solver=SolverOptions(
                algorithm="lddm", warm_cache_entries=8,
                sharding=ShardingConfig(n_shards=4)))
        system = EDRSystem(trace, cfg)
        assert len(system._shard_caches) == 4
        for cache in system._shard_caches:
            assert cache.max_entries == 2
        # An explicit per-shard override wins over the derived share.
        cfg = RuntimeConfig(
            solver=SolverOptions(
                algorithm="lddm", warm_cache_entries=8,
                sharding=ShardingConfig(n_shards=4, warm_cache_entries=5)))
        system = EDRSystem(trace, cfg)
        for cache in system._shard_caches:
            assert cache.max_entries == 5

    def test_obs_taxonomy_recorded_and_valid(self):
        rec = TraceRecorder()
        trace = burst_trace(count=24, n_clients=10, rate=10.0, seed=7)
        _, res = _run(trace, recorder=rec)
        names = {r.get("name") for r in rec.records}
        assert "runtime.shard" in names
        assert "coordinator.solve" in names
        assert "shard.solve" in names
        for record in rec.records:
            validate_record(record)

    def test_extras_counters_present(self):
        trace = burst_trace(count=24, n_clients=10, rate=10.0, seed=8)
        _, res = _run(trace)
        for key in ("shard_chunks", "shard_events", "shard_rounds",
                    "shard_refreshes", "shard_fallbacks"):
            assert key in res.extras
        # The cold build of the plane runs exchange rounds at least once.
        assert res.extras["shard_rounds"] >= 1

"""Worker-fleet lifecycle and online re-partitioning edge cases.

The elasticity contract: a migration moves a class *with* its
allocation, so loads and residual are untouched no matter how extreme
the class (even one holding essentially all demand); migrations are
safe mid-churn and deterministic across execution modes; the advisory
shard-count tuner is monotone in the work it models; and the
coordinator's executor lifecycle survives close/reuse without leaking
or changing results.
"""

import numpy as np
import pytest

from repro.core.aggregate import aggregate_problem
from repro.core.incremental import ClientArrival, DemandChange
from repro.edr.coordinator import (
    ShardCoordinator,
    ShardingConfig,
    tune_shard_count,
)
from repro.errors import ValidationError
from repro.experiments import fig9
from repro.util.cpus import available_cpus, resolve_workers


def _make_coord(n_clients=400, n_shards=3, seed=2013, **cfg_kwargs):
    problem = fig9.scaling_problem(n_clients, seed=seed)
    agg = aggregate_problem(problem)
    coord = ShardCoordinator(
        agg.problem.data, list(agg.structure.keys),
        ShardingConfig(n_shards=n_shards, **cfg_kwargs))
    return agg, coord


def install_target(coord, tokens, masks, demands):
    """Force-install a class-demand target without re-solving.

    Every shard force-targets its slice of the (known-class) target,
    keeping its warm rows, and marks a demand-only change.  The plane is
    left *out of tolerance* on purpose — callers run ``coord.solve()``.
    """
    masks = np.asarray(masks, dtype=bool)
    demands = np.asarray(demands, dtype=float)
    for s, sh in enumerate(coord.shards):
        own = [i for i, t in enumerate(tokens) if coord._token_shard[t] == s]
        sh.state.force_target([tokens[i] for i in own], masks[own],
                              demands[own])
        sh.touch_demands()


class TestMigration:
    def test_all_demand_class_migrates_cleanly(self):
        # One class holds ~all the demand; moving it must not change
        # the aggregate loads, the residual, or any allocation row.
        agg, coord = _make_coord(rebalance_skew=None)
        coord.solve()
        tokens = list(agg.structure.keys)
        st_demands = [float(coord.shards[coord._token_shard[t]].state.D[
            coord.shards[coord._token_shard[t]].state.tokens.index(t)])
            for t in tokens]
        fat = tokens[int(np.argmax(st_demands))]
        src = coord._token_shard[fat]
        dest = (src + 1) % coord.n_shards
        rows0 = coord.rows_for(tokens)
        resid0 = coord.residual()
        coord.migrate_class(fat, dest)
        assert coord._token_shard[fat] == dest
        assert coord.migrations == 1
        assert np.array_equal(coord.rows_for(tokens), rows0)
        assert coord.residual() == pytest.approx(resid0, abs=1e-15)
        # The emptied/loaded shards still converge together afterwards.
        res = coord.solve()
        assert res.converged
        coord.close()

    def test_migration_conserves_under_extreme_skew(self):
        # A shard left with zero demand after the move is legal: the
        # residual never spikes and exchange rounds still run.
        agg, coord = _make_coord(n_shards=2, rebalance_skew=None)
        coord.solve()
        tokens = list(agg.structure.keys)
        shard0 = [t for t in tokens if coord._token_shard[t] == 0]
        rows0 = coord.rows_for(tokens)
        for t in shard0:
            coord.migrate_class(t, 1)
        assert coord.shards[0].state.n_classes == 0
        assert np.array_equal(coord.rows_for(tokens), rows0)
        assert coord.solve().converged
        coord.close()

    def test_mid_churn_migration_bit_identity(self):
        # Identical event stream + identical mid-stream migration in
        # serial and process mode: the final allocation must match
        # bit-for-bit (migration decisions use no wall-clock).
        def stream(mode):
            agg, coord = _make_coord(mode=mode, rebalance_skew=None)
            coord.solve()
            tokens = list(agg.structure.keys)
            elig = np.asarray(agg.structure.masks[0], dtype=bool)
            with coord:
                for i in range(4):
                    coord.apply_event(ClientArrival(f"n{i}", 3.0 + i,
                                                    elig.copy()))
                coord.migrate_class(tokens[0],
                                    (coord._token_shard[tokens[0]] + 1)
                                    % coord.n_shards)
                for i in range(4):
                    coord.apply_event(DemandChange(f"n{i}", 4.0 + i))
                rows = coord.rows_for(tokens)
                return rows, coord.migrations

        rows_s, mig_s = stream("serial")
        rows_p, mig_p = stream("process")
        assert mig_s == mig_p == 1
        assert np.array_equal(rows_s, rows_p)

    def test_mode_bit_identity_after_rebalance(self):
        # Auto-rebalance (not a manual migrate) fires during a skewed
        # stream; both modes must migrate the same classes and land on
        # identical bits.
        result = fig9.run_elastic_skew(n_clients=4_000, n_events=30)
        assert result.migrations >= 1
        assert result.resizes == 0
        assert result.modes_identical

    def test_migrate_validation(self):
        agg, coord = _make_coord()
        with pytest.raises(ValidationError):
            coord.migrate_class(b"no-such-token", 0)
        token = list(agg.structure.keys)[0]
        with pytest.raises(ValidationError):
            coord.migrate_class(token, 99)
        coord.close()


class TestTuner:
    def test_suggestion_monotone_in_class_count(self):
        # More rows to spread -> never fewer shards suggested.
        suggestions = [tune_shard_count(k, row_cost_s=1e-3,
                                        dispatch_cost_s=5e-3,
                                        max_shards=8)
                       for k in (1, 4, 16, 64, 256, 1024)]
        assert suggestions == sorted(suggestions)
        assert suggestions[0] == 1

    def test_suggestion_monotone_in_dispatch_cost(self):
        # Costlier dispatch -> never more shards suggested.
        suggestions = [tune_shard_count(64, row_cost_s=1e-3,
                                        dispatch_cost_s=c, max_shards=8)
                       for c in (0.0, 1e-4, 1e-3, 1e-2, 1e-1)]
        assert suggestions == sorted(suggestions, reverse=True)
        assert suggestions[0] == 8      # free dispatch: spread fully
        assert suggestions[-1] == 1     # dominant dispatch: stay serial

    def test_auto_tune_advisory_only_without_samples(self):
        # With no round-time samples the tuner must keep the current
        # shard count rather than guess.
        agg, coord = _make_coord()
        assert coord.suggest_n_shards() == coord.n_shards
        assert coord.auto_tune() == coord.n_shards
        assert coord.resizes == 0
        coord.close()


class TestLifecycle:
    def test_close_is_idempotent_and_reusable(self):
        agg, coord = _make_coord(mode="process", max_workers=2)
        tokens = list(agg.structure.keys)
        coord.solve()
        rows0 = coord.rows_for(tokens)
        pool0 = coord.worker_pool
        assert pool0 is not None
        coord.close()
        coord.close()   # idempotent
        assert coord.worker_pool is None
        # The coordinator stays usable: a later solve re-creates the
        # pool lazily and reproduces the same bits.
        install_target(coord, tokens, agg.structure.masks,
                        agg.structure.demands)
        assert coord.solve().converged
        assert np.array_equal(coord.rows_for(tokens), rows0)
        assert coord.worker_pool is not None
        coord.close()

    def test_context_manager_closes_pool(self):
        agg, coord = _make_coord(mode="process", max_workers=2)
        with coord:
            coord.solve()
            assert coord.worker_pool is not None
        assert coord.worker_pool is None

    def test_no_pool_churn_across_solves(self):
        # One executor for the coordinator's lifetime: consecutive
        # solves must reuse the same pool object.
        agg, coord = _make_coord(mode="process", max_workers=2)
        tokens = list(agg.structure.keys)
        with coord:
            coord.solve()
            pool = coord.worker_pool
            for scale in (1.02, 0.97):
                install_target(coord, tokens, agg.structure.masks,
                                agg.structure.demands * scale)
                coord.solve()
                assert coord.worker_pool is pool

    def test_demand_only_retarget_ships_no_geometry(self):
        # install_target touches only demands: the fleet must not
        # re-ship a single static payload across the retargets.
        agg, coord = _make_coord(mode="process", max_workers=2)
        tokens = list(agg.structure.keys)
        with coord:
            coord.solve()
            pool = coord.worker_pool
            static0 = pool.static_bytes
            bytes_per_round = set()
            for scale in (1.05, 0.95, 1.01):
                install_target(coord, tokens, agg.structure.masks,
                                agg.structure.demands * scale)
                b0, r0 = pool.round_bytes, pool.rounds_shipped
                coord.solve()
                bytes_per_round.add((pool.round_bytes - b0)
                                    / (pool.rounds_shipped - r0))
            assert pool.reships == 0
            assert pool.static_bytes == static0
            # Delta-only rounds: every round ships the same task bytes,
            # however many rounds each solve needed.
            assert len(bytes_per_round) == 1


class TestWorkerSizing:
    def test_resolve_workers_caps(self):
        assert resolve_workers(8, 2) == 2
        assert resolve_workers(2, 8) == 2
        assert resolve_workers(8, None) == min(8, available_cpus())
        assert resolve_workers(0, None) == 1

    def test_max_workers_validation(self):
        with pytest.raises(ValidationError):
            ShardingConfig(max_workers=0)
        with pytest.raises(ValidationError):
            ShardingConfig(rebalance_skew=1.0)
        with pytest.raises(ValidationError):
            ShardingConfig(rebalance_max_moves=0)

    def test_pool_respects_max_workers(self):
        agg, coord = _make_coord(n_shards=3, mode="process",
                                 max_workers=1)
        with coord:
            coord.solve()
            assert coord.worker_pool.workers == 1


class TestPayloadCaching:
    def test_static_payload_cached_until_touch(self):
        agg, coord = _make_coord()
        sh = coord.shards[0]
        first = sh.static_payload()
        assert sh.static_payload() is first          # cached
        v0 = sh.version
        sh.touch_demands()
        assert sh.version == v0                      # no geometry bump
        assert sh.static_payload() is not first      # but cache dropped
        sh.touch()
        assert sh.version > v0                       # geometry bump
        coord.close()

    def test_retarget_keeps_version_migration_bumps_it(self):
        agg, coord = _make_coord(rebalance_skew=None)
        coord.solve()
        tokens = list(agg.structure.keys)
        versions0 = [sh.version for sh in coord.shards]
        install_target(coord, tokens, agg.structure.masks,
                        agg.structure.demands * 1.1)
        assert [sh.version for sh in coord.shards] == versions0
        token = tokens[0]
        src = coord._token_shard[token]
        dest = (src + 1) % coord.n_shards
        coord.migrate_class(token, dest)
        assert coord.shards[src].version != versions0[src]
        assert coord.shards[dest].version != versions0[dest]
        coord.close()

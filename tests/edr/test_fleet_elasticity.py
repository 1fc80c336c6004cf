"""Worker-fleet lifecycle and online re-partitioning edge cases.

The elasticity contract: a skew-repair re-layout moves classes *with*
their allocation rows and client registrations, so loads, residual and
every registration survive it no matter how extreme the skew; it fires
only when the LPT layout of the current demands repairs the skew (an
unrepairable skew leaves the plane alone); it is safe mid-churn and
deterministic across execution modes; and the coordinator's executor
lifecycle survives close/reuse without leaking or changing results.
"""

import numpy as np
import pytest

from repro.core.aggregate import aggregate_problem
from repro.core.incremental import ClientArrival, DemandChange
from repro.edr.coordinator import ShardCoordinator, ShardingConfig
from repro.errors import ValidationError
from repro.experiments.scenarios import scaling_problem
from repro.obs.events import validate_record
from repro.obs.recorder import TraceRecorder
from repro.util.cpus import available_cpus, resolve_workers


def _make_coord(n_clients=400, n_shards=3, seed=2013, n_replicas=3,
                n_patterns=4, **cfg_kwargs):
    problem = scaling_problem(n_clients, seed=seed, n_replicas=n_replicas,
                              n_patterns=n_patterns)
    agg = aggregate_problem(problem)
    tokens = list(agg.structure.keys)
    clients = {f"c{i}": (tokens[agg.structure.class_of_client[i]],
                         float(problem.data.R[i]))
               for i in range(problem.data.n_clients)}
    coord = ShardCoordinator(
        agg.problem.data, tokens,
        ShardingConfig(n_shards=n_shards, **cfg_kwargs), clients=clients)
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


def skew_shard(coord, agg, shard, factor):
    """Shrink every class ``shard`` does not own ``factor``-fold; re-solve.

    Leaves a converged plane whose demand sits on one shard — the
    skew a re-layout exists to repair when no single class dominates.
    """
    tokens = list(agg.structure.keys)
    own = np.array([coord._token_shard[t] == shard for t in tokens])
    install_target(coord, tokens, agg.structure.masks,
                   np.where(own, 1.0, 1.0 / factor)
                   * agg.structure.demands)
    assert coord.solve().converged
    return tokens


def hot_spot_stream(mode, n_clients=20_000, n_events=60, n_shards=3):
    """Arrivals onto the crowded shard's heaviest class until it re-lays.

    Each arrival carries ``1 / (2 * n_events)`` of the instance's demand;
    the crowded shard's sibling classes fit around the hot one, so the
    skew is repairable.  Returns the plane's counters, skews and rows.
    """
    agg, coord = _make_coord(n_clients, n_shards, n_replicas=6,
                             n_patterns=12, mode=mode, rebalance_skew=1.5)
    with coord:
        coord.solve()
        crowded = coord.shards[int(np.argmax(
            [sh.n_rows for sh in coord.shards]))].state
        hot = crowded.masks[int(np.argmax(crowded.D))]
        per_event = float(agg.structure.demands.sum()) * 0.5 / n_events
        skews = [coord.demand_skew()]
        for i in range(n_events):
            coord.apply_event(ClientArrival(f"hot{i}", per_event, hot.copy()))
            skews.append(coord.demand_skew())
        return {"migrations": coord.migrations, "resizes": coord.resizes,
                "refreshes": coord.refreshes, "fallbacks": coord.fallbacks,
                "skew_before": skews[0], "skew_peak": max(skews),
                "skew_after": skews[-1], "residual": coord.residual(),
                "rows": coord.rows_for(list(agg.structure.keys))}


class TestMigration:
    def test_migration_conserves_under_extreme_skew(self):
        # Every class off the two-class shard shrinks 20x: skew near
        # the 3-shard maximum.  The LPT re-layout moves classes (rows,
        # clients and all) without touching any allocation row, the
        # residual or a registration, and the plane still converges.
        agg, coord = _make_coord()
        crowded = int(np.argmax([sh.n_rows for sh in coord.shards]))
        tokens = skew_shard(coord, agg, crowded, 20.0)
        assert coord.demand_skew() > 2.5
        rows0 = coord.rows_for(tokens)
        resid0 = coord.residual()
        regs0 = sorted(coord.clients())
        coord.recorder = TraceRecorder()
        moved = coord.rebalance()
        assert moved >= 1 and coord.migrations == moved
        assert coord.demand_skew() <= coord.config.rebalance_skew
        (event,) = [r for r in coord.recorder.records
                    if r["name"] == "coordinator.repartition"]
        validate_record(event)
        assert event["moves"] == moved
        assert event["skew_before"] > 2.5 >= event["skew_after"]
        assert coord.recorder.counters[("coordinator.migration", ())] \
            == moved
        assert np.array_equal(coord.rows_for(tokens), rows0)
        assert coord.residual() == pytest.approx(resid0, abs=1e-15)
        assert sorted(coord.clients()) == regs0
        assert all(coord.registered(c) == (t, d) for c, t, d in regs0)
        assert coord.solve().converged
        coord.close()

    def test_mid_churn_migration_bit_identity(self):
        # Identical skewed stream in serial and process mode: the hot
        # class's arrivals trigger a mid-stream re-layout, more events
        # follow, and the final allocation matches bit-for-bit (the
        # re-layout decision reads class demands, never wall-clock).
        def stream(mode):
            agg, coord = _make_coord(mode=mode, max_workers=2,
                                     rebalance_skew=1.5)
            coord.solve()
            tokens = list(agg.structure.keys)
            crowded = int(np.argmax([sh.n_rows for sh in coord.shards]))
            hot = coord.shards[crowded].state.masks[0].copy()
            with coord:
                for i in range(4):
                    coord.apply_event(ClientArrival(f"n{i}", 100.0 + i,
                                                    hot.copy()))
                migrations = coord.migrations
                for i in range(4):
                    coord.apply_event(DemandChange(f"n{i}", 40.0 + i))
                return coord.rows_for(tokens), migrations

        rows_s, mig_s = stream("serial")
        rows_p, mig_p = stream("process")
        assert mig_s == mig_p >= 1
        assert np.array_equal(rows_s, rows_p)

    def test_mode_bit_identity_after_rebalance(self):
        # Auto-rebalance fires during a skewed stream; both modes must
        # re-lay the same classes and land on identical bits.
        serial = hot_spot_stream("serial", n_clients=4_000, n_events=30)
        proc = hot_spot_stream("process", n_clients=4_000, n_events=30)
        assert serial["migrations"] >= 1
        assert serial["resizes"] == 0
        assert serial["skew_after"] <= 1.5
        assert proc["migrations"] == serial["migrations"]
        assert np.array_equal(proc["rows"], serial["rows"])

    def test_unrepairable_skew_does_not_relayout(self):
        # One class holds more than rebalance_skew / n_shards of the
        # demand: no layout repairs that, so neither rebalance() nor a
        # stream of routed events rebuilds a shard.
        agg, coord = _make_coord()
        skew_shard(coord, agg, 0, 10.0)
        demands = coord.class_snapshot()[2]
        assert demands.max() > coord.config.rebalance_skew \
            / coord.n_shards * demands.sum()
        assert coord.demand_skew() > coord.config.rebalance_skew
        routes = dict(coord._token_shard)
        versions = [sh.version for sh in coord.shards]
        assert coord.rebalance() == 0
        for i in range(3):
            r = coord.apply_event(DemandChange(f"c{i}", 5.0 + i))
            assert r.ok and r.migrations == 0
        assert coord.migrations == 0
        assert coord._token_shard == routes
        assert [sh.version for sh in coord.shards] == versions
        coord.close()

    def test_resize_relays_warm(self):
        agg, coord = _make_coord()
        coord.solve()
        tokens = list(agg.structure.keys)
        rows0 = coord.rows_for(tokens)
        regs0 = sorted(coord.clients())
        coord.resize(2)
        assert coord.n_shards == 2 and coord.resizes == 1
        assert coord.migrations == 0
        assert np.array_equal(coord.rows_for(tokens), rows0)
        assert sorted(coord.clients()) == regs0
        assert coord.residual() <= coord.config.tol * (1 + 1e-9)
        with pytest.raises(ValidationError):
            coord.resize(0)
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
        # A demand-only retarget keeps every geometry version; a
        # skew-repair re-layout rebuilds the shards, so the fleet
        # re-ships every one of them.
        agg, coord = _make_coord()
        coord.solve()
        tokens = list(agg.structure.keys)
        versions0 = [sh.version for sh in coord.shards]
        install_target(coord, tokens, agg.structure.masks,
                        agg.structure.demands * 1.1)
        assert [sh.version for sh in coord.shards] == versions0
        crowded = int(np.argmax([sh.n_rows for sh in coord.shards]))
        skew_shard(coord, agg, crowded, 20.0)
        assert [sh.version for sh in coord.shards] == versions0
        assert coord.rebalance() >= 1
        assert not {sh.version for sh in coord.shards} & set(versions0)
        coord.close()

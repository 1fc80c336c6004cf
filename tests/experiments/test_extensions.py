"""Tests for the extension experiments (dynamic tariffs, geo latency)."""

import numpy as np
import pytest

from repro.cluster.pricing import PriceSchedule
from repro.edr.system import EDRSystem, RuntimeConfig, SolverOptions
from repro.errors import ValidationError
from repro.experiments import ext_dynamic_prices, ext_geo_latency

from tests.edr.conftest import burst_trace


class TestDynamicPricesRuntime:
    def test_schedule_replica_count_checked(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(prices=(1, 2, 3),
                          price_schedule=PriceSchedule.constant([1.0]))

    def test_constant_schedule_matches_static(self):
        trace = burst_trace(count=8, n_clients=8, rate=20.0)
        static = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"))).run()
        sched = PriceSchedule.constant(list(RuntimeConfig().prices))
        dynamic = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"),
            price_schedule=sched)).run()
        assert dynamic.total_cents == pytest.approx(static.total_cents,
                                                    rel=1e-3)

    def test_stale_prices_flag(self):
        trace = burst_trace(count=8, n_clients=8, rate=20.0)
        sched = PriceSchedule.two_phase(
            RuntimeConfig().prices, tuple(reversed(RuntimeConfig().prices)),
            switch_at=1e-3)  # flip almost immediately
        aware = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"),
            price_schedule=sched)).run()
        stale = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="lddm"),
            price_schedule=sched, solve_with_stale_prices=True)).run()
        # Both deliver; the aware one can't be (much) worse.
        assert aware.total_cents <= stale.total_cents * 1.02


class TestDynamicPricesExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_dynamic_prices.run(switch_at=8.0, per_burst=12,
                                      n_clients=12)

    def test_aware_beats_stale(self, result):
        assert result.aware.total_cents < result.stale.total_cents

    def test_aware_beats_round_robin(self, result):
        assert result.aware.total_cents < result.round_robin.total_cents

    def test_render(self, result):
        out = result.render()
        assert "tariff" in out and "saving" in out


class TestGeoLatencyExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_geo_latency.run()

    def test_eligibility_shrinks_with_bound(self, result):
        pairs = result.eligible_pairs
        assert all(b >= a for a, b in zip(pairs[1:], pairs))  # nonincreasing

    def test_cost_nondecreasing_as_bound_tightens(self, result):
        finite = [c for c in result.costs if np.isfinite(c)]
        # Allow solver noise at the 1e-6 relative level.
        assert all(b >= a * (1 - 1e-6) for a, b in zip(finite, finite[1:]))

    def test_eventually_infeasible(self, result):
        assert result.infeasible_below_ms > 0
        assert any(np.isinf(c) for c in result.costs)

    def test_render(self, result):
        out = result.render()
        assert "latency bound" in out and "infeasible" in out


class TestRunnerExtensions:
    def test_ext_geo_via_cli(self, capsys):
        from repro.experiments.runner import main
        rc = main(["ext_geo"])
        assert rc == 0
        assert "geo topology" in capsys.readouterr().out

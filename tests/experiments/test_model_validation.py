"""Tests for the weighted scheduler and the model-validation experiment."""

import numpy as np
import pytest

from repro.edr.system import EDRSystem, RuntimeConfig, SolverOptions
from repro.errors import ValidationError

from tests.edr.conftest import burst_trace


class TestWeightedScheduler:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(
                solver=SolverOptions(algorithm="weighted"))  # no weights
        with pytest.raises(ValidationError):
            RuntimeConfig(
                solver=SolverOptions(algorithm="weighted", weights=(1.0,)))
        with pytest.raises(ValidationError):
            RuntimeConfig(
                solver=SolverOptions(algorithm="weighted", weights=(0.0,) * 8))

    def test_split_follows_weights(self):
        from repro.workload.apps import VIDEO_STREAMING
        trace = burst_trace(VIDEO_STREAMING, count=8, n_clients=8,
                            rate=8.0, seed=2)
        w = (4.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        cfg = RuntimeConfig(
            solver=SolverOptions(algorithm="weighted", weights=w),
            batch_capacity_fraction=0.35)
        res = EDRSystem(trace, cfg).run(app="video")
        moved = res.extras["transferred_mb"]
        # Zero-weight replicas never serve.
        assert moved.get("replica6", 0.0) == 0.0
        assert moved.get("replica8", 0.0) == 0.0
        # The heavy-weight replica serves ~4x a unit-weight one.
        ratio = moved["replica1"] / moved["replica2"]
        assert ratio == pytest.approx(4.0, rel=0.05)
        # Conservation holds.
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-9)

    def test_deterministic(self):
        trace = burst_trace(count=6, n_clients=6, rate=20.0)
        w = tuple(np.linspace(1, 2, 8))
        a = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="weighted", weights=w))).run()
        b = EDRSystem(trace, RuntimeConfig(
            solver=SolverOptions(algorithm="weighted", weights=w))).run()
        assert a.total_cents == b.total_cents


class TestModelValidation:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import model_validation
        return model_validation.run(n_policies=4)

    def test_positive_rank_correlation(self, result):
        assert result.spearman > 0

    def test_beta_sweep_monotone_toward_concentration(self, result):
        betas = sorted(result.beta_sweep)
        costs = [result.beta_sweep[b] for b in betas]
        # On this substrate, smaller planning beta yields lower measured
        # cost (the cubic NIC term is small physically).
        assert costs == sorted(costs)

    def test_render(self, result):
        out = result.render()
        assert "Spearman" in out and "beta" in out

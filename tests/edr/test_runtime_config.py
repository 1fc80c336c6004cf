"""The composable RuntimeConfig: sub-config validation, cross-field
checks, and no flat-keyword spelling."""

import pytest

from repro.edr.coordinator import ShardingConfig
from repro.edr.system import (
    FaultConfig,
    NetConfig,
    RuntimeConfig,
    SolverOptions,
)
from repro.errors import ValidationError


class TestSubConfigs:
    def test_defaults_compose(self):
        cfg = RuntimeConfig()
        assert isinstance(cfg.solver, SolverOptions)
        assert isinstance(cfg.net, NetConfig)
        assert isinstance(cfg.faults, FaultConfig)
        assert cfg.solver.algorithm == "lddm"
        assert cfg.net.bandwidth == 100.0
        assert cfg.faults.heartbeats is False

    def test_explicit_sub_configs(self):
        cfg = RuntimeConfig(
            solver=SolverOptions(algorithm="cdpsm", warm_start=False),
            net=NetConfig(bandwidth=50.0),
            faults=FaultConfig(heartbeats=True, hb_interval=0.1))
        assert cfg.solver.algorithm == "cdpsm"
        assert cfg.net.bandwidth == 50.0
        assert cfg.faults.hb_interval == 0.1

    def test_sub_configs_are_private_copies(self):
        shared = NetConfig(bandwidth=50.0)
        a, b = RuntimeConfig(net=shared), RuntimeConfig(net=shared)
        a.net.bandwidth = 10.0
        assert (shared.bandwidth, b.net.bandwidth) == (50.0, 50.0)
        with pytest.raises(TypeError):
            RuntimeConfig(solver=None)
        assert len({a, b}) == 2    # identity-hashed, as before

    def test_sub_config_validation_still_fires(self):
        with pytest.raises(ValidationError):
            SolverOptions(algorithm="magic")
        with pytest.raises(ValidationError):
            NetConfig(flow_kernel="quantum")
        with pytest.raises(ValidationError):
            FaultConfig(standby_after=-1.0)

    def test_sharding_requires_aggregate_lddm(self):
        with pytest.raises(ValidationError):
            SolverOptions(algorithm="cdpsm",
                          sharding=ShardingConfig(n_shards=2))


class TestFlatKwargShim:
    """The flat-keyword shim is gone: sub-configs are the only spelling."""

    def test_flat_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="unexpected"):
            RuntimeConfig(algorithm="lddm")
        assert not hasattr(RuntimeConfig(), "algorithm")

    def test_sub_config_construction_does_not_warn(self, recwarn):
        RuntimeConfig(solver=SolverOptions(algorithm="cdpsm"))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_unknown_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="unexpected"):
            RuntimeConfig(not_a_field=1)

    def test_top_level_fields_do_not_warn(self, recwarn):
        RuntimeConfig(prices=(1, 2, 3), poll_interval=0.05)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestCrossFieldValidation:
    def test_weighted_needs_per_replica_weights(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(prices=(1, 2, 3),
                          solver=SolverOptions(algorithm="weighted",
                                               weights=(1.0, 2.0)))

    def test_bandwidths_must_match_replica_count(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(prices=(1, 2, 3),
                          net=NetConfig(bandwidths=(100.0, 50.0)))

    def test_replica_bandwidths_helper(self):
        cfg = RuntimeConfig(prices=(1, 2),
                            net=NetConfig(bandwidths=(10.0, 20.0)))
        assert tuple(cfg.replica_bandwidths()) == (10.0, 20.0)

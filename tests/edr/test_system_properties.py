"""Property-style invariant tests for the full runtime over random configs.

Each randomized scenario must satisfy the conservation and bookkeeping
invariants regardless of scheduler, workload, or prices.
"""

import numpy as np
import pytest

from repro.cluster.pricing import JOULES_PER_KWH
from repro.edr.system import EDRSystem, RuntimeConfig, SolverOptions
from repro.util.rng import make_rng
from repro.workload.apps import FILE_SERVICE, VIDEO_STREAMING
from repro.workload.clients import ClientPopulation
from repro.workload.generator import WorkloadGenerator
from repro.workload.youtube import YoutubeTrafficModel


def random_run(seed: int):
    rng = make_rng(seed)
    app = VIDEO_STREAMING if rng.random() < 0.5 else FILE_SERVICE
    count = int(rng.integers(4, 16)) if app is VIDEO_STREAMING \
        else int(rng.integers(20, 60))
    n_clients = int(rng.integers(3, 12))
    algo = ["lddm", "cdpsm", "round_robin"][int(rng.integers(3))]
    prices = tuple(rng.integers(1, 21, size=8).astype(float))
    gen = WorkloadGenerator(
        traffic=YoutubeTrafficModel(base_rate=count / 2.0, amplitude=0.0,
                                    period=1000.0),
        clients=ClientPopulation.uniform(n_clients),
        app=app)
    trace = gen.generate(rng, count=count)
    cfg = RuntimeConfig(
        solver=SolverOptions(algorithm=algo), prices=prices,
        batch_capacity_fraction=0.35)
    system = EDRSystem(trace, cfg)
    return trace, system, system.run(app=app.name)


@pytest.mark.parametrize("seed", range(10))
def test_property_runtime_invariants(seed):
    trace, system, res = random_run(seed)

    # 1. Conservation: every requested MB was delivered.
    assert res.extras["delivered_mb"] == pytest.approx(trace.total_mb(),
                                                       rel=1e-9)
    # 2. Every request got exactly one response.
    assert len(res.response_times) >= len(trace)  # retries may add more
    assert system.stats.pending == 0
    # 3. Response times are positive and precede the makespan.
    assert all(0 < t <= res.makespan for t in res.response_times)
    # 4. Energy is within the physical envelope: every replica's
    #    busy-window energy is bounded by peak power x window.
    for i, site in enumerate(system.sites):
        window = res.extras["busy_end"][site.name]
        peak = system.config.power_model.peak_w
        assert res.joules_by_replica[i] <= peak * window + 1e-6
        assert res.joules_by_replica[i] >= 0.0
    # 5. Cents follow from joules at the site prices exactly.
    expected_cents = res.joules_by_replica / JOULES_PER_KWH \
        * np.asarray(system.config.prices)
    assert np.allclose(res.cents_by_replica, expected_cents, rtol=1e-9)
    # 6. Busy windows never exceed the makespan.
    assert all(0.0 <= w <= res.makespan + 1e-9
               for w in res.extras["busy_end"].values())
    # 7. No flows left running.
    assert len(system.flows.active) == 0


@pytest.mark.parametrize("seed", [3, 4])
def test_property_wall_clock_dominates_window_energy(seed):
    _, system, res = random_run(seed)
    wall = res.extras["wall_clock_joules"]
    assert np.all(wall + 1e-9 >= res.joules_by_replica)

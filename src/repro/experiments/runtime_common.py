"""Shared runtime-experiment machinery for Figs. 3/4/6/7/8."""

from __future__ import annotations

from repro.edr.system import EDRSystem, RuntimeConfig, SolverOptions
from repro.experiments.scenarios import Scenario, make_trace

__all__ = ["run_runtime", "ALGORITHMS"]

ALGORITHMS = ("lddm", "cdpsm", "round_robin")


def run_runtime(scenario: Scenario, algorithm: str,
                prices=None, seed: int | None = None,
                keep_system: bool = False,
                **config_kwargs):
    """Run one runtime scenario under one scheduler.

    Returns the :class:`ExperimentResult`, or ``(result, system)`` when
    ``keep_system`` is true (for power-profile extraction).
    """
    trace = make_trace(scenario, seed=seed)
    cfg = RuntimeConfig(
        solver=SolverOptions(algorithm=algorithm),
        prices=tuple(prices) if prices is not None else scenario.prices,
        batch_capacity_fraction=config_kwargs.pop(
            "batch_capacity_fraction", 0.35),
        **config_kwargs)
    system = EDRSystem(trace, cfg)
    result = system.run(app=scenario.app.name)
    if keep_system:
        return result, system
    return result

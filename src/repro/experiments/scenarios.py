"""Canonical experiment scenarios (Sec. IV-A system setup).

The paper: 8 SystemG nodes as replicas; 100 MB/s Ethernet; T = 1.8 ms;
``alpha = 1``, ``beta = 0.01``, ``gamma = 3``; per-replica electricity
prices random integers in [1, 20] ¢/kWh (fixed to ``[1,8,1,6,1,5,2,3]``
for the Fig. 6/7 case study); requests follow the YouTube pattern with
~100 MB (video streaming) or ~10 MB (distributed file service) each.

We issue requests in a short burst (the paper's batch-style runs) against
a cluster whose aggregate capacity comfortably exceeds any single burst —
the "peak service hours" regime where placement drives per-replica
execution windows and therefore energy cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.cluster.pricing import PAPER_PRICES
from repro.core.incremental import ClientArrival, ClientDeparture, \
    DemandChange
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.errors import ValidationError
from repro.util.rng import RngFactory, make_rng
from repro.workload.apps import (
    FILE_SERVICE,
    VIDEO_STREAMING,
    ApplicationProfile,
)
from repro.workload.clients import ClientPopulation
from repro.workload.generator import WorkloadGenerator
from repro.workload.requests import RequestTrace
from repro.workload.youtube import YoutubeTrafficModel

__all__ = ["Scenario", "PAPER_VIDEO", "PAPER_DFS", "FIG9_PRICES",
           "FIG9_PATTERNS", "make_trace", "scaling_problem", "churn_events"]

#: The Fig. 9 sweep's 3-replica price vector (prices do not affect
#: response time); also :func:`scaling_problem`'s default prices.
FIG9_PRICES = (1.0, 8.0, 1.0)

#: :func:`scaling_problem`'s default latency-eligibility patterns, one
#: row per client region (read-only: event streams hand out its rows).
FIG9_PATTERNS = np.array([[1, 1, 1], [1, 1, 0], [0, 1, 1], [1, 0, 1]],
                         dtype=bool)
FIG9_PATTERNS.setflags(write=False)


@dataclass(frozen=True)
class Scenario:
    """One workload scenario description."""

    name: str
    app: ApplicationProfile
    n_requests: int
    n_clients: int
    arrival_rate: float           # requests/second during the burst
    prices: tuple = PAPER_PRICES
    diurnal_amplitude: float = 0.0
    diurnal_period: float = 1000.0
    seed: int = 2013              # CLUSTER 2013

    def __post_init__(self) -> None:
        if self.n_requests < 1 or self.n_clients < 1:
            raise ValidationError("need at least one request and client")
        if self.arrival_rate <= 0:
            raise ValidationError("arrival_rate must be positive")

    def scaled(self, factor: float) -> "Scenario":
        """A smaller/larger variant (used by --quick runs and benches)."""
        if factor <= 0:
            raise ValidationError("scale factor must be positive")
        return Scenario(
            name=f"{self.name}(x{factor:g})",
            app=self.app,
            n_requests=max(1, int(round(self.n_requests * factor))),
            n_clients=max(1, int(round(self.n_clients * factor))),
            arrival_rate=self.arrival_rate * factor,
            prices=self.prices,
            diurnal_amplitude=self.diurnal_amplitude,
            diurnal_period=self.diurnal_period,
            seed=self.seed)


#: Video streaming: 24 clients, one ~100 MB request each, ~2 s burst.
PAPER_VIDEO = Scenario(
    name="video", app=VIDEO_STREAMING, n_requests=24, n_clients=24,
    arrival_rate=12.0)

#: Distributed file service: ~10 MB requests at 10x the video count.
PAPER_DFS = Scenario(
    name="dfs", app=FILE_SERVICE, n_requests=240, n_clients=24,
    arrival_rate=120.0)


def make_trace(scenario: Scenario, seed: int | None = None) -> RequestTrace:
    """Materialize a scenario into a request trace (deterministic)."""
    rng = RngFactory(scenario.seed if seed is None else seed)
    gen = WorkloadGenerator(
        traffic=YoutubeTrafficModel(
            base_rate=scenario.arrival_rate,
            amplitude=scenario.diurnal_amplitude,
            period=scenario.diurnal_period),
        clients=ClientPopulation.uniform(scenario.n_clients),
        app=scenario.app)
    return gen.generate(rng.stream("trace"), count=scenario.n_requests)


def scaling_problem(n_clients: int, seed: int = 2013, *,
                    n_replicas: int = 3, n_patterns: int = 4
                    ) -> ReplicaSelectionProblem:
    """A fig9-style batch instance with ``n_clients`` clients.

    By default three replicas at the sweep's prices, per-client demands
    drawn from the DFS profile's lognormal size distribution (drawn
    vectorized — same distribution as ``FILE_SERVICE.sample_size``),
    and four latency-eligibility patterns standing in for client
    regions; replica capacities scale with total demand so every count
    stays feasible.  ``n_replicas`` / ``n_patterns`` widen the instance
    for the sharded benches (more class rows to partition); the default
    ``(3, 4)`` instance is byte-identical to what this function has
    always produced.
    """
    if n_clients < 1:
        raise ValidationError("n_clients must be positive")
    if n_replicas < 1 or n_patterns < 1:
        raise ValidationError("n_replicas and n_patterns must be positive")
    rng = make_rng(seed)
    sigma = FILE_SERVICE.size_sigma
    mu = float(np.log(FILE_SERVICE.mean_size_mb)) - sigma ** 2 / 2.0
    demands = rng.lognormal(mean=mu, sigma=sigma, size=n_clients)
    if (n_replicas, n_patterns) == (3, 4):
        patterns, prices = FIG9_PATTERNS, FIG9_PRICES
    else:
        # All-ones first, then random patterns with >= 2 eligible
        # replicas each (>= 2 keeps every demand split feasible under
        # the 0.6*total per-column capacity, by Hall's condition).
        patterns = np.ones((n_patterns, n_replicas), dtype=bool)
        lo = min(2, n_replicas)
        for p in range(1, n_patterns):
            k = int(rng.integers(lo, n_replicas + 1))
            off = rng.choice(n_replicas, size=n_replicas - k, replace=False)
            patterns[p, off] = False
        prices = tuple(np.resize(np.asarray(FIG9_PRICES, dtype=float),
                                 n_replicas))
    mask = patterns[rng.integers(0, len(patterns), size=n_clients)]
    total = float(demands.sum())
    data = ProblemData.paper_defaults(
        demands=demands, prices=prices, bandwidth=0.6 * total, mask=mask)
    return ReplicaSelectionProblem(data)


def churn_events(rng: np.random.Generator, names: list[str],
                 patterns: np.ndarray, n_events: int
                 ) -> Iterator[ClientArrival | ClientDeparture | DemandChange]:
    """The event experiments' fixed-seed churn mix, one event at a time.

    Half demand changes, a quarter arrivals (fresh clients ``x<i>`` on a
    random row of ``patterns``), a quarter departures; demands are
    lognormal around the file service's mean size.  ``names`` is the
    live-client list the draws index into, updated in place as events
    are drawn.
    """
    sigma = FILE_SERVICE.size_sigma
    mu = float(np.log(FILE_SERVICE.mean_size_mb)) - sigma ** 2 / 2.0
    for i in range(n_events):
        kind = rng.random()
        if kind < 0.25 and names:
            yield ClientDeparture(names.pop(int(rng.integers(len(names)))))
        elif kind < 0.5:
            names.append(f"x{i}")
            yield ClientArrival(
                names[-1], float(rng.lognormal(mean=mu, sigma=sigma)),
                patterns[int(rng.integers(len(patterns)))])
        else:
            yield DemandChange(
                names[int(rng.integers(len(names)))],
                float(rng.lognormal(mean=mu, sigma=sigma)))

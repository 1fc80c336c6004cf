"""The paper's contribution: the energy-aware replica-selection problem and
its two distributed solvers (CDPSM, LDDM), plus a centralized reference.

Quick start::

    from repro.core import ProblemData, ReplicaSelectionProblem, solve

    data = ProblemData.paper_defaults(
        demands=[40.0, 60.0], prices=[1.0, 8.0, 1.0])
    problem = ReplicaSelectionProblem(data)
    solution = solve(problem, algorithm="lddm")
    print(solution.allocation, solution.objective)

:func:`solve` dispatches to any algorithm (``"lddm"``, ``"cdpsm"``,
``"waterfill"``, ``"reference"``) with one keyword-only option set
(``aggregate=``, ``warm_start=``, ``mu0=``, ``recorder=``, plus solver
options); the
per-algorithm helpers ``solve_lddm`` / ``solve_cdpsm`` /
``solve_reference`` are thin wrappers with the same names.
"""

from repro.core.params import ProblemData, ReplicaParams
from repro.core.problem import ReplicaSelectionProblem
from repro.core.aggregate import (
    AggregatedProblem,
    ClassStructure,
    aggregate_problem,
    solve_aggregated,
)
from repro.core.model import (
    replica_loads,
    replica_energy,
    total_energy,
    energy_gradient,
)
from repro.core.projection import (
    project_simplex,
    project_capped_simplex,
    project_demands,
    project_local_set,
)
from repro.core.consensus import (
    uniform_weights,
    ring_weights,
    metropolis_weights,
    is_doubly_stochastic,
)
from repro.core.stepsize import ConstantStep, DiminishingStep, SqrtStep
from repro.core.solution import Solution
from repro.core.subproblem import solve_replica_subproblem
from repro.core.cdpsm import CdpsmSolver, solve_cdpsm
from repro.core.lddm import LddmSolver, solve_lddm
from repro.core.reference import solve_reference
from repro.core.api import ALGORITHMS, solve
from repro.core.certify import Certificate, certify
from repro.core.waterfill import WaterfillSolver
from repro.core.warmstart import (
    AdaptiveBudget,
    WarmStartCache,
    WarmStartEntry,
    project_warm_start,
    recover_mu,
)
from repro.core.incremental import (
    ClientArrival,
    ClientDeparture,
    DemandChange,
    EventResult,
    IncrementalState,
)
from repro.core.shard import (
    ShardRound,
    SolveShard,
    partition_classes,
)

__all__ = [
    "ProblemData",
    "ReplicaParams",
    "ReplicaSelectionProblem",
    "AggregatedProblem",
    "ClassStructure",
    "aggregate_problem",
    "solve_aggregated",
    "replica_loads",
    "replica_energy",
    "total_energy",
    "energy_gradient",
    "project_simplex",
    "project_capped_simplex",
    "project_demands",
    "project_local_set",
    "uniform_weights",
    "ring_weights",
    "metropolis_weights",
    "is_doubly_stochastic",
    "ConstantStep",
    "DiminishingStep",
    "SqrtStep",
    "Solution",
    "solve_replica_subproblem",
    "CdpsmSolver",
    "solve_cdpsm",
    "LddmSolver",
    "solve_lddm",
    "solve_reference",
    "solve",
    "ALGORITHMS",
    "Certificate",
    "certify",
    "WaterfillSolver",
    "AdaptiveBudget",
    "WarmStartCache",
    "WarmStartEntry",
    "project_warm_start",
    "recover_mu",
    "ClientArrival",
    "ClientDeparture",
    "DemandChange",
    "EventResult",
    "IncrementalState",
    "ShardRound",
    "SolveShard",
    "partition_classes",
]

"""Public-surface lint guards.

Two contracts enforced repo-wide:

* ``__all__`` reconciliation — every name a package advertises must
  resolve, and the promoted top-level entry points must be re-exported
  consistently.
* keyword-only options — public functions take defaulted options
  keyword-only (the positional-``aggregate`` era is over).  A small
  allowlist grandfathers ergonomic positionals (``solve``'s
  ``algorithm``, ``solve_sharded``'s ``n_shards``, ...); additions to
  that list need a review, not an accident.
* no private reach-through — the service and the experiments sit on top
  of the library and read it through its public surface only.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PACKAGES = ["repro", "repro.core", "repro.edr", "repro.obs",
            "repro.service"]

#: (module, function, parameter) triples allowed to keep a defaulted
#: positional-or-keyword parameter.  Grow this list deliberately.
KEYWORD_ONLY_ALLOWLIST = {
    ("repro.core.api", "solve", "algorithm"),
    ("repro.core.aggregate", "solve_aggregated", "method"),
    ("repro.edr.coordinator", "solve_sharded", "n_shards"),
    ("repro.service.server", "serve", "config"),
    ("repro.core.projection", "project_local_set", "max_iter"),
    ("repro.core.projection", "project_local_set", "tol"),
    ("repro.core.consensus", "ring_weights", "self_weight"),
    ("repro.core.consensus", "is_doubly_stochastic", "tol"),
    ("repro.core.warmstart", "project_warm_start", "repair_sweeps"),
}


def public_functions():
    """Every function any audited package advertises via ``__all__``."""
    seen = {}
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                seen[(obj.__module__, obj.__qualname__)] = obj
    return sorted(seen.items())


@pytest.mark.parametrize("package", PACKAGES + [
    "repro.core.shard", "repro.experiments.fig9",
    "repro.experiments.scenarios"])
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{package}.__all__ names {missing} do not resolve"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_has_no_duplicates(package):
    names = importlib.import_module(package).__all__
    assert len(names) == len(set(names))


def test_deleted_legacy_switches_are_type_errors():
    """The bench-only switches are gone, not aliased or ignored."""
    import repro
    from repro.core.lddm import LddmSolver
    from repro.edr.coordinator import ShardingConfig

    problem = repro.ReplicaSelectionProblem(
        repro.ProblemData.paper_defaults([40.0, 60.0], [1.0, 8.0, 1.0]))
    with pytest.raises(TypeError, match="persistent_workers"):
        ShardingConfig(persistent_workers=True)
    with pytest.raises(TypeError, match="batched"):
        LddmSolver(problem, batched=False)
    with pytest.raises(TypeError, match="batched"):
        repro.solve(problem, "lddm", batched=False)


@pytest.mark.parametrize("field, value", [
    ("solver_kwargs", {}), ("adaptive_budget", True),
    ("warm_budget_floor", 16), ("incremental_drift_limit", 2.5),
    ("max_workers", 2), ("warm_cache_entries", 0)])
def test_never_set_solver_options_are_type_errors(field, value):
    """Options nobody set became constants; the fields are gone."""
    from repro.edr.system import SolverOptions

    with pytest.raises(TypeError, match=field):
        SolverOptions(**{field: value})


def test_shard_local_warm_cache_option_is_gone():
    """The shard-local warm caches went with the runtime's second plane."""
    from repro.edr.coordinator import ShardingConfig

    with pytest.raises(TypeError, match="warm_cache_entries"):
        ShardingConfig(warm_cache_entries=4)


def test_class_migration_and_shard_tuner_are_gone():
    """One shard layout: LPT re-layout replaced migration and the tuner."""
    from repro.core.incremental import IncrementalState
    from repro.core.shard import SolveShard
    from repro.edr import coordinator
    from repro.edr.coordinator import ShardCoordinator, ShardingConfig

    with pytest.raises(TypeError, match="rebalance_max_moves"):
        ShardingConfig(rebalance_max_moves=8)
    assert not hasattr(coordinator, "tune_shard_count")
    assert "tune_shard_count" not in coordinator.__all__
    for name in ("migrate_class", "auto_tune", "suggest_n_shards"):
        assert not hasattr(ShardCoordinator, name)
    for cls in (SolveShard, IncrementalState):
        for name in ("extract_class", "install_class"):
            assert not hasattr(cls, name)


def test_shard_refine_tolerances_are_constants():
    """Nothing tuned a shard's KKT tolerance or sweep cap per plane."""
    from repro.edr.coordinator import ShardingConfig

    for field, value in (("kkt_rtol", 1e-9), ("max_sweeps", 64)):
        with pytest.raises(TypeError, match=field):
            ShardingConfig(**{field: value})


def test_fig9_holds_only_the_figure():
    """The scaling runners left ``src/``; their benches drive the API."""
    from repro.experiments import fig9

    gone = ("solver_scaling", "scaling_point", "incremental_events",
            "sharded_scaling", "sharded_point", "sharded_events",
            "elastic_skew")
    assert not [n for n in gone if hasattr(fig9, f"run_{n}")]
    assert not hasattr(fig9, "scaling_problem")
    assert sorted(fig9.__all__) == [
        "DEFAULT_REQUEST_COUNTS", "Fig9Result", "run", "run_point"]


def test_thread_shard_mode_is_rejected():
    from repro.edr.coordinator import ShardingConfig
    from repro.errors import ValidationError

    with pytest.raises(ValidationError, match="serial.*process"):
        ShardingConfig(mode="thread")


def test_promoted_entry_points_are_top_level():
    import repro

    for name in ("solve", "serve", "connect"):
        assert name in repro.__all__
        assert callable(getattr(repro, name))


def test_top_level_reexports_match_origins():
    """repro.<name> is the same object as its defining module's."""
    import repro
    import repro.core
    import repro.service

    assert repro.solve is repro.core.solve
    assert repro.serve is repro.service.serve
    assert repro.connect is repro.service.connect
    assert repro.EDRClient is repro.service.EDRClient


@pytest.mark.parametrize(
    "key,func", public_functions(),
    ids=[f"{m}.{q}" for (m, q), _ in public_functions()])
def test_public_function_options_are_keyword_only(key, func):
    """Defaulted parameters of public functions must be keyword-only."""
    module, qualname = key
    violations = []
    for param in inspect.signature(func).parameters.values():
        if (param.default is not inspect.Parameter.empty
                and param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
                and (module, qualname, param.name)
                not in KEYWORD_ONLY_ALLOWLIST):
            violations.append(param.name)
    assert not violations, (
        f"{module}.{qualname} takes defaulted option(s) {violations} "
        f"positionally; make them keyword-only (add * before them) or — "
        f"deliberately — extend KEYWORD_ONLY_ALLOWLIST")


def test_allowlist_entries_still_exist():
    """Stale allowlist rows (renamed/removed functions) must be pruned."""
    live = {(m, q.split(".")[-1]) for (m, q), _ in public_functions()}
    for module, func, _param in KEYWORD_ONLY_ALLOWLIST:
        assert (module, func) in live, (
            f"allowlist entry {module}.{func} is no longer public")


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.mark.parametrize("package", ["service", "experiments"])
def test_no_private_attribute_reach_through(package):
    """``x._private`` is legal on ``self``/``cls`` only, in these layers."""
    hits = []
    for path in sorted((SRC / package).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                hits.append(f"{path.relative_to(SRC)}:{node.lineno} "
                            f"{ast.unparse(node)}")
    assert not hits, f"private attribute reads: {hits}"


def test_service_plane_does_not_import_the_incremental_state():
    """The plane's one event plane is the coordinator, not a state fork."""
    plane = importlib.import_module("repro.service.plane")
    assert not hasattr(plane, "IncrementalState")

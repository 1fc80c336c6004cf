"""Command-line experiment runner.

Usage::

    python -m repro.experiments fig5
    python -m repro.experiments fig3 fig4 fig6
    python -m repro.experiments all --quick
    python -m repro.experiments headline --runs 10
    python -m repro.experiments fig9 --counts 24 --trace out.jsonl
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    ablations,
    ext_dynamic_prices,
    ext_geo_latency,
    fig3_fig4,
    fig5,
    fig6_fig7,
    fig8,
    fig9,
)
from repro.experiments import headline as headline_mod
from repro.experiments.scenarios import PAPER_DFS, PAPER_VIDEO

__all__ = ["main"]

_ALL = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "traffic", "headline", "ablations", "ext_prices", "ext_geo",
        "ext_standby", "validation")


def _scaled(scenario, quick: bool):
    return scenario.scaled(0.5) if quick else scenario


def run_one(name: str, args, recorder=None) -> str:
    """Run one experiment by name; returns its rendered report.

    ``recorder`` (a :class:`repro.obs.TraceRecorder` from ``--trace``)
    is threaded through the experiments that support runtime tracing
    (fig6/fig7/fig9); the others run untraced.
    """
    quick = args.quick
    if recorder is not None and recorder.enabled:
        recorder.event("experiment.figure", figure=name)
    if name in ("fig3", "fig4"):
        results = fig3_fig4.run(_scaled(PAPER_DFS, quick))
        key = "cdpsm" if name == "fig3" else "lddm"
        return results[key].render()
    if name == "fig5":
        return fig5.run(max_iter=100 if quick else 300).render()
    if name == "fig6":
        return fig6_fig7.run(_scaled(PAPER_VIDEO, quick), app="video",
                             jobs=args.jobs, recorder=recorder).render()
    if name == "fig7":
        return fig6_fig7.run(_scaled(PAPER_DFS, quick), app="dfs",
                             jobs=args.jobs, recorder=recorder).render()
    if name == "fig8":
        return fig8.run(video=_scaled(PAPER_VIDEO, quick),
                        dfs=_scaled(PAPER_DFS, quick)).render()
    if name == "fig9":
        counts = tuple(args.counts) if getattr(args, "counts", None) \
            else ((24, 48, 96) if quick else fig9.DEFAULT_REQUEST_COUNTS)
        return fig9.run(request_counts=counts, jobs=args.jobs,
                        recorder=recorder).render()
    if name == "traffic":
        counts = tuple(args.counts) if getattr(args, "counts", None) \
            else ((1_000, 5_000) if quick else (1_000, 10_000, 100_000))
        return fig6_fig7.run_traffic_scaling(request_counts=counts,
                                             jobs=args.jobs).render()
    if name == "headline":
        runs = args.runs if args.runs else (6 if quick else 40)
        return headline_mod.run(n_runs=runs).render()
    if name == "ablations":
        return "\n\n".join(r.render() for r in ablations.run_all())
    if name == "ext_prices":
        per_burst = 12 if quick else 24
        return ext_dynamic_prices.run(per_burst=per_burst).render()
    if name == "ext_geo":
        return ext_geo_latency.run().render()
    if name == "ext_standby":
        from repro.experiments import ext_standby
        n = 12 if quick else 24
        return ext_standby.run(n_requests=n, n_clients=n).render()
    if name == "validation":
        from repro.experiments import model_validation
        return model_validation.run(
            n_policies=4 if quick else 8).render()
    raise SystemExit(f"unknown experiment {name!r}; choose from {_ALL}")


def _reports_dir():
    """The bench-report directory (created on demand)."""
    from pathlib import Path
    root = Path(__file__).resolve().parents[3]
    reports = root / "benchmarks" / "reports"
    if not reports.parent.is_dir():  # installed outside the repo tree
        reports = Path.cwd() / "profiles"
    reports.mkdir(parents=True, exist_ok=True)
    return reports


def _profiled(name: str, args, recorder=None) -> str:
    """Run one experiment under cProfile; dump pstats + print hot spots."""
    import cProfile
    import io
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        report = run_one(name, args, recorder=recorder)
    finally:
        prof.disable()
    path = _reports_dir() / f"profile_{name}.pstats"
    prof.dump_stats(path)
    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf).sort_stats("cumulative")
    stats.print_stats(15)
    print(f"profile: {path}")
    print("\n".join(buf.getvalue().splitlines()[:25]))
    return report


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures.")
    parser.add_argument("experiments", nargs="+",
                        help=f"experiment names: {', '.join(_ALL)}, or 'all'")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads for a fast pass")
    parser.add_argument("--runs", type=int, default=0,
                        help="override run count for the headline sweep")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep points "
                             "(1 = serial; results are identical)")
    parser.add_argument("--counts", type=int, nargs="+", default=None,
                        help="override fig9's request-count sweep points")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="capture a runtime telemetry trace "
                             "(repro.obs) and write it as JSONL; forces "
                             "serial sweeps for traced experiments")
    parser.add_argument("--profile", action="store_true",
                        help="run each experiment under cProfile and "
                             "write a pstats dump next to the bench "
                             "reports (benchmarks/reports/)")
    args = parser.parse_args(argv)
    names = list(args.experiments)
    if names == ["all"]:
        names = list(_ALL)
    recorder = None
    if args.trace:
        from repro.obs import TraceRecorder
        recorder = TraceRecorder()
    for name in names:
        t0 = time.time()
        if args.profile:
            report = _profiled(name, args, recorder)
        else:
            report = run_one(name, args, recorder=recorder)
        elapsed = time.time() - t0
        print(f"\n=== {name} ({elapsed:.1f}s) " + "=" * 40)
        print(report)
    if recorder is not None:
        from repro.obs import summary, to_jsonl
        lines = to_jsonl(recorder, args.trace)
        print(f"\ntrace: {lines} records -> {args.trace}")
        s = summary(recorder)
        for section in ("sessions", "net", "warm_start", "aggregation"):
            if section in s:
                print(f"  {section}: {s[section]}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

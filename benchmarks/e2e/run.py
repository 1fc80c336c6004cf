#!/usr/bin/env python3
"""One end-to-end + per-layer benchmark of the EDR reproduction.

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --trace --out A.json # + per-layer table
    python3 benchmarks/e2e/run.py --workload svc-churn --seed 7919
    python3 benchmarks/e2e/run.py --quick              # 1/20-size self-test

With ``--workload`` the run happens in this process and the last line of
standard output is the one JSON object ``BENCHMARK.json`` describes
(``--trace 0``: the end-to-end slots, ``--trace 1``: every per-layer
metric).  Without it every workload runs in a fresh subprocess of its own
(so ``peak_rss_mb`` is that workload's alone), ``--runs`` times each, and
``--out`` stores all of it with the seed, git revision, host and versions.

See README.md beside this file for the workloads, the metrics and how to
read the traced output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The program is run from its source tree; the driver's checkout has no
# installed package and no PYTHONPATH.
SOURCES = [str(HERE), str(HERE.parents[1] / "src")]
sys.path[:0] = SOURCES

import numpy as np  # noqa: E402  (imported before the clock below starts)

from metrics import (  # noqa: E402
    E2E,
    E2E_BY_WORKLOAD,
    PER_LAYER,
    SLOTS,
    WORKLOADS,
    median,
)

DEFAULT_SEED = 2013      # the paper's year; hold-out seed: 7919
HOLDOUT_SEED = 7919
RECORD_PREFIX = "RECORD "


# -- no process outlives the benchmark ---------------------------------------
# The program's process-mode shard pool ships state through
# ``multiprocessing.shared_memory``, which starts Python's resource-tracker
# helper; it ends only once this process has closed its pipe, i.e. after
# this process is gone, unless it is stopped and waited for here.

def _adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    ends first, so ``_stop_children`` sees and reaps those too."""
    try:
        import ctypes
        PR_SET_CHILD_SUBREAPER = 36
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    me, found = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue
            # pid (comm) state ppid ...; comm may hold spaces and brackets
            if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                found.append(int(entry))
    return found


def _stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended:
    the resource tracker by closing its pipe (it ignores SIGTERM and ends
    once the last holder of the pipe has), anything else still there
    (nothing, unless a workload died half-way) by SIGTERM, then SIGKILL."""
    try:
        from multiprocessing import resource_tracker
        tracker = resource_tracker._resource_tracker
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = None
    except (ImportError, AttributeError, OSError):
        pass
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for child in _children():
            try:
                os.kill(child, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return          # no child left, dead or alive
            if not pid:
                time.sleep(0.01)


#: What ``_import_program`` times, for a fresh interpreter (numpy is loaded
#: before the clock starts there too).
_IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import numpy, metrics
t0 = time.perf_counter()
import adapters, workloads
print(time.perf_counter() - t0)
"""
_import_s: float | None = None


def _import_program() -> float:
    """Import the program (through the adapter) and time it: import is the
    first part of ``setup_s``.  A process can import only once, and one
    reading swings by a factor of two on a busy host, so the reading here
    is joined by two from fresh interpreters and the median is reported."""
    global _import_s
    if _import_s is None:
        t0 = time.perf_counter()
        import adapters  # noqa: F401
        import workloads  # noqa: F401
        readings = [time.perf_counter() - t0]
        for _ in range(2):
            done = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE, *SOURCES],
                capture_output=True, text=True, check=True)
            readings.append(float(done.stdout))
        _import_s = median(readings)
    return _import_s


def run_workload(name: str, *, seed: int, seconds: float | None,
                 reps: int | None, trace: bool, scale: float = 1.0,
                 spans: str | None = None) -> dict:
    """Run one workload in this process; returns its record."""
    import_s = _import_program()
    from checks import Ledger
    from workloads import WORKLOAD_CLASSES

    ledger = Ledger()
    workload = WORKLOAD_CLASSES[name](seed, scale, ledger)
    try:
        return _measure(workload, ledger, import_s, seconds=seconds,
                        reps=reps, trace=trace, spans=spans)
    finally:
        workload.close()


def _measure(workload, ledger, import_s: float, *, seconds: float | None,
             reps: int | None, trace: bool, spans: str | None) -> dict:
    import adapters as A
    from tracing import Tracer, layer_of
    from workloads import DEFAULT_REPS, SETUP_EVERY_ROUND

    now = time.perf_counter
    name, seed, scale = workload.name, workload.seed, workload.scale
    tracer = Tracer()
    setup_s: list[float] = []

    def one_round() -> float:
        """Set up if due, run a round; seconds inside its timed operations."""
        if SETUP_EVERY_ROUND[name] or not setup_s:
            t0 = now()
            workload.setup()
            setup_s.append(now() - t0)
        before = workload.op_seconds()
        workload.round(tracer)
        return workload.op_seconds() - before

    if reps is None and seconds is None:
        reps = DEFAULT_REPS[name]
    record = {"workload": name, "seed": seed, "scale": scale,
              "trace": bool(trace)}
    if not trace:
        begin = now()
        rounds = 0
        while True:
            one_round()
            workload.end_round()
            rounds += 1
            if reps is not None:
                if rounds >= reps:
                    break
            else:
                # Stop at the whole number of rounds nearest to --seconds
                # (the first set-up is not part of the measured time).
                elapsed = now() - begin - setup_s[0]
                if elapsed + 0.5 * elapsed / rounds > seconds:
                    break
        workload.finish()
        record["rounds"] = rounds
        record["measured_s"] = now() - begin - setup_s[0]
    else:
        # A fixed amount of work, so counts repeat exactly under one seed:
        # one round untraced, the same round again with spans on.
        plain_s = one_round()
        workload.end_round()
        targets = A.TRACE_TARGETS
        tracer.install(targets, A.resolve)
        tracer.active = True
        try:
            traced_s = one_round()
            workload.probes(tracer)
        finally:
            tracer.active = False
            tracer.uninstall()
        workload.end_round()
        workload.finish()
        missing = {**tracer.missing_layers(targets), **workload.missing}
        layers = workload.per_layer(tracer)
        layers["obs.trace_overhead"] = traced_s / plain_s - 1.0
        record["per_layer"] = {
            metric: (None if layer_of(metric) in missing
                     else float(layers.get(metric, 0.0)))
            for metric in PER_LAYER}
        record["missing_layers"] = missing
        record["layer_self_s"] = tracer.layer_self_s()
        record["span_summary"] = tracer.summary()
        record["traced_wall_s"] = tracer.wall_s()
        record["traced_round_s"] = traced_s
        record["plain_round_s"] = plain_s
        record["spans"] = len(tracer.spans)
        if spans:
            tracer.write(spans)

    e2e = workload.e2e()
    e2e["setup_s"] = (import_s + median(setup_s), len(setup_s))
    e2e["fail_ratio"] = (ledger.fail_ratio, ledger.attempted)
    e2e["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    record["e2e"] = {k: {"value": float(v), "unit": E2E[k][0], "n": int(n)}
                     for k, (v, n) in e2e.items()}
    slots = workload.slots(e2e)
    slots["setup_s"] = e2e["setup_s"][0]
    slots["peak_rss_mb"] = e2e["peak_rss_mb"][0]
    record["slots"] = {k: float(slots[k]) for k in SLOTS}
    record["import_s"] = import_s
    record["samples"] = workload.sample_counts()
    record["attempted"] = ledger.attempted
    record["failed"] = ledger.failed
    record["failures"] = ledger.failures
    return record


# -- printing ----------------------------------------------------------------

def print_record(record: dict) -> None:
    name = record["workload"]
    print(f"\n== {name}  seed={record['seed']} scale={record['scale']:g} "
          f"trace={'on' if record['trace'] else 'off'} ==")
    print(f"{'end-to-end metric':<34}{'value':>16}  {'unit':<6} n")
    for metric in E2E_BY_WORKLOAD[name]:
        row = record["e2e"][metric]
        print(f"{metric:<34}{row['value']:>16.6g}  {row['unit']:<6} "
              f"{row['n']}")
    if record["trace"]:
        wall = record["traced_wall_s"]
        print(f"\n{'layer (self time; traced round + probes)':<44}"
              f"{'self_s':>10} {'share':>7}")
        for layer, self_s in sorted(record["layer_self_s"].items(),
                                    key=lambda kv: -kv[1]):
            print(f"{layer:<44}{self_s:>10.4f} {self_s / wall:>7.1%}")
        print(f"\n{'per-layer metric':<40}{'value':>16}  unit")
        for metric, value in record["per_layer"].items():
            unit = PER_LAYER[metric][0]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{metric:<40}{shown:>16}  {unit}")
        for layer, why in record["missing_layers"].items():
            print(f"  null: layer {layer} unresolved: {why}")
        if record["per_layer"]["obs.trace_overhead"] > 0.10:
            print("  ! tracing overhead above 10 %: per-layer times are "
                  "unreliable for this workload")
    for why in record["failures"]:
        print(f"  FAILED: {why}")
    print(f"attempted={record['attempted']} failed={record['failed']}")


def driver_line(record: dict) -> str:
    """The one JSON object BENCHMARK.json promises, for the last line."""
    if record["trace"]:
        metrics = {k: {"value": -1.0 if v is None else v,
                       "unit": PER_LAYER[k][0]}
                   for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": SLOTS[k][0]}
                   for k, v in record["slots"].items()}
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


# -- every workload, each in its own process ----------------------------------

def _provenance(args) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    import scipy
    return {"seed": args.seed, "holdout_seed": HOLDOUT_SEED, "git_rev": rev,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "runs": args.runs,
            "reps": args.reps, "seconds": args.seconds}


def _child(name: str, args, trace: bool) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--trace", str(int(trace)),
               "--record"]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.reps is not None:
        command += ["--reps", str(args.reps)]
    done = subprocess.run(command, capture_output=True, text=True)
    for line in done.stdout.splitlines():
        if line.startswith(RECORD_PREFIX):
            return json.loads(line[len(RECORD_PREFIX):])
    raise SystemExit(f"{name}: no record (exit {done.returncode})\n"
                     f"{done.stdout}\n{done.stderr}")


def run_all(args) -> int:
    report = {"meta": _provenance(args), "workloads": {}}
    failed = 0
    for name in WORKLOADS:
        entry = {"runs": [], "traced": None}
        for _ in range(args.runs):
            record = _child(name, args, trace=False)
            print_record(record)
            failed += record["failed"]
            entry["runs"].append(record)
        if args.trace:
            record = _child(name, args, trace=True)
            print_record(record)
            failed += record["failed"]
            entry["traced"] = record
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nreport written to {args.out}")
    print(f"\nfail_ratio is {'0' if not failed else 'NOT 0'} "
          f"({failed} failed operations)")
    return 1 if failed else 0


# -- the --quick self-test -----------------------------------------------------

def selftest(seed: int) -> int:
    """Every workload at 1/20 size, both modes; checks the shape of what
    comes out and that the output check can fail."""
    from checks import allocation_violations
    problems: list[str] = []
    t0 = time.perf_counter()
    for name in WORKLOADS:
        for trace in (False, True):
            record = run_workload(name, seed=seed, seconds=None, reps=1,
                                  trace=trace, scale=0.05)
            line = json.loads(driver_line(record))
            want = set(PER_LAYER) if trace else set(SLOTS)
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: driver line keys {sorted(line)}")
            if set(line["metrics"]) != want:
                problems.append(f"{name}: driver metrics differ from spec: "
                                f"{sorted(set(line['metrics']) ^ want)}")
            for metric, row in line["metrics"].items():
                if not isinstance(row["value"], (int, float)) \
                        or not row["unit"]:
                    problems.append(f"{name}: {metric} = {row}")
            if not trace and any(v == 0 for v in record["slots"].values()):
                problems.append(f"{name}: a slot reads 0: {record['slots']}")
            for metric in E2E_BY_WORKLOAD[name]:
                if metric not in record["e2e"]:
                    problems.append(f"{name}: {metric} missing")
            if record["failed"] or not line["correct"]:
                problems.append(f"{name}: {record['failures']}")
            if trace and record["missing_layers"]:
                problems.append(f"{name}: {record['missing_layers']}")
            print(f"quick {name:<15} trace={int(trace)} "
                  f"attempted={record['attempted']} failed={record['failed']}")
    # A corrupted allocation must trip the output check.
    demands = np.array([3.0, 5.0])
    mask = np.array([[True, True, False], [True, True, True]])
    good = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 2.0]])
    caps = np.array([10.0, 10.0, 10.0])
    if allocation_violations(good, demands, mask, caps):
        problems.append("a feasible allocation was rejected")
    corrupted = {
        "masked entry": (good + [[0, 0, 0.5], [0, 0, 0]], demands),
        "row sum": (good * [[1.0], [0.9]], demands),
        "negative entry": (good + [[0, 0, 0], [-2.0, 2.0, 0]], demands),
        "over capacity": (good * 4.0, demands * 4.0),
    }
    for what, (allocation, wanted) in corrupted.items():
        if not allocation_violations(allocation, wanted, mask, caps):
            problems.append(f"corrupted allocation passed: {what}")
    elapsed = time.perf_counter() - t0
    for problem in problems:
        print(f"selftest problem: {problem}")
    print(f"selftest {'ok' if not problems else 'FAILED'} in {elapsed:.1f} s")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"drives every generator (default "
                             f"{DEFAULT_SEED}; hold-out {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float,
                        help="repeat rounds for about this long")
    parser.add_argument("--reps", type=int,
                        help="repeat exactly this many rounds instead")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="per-layer pass with benchmark-side spans")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (all-workload mode)")
    parser.add_argument("--out", help="write the full report here (JSON)")
    parser.add_argument("--spans", help="write the traced spans here (JSONL)")
    parser.add_argument("--record", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true",
                        help="self-test at 1/20 size")
    args = parser.parse_args(argv)
    _adopt_orphans()
    try:
        return _dispatch(args)
    finally:
        _stop_children()


def _dispatch(args) -> int:
    if args.quick:
        return selftest(args.seed)
    if args.workload is None:
        return run_all(args)
    record = run_workload(args.workload, seed=args.seed,
                          seconds=args.seconds, reps=args.reps,
                          trace=bool(args.trace), spans=args.spans)
    print_record(record)
    if args.out:
        entry = {"runs": [] if args.trace else [record],
                 "traced": record if args.trace else None}
        report = {"meta": _provenance(args),
                  "workloads": {args.workload: entry}}
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.record:
        print(RECORD_PREFIX + json.dumps(record))
    print(driver_line(record))
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())

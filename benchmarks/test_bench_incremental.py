"""Benchmark — per-event incremental updates vs warm full re-solves.

Gates for the delta-event path (:mod:`repro.core.incremental`) at the
fig9 10^4-client scale: a single-client event must be absorbed in a
bounded number of Gauss–Seidel sweeps while landing on the objective of
the warm full re-solve it replaces, and a longer churn soak must stay
fallback-free with bounded p99 event latency.
"""

from repro.experiments import fig9

#: The acceptance gate: mean Gauss–Seidel sweeps one event may cost.  A
#: count, so it repeats exactly under one seed; the wall-clock speedup
#: over the warm full re-solve is reported as information only (it moves
#: with the host and with every speedup of the re-solve it divides by).
MAX_SWEEPS_PER_EVENT = 2.0

#: Relative objective gap the incremental answer must stay within.
MAX_REL_GAP = 1e-6


def test_bench_incremental_events(benchmark, report_sink):
    result = benchmark.pedantic(
        fig9.run_incremental_events,
        kwargs={"n_clients": 10_000, "n_events": 200},
        rounds=1, iterations=1)
    report_sink("incremental_events", result.render())
    # The acceptance gate: a per-client event costs a bounded number of
    # refinement sweeps, not a re-solve...
    sweeps_per_event = result.extras["sweeps"] / len(result.event_ms)
    assert sweeps_per_event <= MAX_SWEEPS_PER_EVENT
    # ...while landing on the solver's answer at every compared event.
    assert result.worst_gap() <= MAX_REL_GAP
    assert result.fallbacks == 0
    benchmark.extra_info["mean_event_ms"] = round(result.mean_event_ms(), 4)
    benchmark.extra_info["sweeps_per_event"] = round(sweeps_per_event, 3)
    benchmark.extra_info["speedup"] = round(result.speedup(), 2)


def test_bench_incremental_churn_soak(benchmark, report_sink):
    # Sustained churn: 1000 arrivals/departures/demand changes against
    # one state, objective-checked every 25 events.  The population and
    # total demand random-walk, so this exercises drift accounting and
    # headroom tracking far past what the headline bench touches.
    result = benchmark.pedantic(
        fig9.run_incremental_events,
        kwargs={"n_clients": 10_000, "n_events": 1000, "compare_every": 25,
                "event_seed": 11},
        rounds=1, iterations=1)
    report_sink("incremental_churn_soak", result.render())
    # Tail latency stays bounded across the whole soak...
    assert result.event_p(99) <= 5.0
    # ...the allocation never drifts off the solver's answer...
    assert result.worst_gap() <= MAX_REL_GAP
    # ...and the state absorbs the churn without bailing to full solves.
    assert result.fallbacks == 0
    benchmark.extra_info["p99_event_ms"] = round(result.event_p(99), 4)

"""Benchmark-harness plumbing.

Each benchmark regenerates one of the paper's figures at full scale,
prints the same rows/series the paper reports, and saves the rendered
report under ``benchmarks/reports/`` so EXPERIMENTS.md can cite it.
Run with::

    pytest benchmarks/ --benchmark-only -s
"""

import pathlib

import pytest

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


@pytest.fixture
def report_sink():
    """Returns a writer that prints and persists a figure report."""
    REPORT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (REPORT_DIR / f"{name}.txt").write_text(text + "\n")

    return write


@pytest.fixture
def json_sink():
    """Writer persisting machine-readable results next to the text report."""
    from repro.metrics.serialize import dump_results

    REPORT_DIR.mkdir(exist_ok=True)

    def write(name: str, results: dict) -> None:
        (REPORT_DIR / f"{name}.json").write_text(dump_results(results))

    return write

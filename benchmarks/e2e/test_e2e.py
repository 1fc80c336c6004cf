"""``pytest benchmarks/e2e`` — the benchmark's own self-test.

Runs ``run.py --quick`` (every workload at 1/20 size, plain and traced)
and checks that ``BENCHMARK.json`` and the harness name the same metrics.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


def test_quick_selftest():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest ok" in done.stdout


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    end_to_end = {m["name"]: (m["unit"], m["better"])
                  for m in spec["end_to_end"]}
    assert end_to_end == metrics.SLOTS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in spec["per_layer"]}
    assert per_layer == metrics.PER_LAYER


def test_every_issue_metric_is_documented():
    readme = (HERE / "README.md").read_text()
    for name in list(metrics.E2E) + list(metrics.PER_LAYER) \
            + list(metrics.SLOTS) + list(metrics.WORKLOADS):
        assert f"`{name}`" in readme, name

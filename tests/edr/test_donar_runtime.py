"""Tests for the DONAR mapping-node runtime."""

import pytest

from repro.edr import donar_runtime
from repro.edr.donar_runtime import DonarRuntime
from repro.edr.system import RuntimeConfig
from repro.errors import ValidationError
from repro.experiments import fig9
from repro.experiments.scenarios import FIG9_PRICES
from repro.workload.requests import RequestTrace

from tests.edr.conftest import burst_trace


def _config():
    return RuntimeConfig(prices=FIG9_PRICES)


class TestDonarRuntime:
    @pytest.fixture(scope="class")
    def result(self):
        trace = burst_trace(count=16, n_clients=8, rate=40.0)
        runtime = DonarRuntime(trace, _config())
        return trace, runtime.run(app="dfs")

    def test_everything_delivered(self, result):
        trace, res = result
        assert res.extras["delivered_mb"] == pytest.approx(
            trace.total_mb(), rel=1e-9)
        assert len(res.response_times) == len(trace)

    def test_responses_positive_and_bounded(self, result):
        _, res = result
        assert all(0 < t < 1.0 for t in res.response_times)

    def test_messages_counted(self, result):
        _, res = result
        assert res.extras["messages"] > 0
        assert res.extras["batches"] >= 1

    def test_method_tag(self, result):
        _, res = result
        assert res.method == "donar"

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError):
            DonarRuntime(RequestTrace([]))

    def test_min_rounds_floor_slows_decisions(self, monkeypatch):
        trace = burst_trace(count=8, n_clients=8, rate=40.0)
        monkeypatch.setattr(donar_runtime, "MIN_ROUNDS", 1)
        fast = DonarRuntime(trace, _config()).run(app="dfs")
        monkeypatch.setattr(donar_runtime, "MIN_ROUNDS", 30)
        slow = DonarRuntime(trace, _config()).run(app="dfs")
        assert slow.mean_response > fast.mean_response

    def test_deterministic(self):
        trace = burst_trace(count=8, n_clients=8, rate=40.0)
        a = DonarRuntime(trace, _config()).run(app="dfs")
        b = DonarRuntime(trace, _config()).run(app="dfs")
        assert a.response_times == b.response_times


def test_fig9_golden():
    # Fig. 9's head-to-head, pinned to the digit: the runtimes share one
    # batching loop, and sharing it must not move either system.
    res = fig9.run(request_counts=(24, 48))
    assert res.donar_mean_response == [0.020527558856774875,
                                       0.02456710205133038]
    assert res.edr_mean_response == [0.03189967885677487,
                                     0.035167208717997035]
    assert res.donar_total_response == [0.49266141256259705,
                                        1.1792208984638586]

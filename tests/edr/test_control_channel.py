"""Solver coordination is charged, not delivered — and answers don't move.

`DistributedSolveSession` counts each LDDM/CDPSM round's messages on the
network and pays the round's max latency in its own timeout, without
scheduling a simulator event or filling a mailbox per message.  The
simulated answers are pinned to the values the per-message transport
produced (``control_channel_golden.json``: total cost, every response
time, message count and MB, seed 2013), and the event count to a budget
the per-message transport overran by 3–8×.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import PAPER_DFS, PAPER_VIDEO
from repro.experiments.runtime_common import run_runtime

GOLDEN = json.loads(
    (Path(__file__).with_name("control_channel_golden.json")).read_text())

#: Simulator events per run; charged rounds need 12 308 / 14 188 /
#: 3 919 / 4 394, delivered rounds needed 54 036 / 118 124 / 9 375 / 46 450.
EVENT_BUDGET = {
    "dfs/lddm": 13_000,
    "dfs/cdpsm": 15_000,
    "video/lddm": 4_200,
    "video/cdpsm": 4_700,
}

SCENARIOS = {"dfs": PAPER_DFS, "video": PAPER_VIDEO}


@pytest.fixture(scope="module", params=sorted(EVENT_BUDGET))
def run(request):
    app, algorithm = request.param.split("/")
    result, system = run_runtime(SCENARIOS[app], algorithm, seed=2013,
                                 keep_system=True)
    return request.param, result, system


def test_answers_match_the_per_message_transport(run):
    case, result, _system = run
    golden = GOLDEN[case]
    assert result.total_cents == golden["total_cents"]
    assert result.response_times == golden["response_times"]
    assert result.extras["messages"] == golden["messages"]
    assert result.extras["comm_mb"] == golden["comm_mb"]


def test_no_solver_mailbox_is_created(run):
    _case, _result, system = run
    ports = {port for _node, port in system.network._mailboxes}
    assert "replica" not in ports and "solve" not in ports
    assert ports == {"client", "assign"}


def test_simulator_events_within_budget(run):
    case, _result, system = run
    assert system.sim._queue._seq <= EVENT_BUDGET[case]

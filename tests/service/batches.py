"""Rejected ``/v1/events`` batches shared by the in-process and HTTP tests.

Every batch runs against the plane armed by ``SOLVE`` (clients a, b, c
on four 100 MB/s replicas) and must be refused *whole* with a typed
error, under every config in ``PLANE_CONFIGS``.
"""

from repro.edr.coordinator import ShardingConfig
from repro.edr.messages import WireEvent
from repro.edr.system import SolverOptions
from repro.service import ServiceConfig

DEMANDS = [40.0, 60.0, 30.0]
PRICES = [1.0, 8.0, 1.0, 6.0]
SOLVE = dict(demands=DEMANDS, prices=PRICES, clients=["a", "b", "c"])

PLANE_CONFIGS = {
    "default": ServiceConfig(),
    "2-shard": ServiceConfig(solver=SolverOptions(
        sharding=ShardingConfig(n_shards=2))),
}


def arrival(name, demand=10.0, elig=(1, 1, 1, 1)):
    return WireEvent(kind="arrival", client=name, demand=demand,
                     eligibility=[bool(b) for b in elig])


def change(name, demand):
    return WireEvent(kind="demand_change", client=name, demand=demand)


def departure(name):
    return WireEvent(kind="departure", client=name)


NAN, INF = float("nan"), float("inf")

#: id -> (batch, error type, fragment the message must carry)
BAD_BATCHES = {
    "unknown-after-valid": ([arrival("d"), departure("zz")],
                            "ValidationError", "event 1: unknown client"),
    "duplicate-registered": ([arrival("a")],
                             "ValidationError", "event 0: client 'a' already"),
    "duplicate-in-batch": ([arrival("d"), arrival("d")],
                           "ValidationError", "event 1: client 'd' already"),
    "departed-in-batch": ([departure("a"), change("a", 5.0)],
                          "ValidationError", "event 1: unknown client"),
    "short-eligibility": ([arrival("d", elig=(1, 1, 1))],
                          "ValidationError", "event 0: eligibility"),
    "no-eligible-replica": ([arrival("d", elig=(0, 0, 0, 0))],
                            "ValidationError", "event 0: client 'd' has"),
    "nan-arrival": ([arrival("d"), arrival("e", NAN)],
                    "ValidationError", "event 1: demand"),
    "inf-arrival": ([arrival("d", INF)],
                    "ValidationError", "event 0: demand"),
    "negative-arrival": ([arrival("d", -1.0)],
                         "ValidationError", "event 0: demand"),
    "nan-change": ([change("a", NAN)],
                   "ValidationError", "event 0: demand"),
    "inf-change": ([change("b", 5.0), change("a", INF)],
                   "ValidationError", "event 1: demand"),
    "negative-change": ([change("a", -3.0)],
                        "ValidationError", "event 0: demand"),
    "over-capacity": ([arrival("d", 1e6)],
                      "InfeasibleProblemError", "exceeds reachable capacity"),
    "over-eligible-capacity": ([arrival("d", 150.0, elig=(0, 1, 0, 0))],
                               "InfeasibleProblemError",
                               "exceeds reachable capacity"),
    # 10 + 60 + 30 + 301 = 401 MB on 400 MB/s: the freed 30 MB does not
    # make room for the arrival.
    "just-over-capacity": ([change("a", 10.0), arrival("d", 301.0)],
                           "InfeasibleProblemError",
                           "exceeds reachable capacity"),
}

"""``python -m repro.service`` — run a control-plane server.

Binds the versioned JSON endpoints (``/v1/solve``, ``/v1/events``,
``/v1/membership``, ``/v1/agents/*``, ``/v1/health``) and the
``/metrics`` Prometheus scrape on one address and serves until
interrupted.
"""

from __future__ import annotations

import argparse
import sys

from repro.edr.coordinator import ShardingConfig
from repro.edr.system import FaultConfig, SolverOptions
from repro.service.plane import ServiceConfig
from repro.service.server import ControlPlaneServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve the EDR control plane over HTTP.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8080,
                        help="bind port, 0 = pick free (default: %(default)s)")
    parser.add_argument("--hb-interval", type=float, default=0.05,
                        help="heartbeat cadence handed to agents, seconds")
    parser.add_argument("--hb-timeout", type=float, default=0.25,
                        help="heartbeat age after which an agent is dead")
    parser.add_argument("--shards", type=int, default=0,
                        help="shard the event plane across N shards "
                             "(0 = single incremental state)")
    parser.add_argument("--shard-mode", default="serial",
                        choices=("serial", "process"),
                        help="shard execution mode (default: %(default)s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    sharding = None
    if args.shards > 0:
        sharding = ShardingConfig(n_shards=args.shards, mode=args.shard_mode)
    config = ServiceConfig(
        host=args.host, port=args.port,
        solver=SolverOptions(sharding=sharding),
        faults=FaultConfig(hb_interval=args.hb_interval,
                           hb_timeout=args.hb_timeout))
    server = ControlPlaneServer(config)
    print(f"repro control plane listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

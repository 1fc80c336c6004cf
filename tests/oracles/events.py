"""The per-event batch path ``ShardCoordinator.apply_events`` replaced.

``validate_batch`` is ``service/plane.py``'s ``_validate_batch`` (the
service's own registry walk plus a max-flow certificate on every POST)
and ``apply_event`` is ``ShardCoordinator.apply_event`` from before it
became a batch of one: route, absorb the one event in its shard, refresh
or recover.  ``apply_sequentially`` is the loop the service ran over
them.  The bodies are verbatim but for the signatures (free functions
taking the coordinator) and the dropped recorder calls; the shard's
``IncrementalState.apply_event`` they call is today's record + absorb.
"""

from __future__ import annotations

import numpy as np

from repro.core.incremental import ClientArrival, ClientDeparture
from repro.core.params import ProblemData
from repro.core.problem import ReplicaSelectionProblem
from repro.edr.coordinator import RoutedResult, ShardCoordinator
from repro.errors import ValidationError


def validate_batch(coord: ShardCoordinator, events: list) -> None:
    """Reject a bad batch whole, naming the offending event's index."""
    def bad(i: int, what: str) -> ValidationError:
        return ValidationError(f"event {i}: {what}")

    tokens, masks, demands, _ = coord.class_snapshot()
    index = {t: k for k, t in enumerate(tokens)}
    masks, demands = list(masks), list(demands)
    overlay: dict[str, tuple[bytes, float] | None] = {}
    for i, event in enumerate(events):
        name, departs = event.client, isinstance(event, ClientDeparture)
        reg = overlay.get(name, coord.registered(name))
        new = 0.0 if departs else float(event.demand)
        if not 0.0 <= new < np.inf:
            raise bad(i, f"demand must be finite and nonnegative, "
                         f"got {new}")
        if isinstance(event, ClientArrival):
            row = np.asarray(event.eligibility, dtype=bool)
            if reg is not None:
                raise bad(i, f"client {name!r} already registered")
            if row.shape != (coord.n_replicas,):
                raise bad(i, "eligibility row has wrong length")
            if new > 0.0 and not row.any():
                raise bad(i, f"client {name!r} has positive demand but "
                             f"no eligible replica")
            reg = (row.tobytes(), 0.0)
            if reg[0] not in index:
                index[reg[0]] = len(masks)
                masks.append(row)
                demands.append(0.0)
        elif reg is None:
            raise bad(i, f"unknown client {name!r}")
        token, old = reg
        overlay[name] = None if departs else (token, new)
        demands[index[token]] += new - old
    ReplicaSelectionProblem(ProblemData(
        demands=np.maximum(demands, 0.0), capacities=coord.B,
        prices=coord.u, alpha=coord.alpha, beta=coord.beta,
        gamma=coord.gamma, mask=np.asarray(masks)
    )).require_feasible()


def apply_event(coord: ShardCoordinator, event) -> RoutedResult:
    """Route one client event to its owning shard; O(K_s * N)."""
    reg = coord.registered(event.client)
    if isinstance(event, ClientArrival):
        if reg is not None:
            raise ValidationError(
                f"client {event.client!r} already registered")
        token = np.asarray(event.eligibility, dtype=bool).tobytes()
    elif reg is None:
        raise ValidationError(f"unknown client {event.client!r}")
    else:
        token = reg[0]
    s = coord._token_shard.get(token)
    if s is None:
        s = coord._lightest([sh.demand() for sh in coord.shards])
    coord.refresh_loads()
    sh = coord.shards[s]
    st = sh.state
    st.set_background(coord.background(s))
    k0 = st.n_classes
    r = st.apply_event(event)
    coord._token_shard[token] = s
    coord._touch_after(sh, k0)
    if r.ok:
        return coord._maybe_refresh(r.events, r.sweeps)
    coord.fallbacks += 1
    st.force_target(list(st.tokens), st.masks, st.D)
    res = coord.solve()
    coord.refreshes += 1
    return RoutedResult(ok=True, events=1, sweeps=res.sweeps,
                        rounds=res.rounds, refreshed=True,
                        residual=res.residual, fallback_reason=r.reason)


def apply_sequentially(coord: ShardCoordinator,
                       events: list) -> list[RoutedResult]:
    """Validate the whole batch, then apply it one event at a time."""
    if events:
        validate_batch(coord, events)
    return [apply_event(coord, event) for event in events]

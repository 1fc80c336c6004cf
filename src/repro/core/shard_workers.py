"""Persistent shard workers: shared-memory geometry, delta-only rounds.

Process-mode execution of the sharded plane.  Pool spin-up and pickling
a shard's static cost constants, masks and capacities dwarf a round's
actual arithmetic at class-space sizes, and the geometry only changes
on events/re-layouts — so one worker pool stays alive across solves and
a shard's state is split into two shipments per geometry *version* (see
:attr:`repro.core.shard.SolveShard.version`):

* a **static block** — one pickle of the shard's tokens, demands,
  capacities, prices, cost constants and masks, written into a
  :class:`multiprocessing.shared_memory.SharedMemory` segment exactly
  once per version; and
* a **state block** — a raw ``(K_s + 1, N)`` float64 segment holding
  the mutable allocation rows plus the column-load row, which the
  parent rewrites in place after adopting each round's result.

A round then ships only the true per-round delta — background loads,
damping and the current demand vector — plus the segment names; the
worker rebuilds (or reuses) its cached :class:`~repro.core.shard.
SolveShard`, reads the allocation from shared memory, runs the
identical ``solve_round`` arithmetic, and returns just the updated
``(K_s, N)`` rows.  The parent republishes its own ``Q`` and ``loads``
into the state block at the start of every round, so the worker starts
from bit-identical inputs to the serial path even after out-of-round
writes (retargets, absorbed events, warm seeds).  Shipping demands in
the delta is what lets a pure retarget keep the geometry cache warm:
only membership, mask or capacity changes bump the shard version and
force a static re-ship.

There is deliberately **no task -> worker affinity**: any worker can
pick up any shard because the shipments, not the worker, carry the
state.  A worker that has never seen (or has an outdated version of) a
shard pays one static unpickle; after that, rounds are delta-only no
matter how the executor schedules them.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from repro.core.shard import ShardRound, SolveShard
from repro.util.cpus import resolve_workers

__all__ = ["ShardWorkerPool", "run_worker_round", "run_worker_rounds"]

#: Pickle-framing allowance counted per returned result (rows ship as
#: one ndarray plus a handful of scalars).
_RESULT_OVERHEAD = 96

#: Worker-process cache: shard id -> (version, SolveShard, state shm).
#: Lives in the worker interpreter; the parent never touches it.
_CACHE: dict[int, tuple[int, SolveShard, shared_memory.SharedMemory]] = {}


def _build_worker_shard(task: dict) -> tuple[SolveShard,
                                             shared_memory.SharedMemory]:
    """Attach the task's shipments and rebuild the shard (cache miss)."""
    static = shared_memory.SharedMemory(name=task["static_name"])
    try:
        geo = pickle.loads(bytes(static.buf[:task["static_size"]]))
    finally:
        static.close()
    shard = SolveShard(
        task["shard"], tokens=geo["tokens"], demands=geo["demands"],
        capacities=geo["capacities"], prices=geo["prices"],
        alpha=geo["alpha"], beta=geo["beta"], gamma=geo["gamma"],
        mask=geo["mask"])
    state_shm = shared_memory.SharedMemory(name=task["state_name"])
    return shard, state_shm


def run_worker_round(task: dict) -> tuple[int, np.ndarray, int, bool, bool]:
    """Persistent-pool worker: delta-only round against cached geometry.

    Rebuilds the shard only when the task's version differs from the
    cached one, copies the allocation + loads the parent published in
    the state block, and runs the same :meth:`~repro.core.shard.
    SolveShard.solve_round` code path as every other execution mode.
    """
    sid = int(task["shard"])
    cached = _CACHE.get(sid)
    if cached is None or cached[0] != task["version"]:
        if cached is not None:
            cached[2].close()
        shard, state_shm = _build_worker_shard(task)
        _CACHE[sid] = (int(task["version"]), shard, state_shm)
        cached = _CACHE[sid]
    _, shard, state_shm = cached
    st = shard.state
    rows, cols = int(task["rows"]), int(task["cols"])
    block = np.ndarray((rows + 1, cols), dtype=np.float64,
                       buffer=state_shm.buf)
    st.Q = block[:rows].copy()
    st.loads = block[rows].copy()
    st.D[:] = task["demands"]
    result = shard.solve_round(task["background"], task["damping"])
    return (sid, st.Q, result.sweeps, result.converged, result.fit)


def run_worker_rounds(tasks: list) -> list:
    """One worker's whole share of a round, in a single submission.

    Dispatching per shard costs one scheduling wakeup each; on small
    fleets that latency — not the row arithmetic — is the round's
    floor.  The pool therefore chunks a round's tasks into one batch
    per worker; the arithmetic and its ordering are unchanged (each
    task is the same :func:`run_worker_round`, and rounds are
    order-independent by construction).
    """
    return [run_worker_round(t) for t in tasks]


class _Shipment:
    """One shard version published to the workers (two shm segments)."""

    def __init__(self, shard: SolveShard) -> None:
        st = shard.state
        blob = pickle.dumps(shard.static_payload(),
                            protocol=pickle.HIGHEST_PROTOCOL)
        self.version = shard.version
        self.rows, self.cols = st.Q.shape
        self.static_size = len(blob)
        self.static = shared_memory.SharedMemory(
            create=True, size=max(self.static_size, 1))
        self.static.buf[:self.static_size] = blob
        state_size = max((self.rows + 1) * self.cols * 8, 8)
        self.state_shm = shared_memory.SharedMemory(
            create=True, size=state_size)
        self.nbytes = self.static_size + state_size
        self._closed = False
        self.write_state(st)

    def write_state(self, st) -> None:
        """Publish the parent's current allocation rows + column loads."""
        block = np.ndarray((self.rows + 1, self.cols), dtype=np.float64,
                           buffer=self.state_shm.buf)
        block[:self.rows] = st.Q
        block[self.rows] = st.loads

    def close(self) -> None:
        """Unlink both segments (workers holding maps keep them alive)."""
        if self._closed:
            return
        self._closed = True
        for seg in (self.static, self.state_shm):
            try:
                seg.close()
                seg.unlink()
            except (FileNotFoundError, OSError):  # already gone at exit
                pass


class ShardWorkerPool:
    """A long-lived process pool plus the per-shard shm shipments.

    Owned by the :class:`~repro.edr.coordinator.ShardCoordinator` for
    its whole lifetime: the executor starts lazily on the first round
    and survives across solves and event storms; :meth:`close` tears
    down the workers and unlinks every shipment.  ``static_bytes`` /
    ``round_bytes`` account what actually crossed the process boundary
    — the bench gates pin that the per-round share is independent of
    how many rounds ran.
    """

    def __init__(self, *, max_workers: int | None = None) -> None:
        self.max_workers = max_workers
        self.workers = 0
        self.static_bytes = 0
        self.round_bytes = 0
        self.rounds_shipped = 0
        self.reships = 0
        self._executor: ProcessPoolExecutor | None = None
        self._shipments: dict[int, _Shipment] = {}

    def _ensure_executor(self, n_shards: int) -> ProcessPoolExecutor:
        if self._executor is None:
            self.workers = resolve_workers(n_shards, self.max_workers)
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def run_round(self, shards: Sequence[SolveShard],
                  backgrounds: Sequence[np.ndarray],
                  damping: float) -> list[ShardRound]:
        """One Jacobi round across the fleet; adopts results in place."""
        executor = self._ensure_executor(len(shards))
        live = set()
        tasks = []
        for sh, bg in zip(shards, backgrounds):
            live.add(sh.shard_id)
            ship = self._shipments.get(sh.shard_id)
            if ship is None or ship.version != sh.version:
                if ship is not None:
                    ship.close()
                    self.reships += 1
                ship = _Shipment(sh)
                self._shipments[sh.shard_id] = ship
                self.static_bytes += ship.nbytes
            else:
                # Reused geometry: republish the parent's current rows
                # and loads so out-of-round writes (retargets, events,
                # warm seeds) are visible without a version bump.
                ship.write_state(sh.state)
            tasks.append({
                "shard": sh.shard_id, "version": ship.version,
                "static_name": ship.static.name,
                "static_size": ship.static_size,
                "state_name": ship.state_shm.name,
                "rows": ship.rows, "cols": ship.cols,
                "background": np.asarray(bg, dtype=float),
                "demands": np.asarray(sh.state.D, dtype=float),
                "damping": float(damping)})
        for sid in [s for s in self._shipments if s not in live]:
            self._shipments.pop(sid).close()
        self.round_bytes += sum(
            len(pickle.dumps(t, protocol=pickle.HIGHEST_PROTOCOL))
            for t in tasks)
        by_id = {sh.shard_id: sh for sh in shards}
        w = max(1, self.workers)
        chunks = [c for c in (tasks[i::w] for i in range(w)) if c]
        futures = [executor.submit(run_worker_rounds, c) for c in chunks]
        results = [r for fut in futures for r in fut.result()]
        out = []
        for sid, Q, sweeps, conv, fit in results:
            sh = by_id[sid]
            sh.adopt(Q)
            self.round_bytes += Q.nbytes + _RESULT_OVERHEAD
            out.append(ShardRound(sid, sh.state.loads.copy(), sweeps,
                                  conv, fit))
        self.rounds_shipped += 1
        return out

    def close(self) -> None:
        """Shut the workers down and unlink every shipment (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        for ship in self._shipments.values():
            ship.close()
        self._shipments.clear()

    def __del__(self) -> None:  # safety net; close() is the contract
        try:
            self.close()
        except Exception:
            pass

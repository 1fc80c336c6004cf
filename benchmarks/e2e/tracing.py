"""Benchmark-side spans wrapped around calls into the program's layers.

The program is not edited: a span is recorded by swapping a layer's
callable for a timing wrapper while a traced pass runs and swapping it
back afterwards.  A span is ``(id, name, op, parent, start_ns, end_ns)``; its
layer is the name without the last component (``core.aggregate.group`` is
layer ``core.aggregate``).  Spans stay in memory until the pass ends.

A layer's *self time* is its spans' duration minus the time their child
spans cover.  One benchmark thread drives the program (closed loop, one
caller), so children of one span never overlap and the subtraction is a
plain sum.  The HTTP server answers on its own thread while the caller is
blocked in the socket: a span opened on a thread with no open span of its
own takes the caller's open ``remote`` span as parent.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_ID, _NAME, _OP, _PARENT, _START, _END = range(6)


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        #: closed spans: (id, name, op, parent id or None, start_ns, end_ns)
        #: — tuples of plain values, which the garbage collector stops
        #: tracking, so a few hundred thousand of them cost it nothing
        self.spans: list[tuple] = []
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._op = 0
        self._remote = None
        self._patched: list[tuple[object, str, object]] = []
        #: target path -> why it could not be wrapped
        self.missing: dict[str, str] = {}
        #: span name -> captured positional arguments (first ``capture`` calls)
        self.captured: dict[str, list] = defaultdict(list)

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = stack = []
            return stack

    @contextmanager
    def op(self, name: str):
        """One benchmark operation: the root span every layer span hangs off."""
        if not self.active:
            yield
            return
        self._op += 1
        stack = self._stack()
        ident = next(self._ids)
        stack.append(ident)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((ident, "bench." + name, self._op, None,
                               start, time.perf_counter_ns()))
            stack.pop()

    def wrap(self, fn, name: str, *, remote: bool = False, capture: int = 0):
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else self._remote
            ident = next(ids)
            stack.append(ident)
            if remote:
                self._remote = ident
            if capture and len(self.captured[name]) < capture:
                self.captured[name].append(args)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((ident, name, self._op, parent, start, clock()))
                stack.pop()
                if remote:
                    self._remote = None
        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------
    def install(self, targets, resolve) -> None:
        """Wrap every ``(span name, path, options)`` target that resolves.

        ``resolve(path)`` returns ``(owner, attribute)``; a path that does
        not resolve marks the target's layer as missing instead of failing
        the run.
        """
        for name, path, options in targets:
            try:
                owner, attr = resolve(path)
                raw = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing[path] = f"{type(exc).__name__}: {exc}"
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(raw.__func__, name, **options))
            else:
                wrapped = self.wrap(raw, name, **options)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def missing_layers(self, targets) -> dict[str, str]:
        return {layer_of(name): f"{path}: {self.missing[path]}"
                for name, path, _options in targets if path in self.missing}

    # -- analysis ----------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds."""
        child = defaultdict(int)
        for span in self.spans:
            if span[_PARENT] is not None:
                child[span[_PARENT]] += span[_END] - span[_START]
        out: dict[str, dict] = defaultdict(
            lambda: {"n": 0, "total_s": 0.0, "self_s": 0.0})
        for span in self.spans:
            dur = span[_END] - span[_START]
            row = out[span[_NAME]]
            row["n"] += 1
            row["total_s"] += dur / 1e9
            row["self_s"] += (dur - child[span[_ID]]) / 1e9
        return dict(out)

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer; they add up to :meth:`wall_s` exactly,
        ``bench`` being the time inside operations but outside every
        wrapped layer."""
        layers: dict[str, float] = defaultdict(float)
        for name, row in self.summary().items():
            layers[layer_of(name)] += row["self_s"]
        return dict(layers)

    def wall_s(self) -> float:
        """Seconds inside benchmark operations (the root spans)."""
        return sum(s[_END] - s[_START] for s in self.spans
                   if s[_PARENT] is None) / 1e9

    def durations(self, name: str, under_op: str | None = None) -> list[float]:
        """Seconds of every ``name`` span, optionally only inside ``op``s
        called ``under_op``."""
        ops = None
        if under_op is not None:
            ops = {s[_OP] for s in self.spans
                   if s[_NAME] == "bench." + under_op}
        return [(s[_END] - s[_START]) / 1e9 for s in self.spans
                if s[_NAME] == name and (ops is None or s[_OP] in ops)]

    def self_durations(self, name: str, under_op: str,
                       minus: str | None = None) -> list[float]:
        """Seconds of ``name`` spans inside ``under_op`` minus their direct
        children (only those called ``minus`` when given)."""
        ops = {s[_OP] for s in self.spans if s[_NAME] == "bench." + under_op}
        child = defaultdict(int)
        for s in self.spans:
            parent = s[_PARENT]
            if parent is not None and (minus is None or s[_NAME] == minus):
                child[parent] += s[_END] - s[_START]
        return [(s[_END] - s[_START] - child[s[_ID]]) / 1e9
                for s in self.spans if s[_NAME] == name and s[_OP] in ops]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans):
                fh.write(json.dumps({
                    "id": s[_ID], "name": s[_NAME],
                    "layer": layer_of(s[_NAME]), "op": s[_OP],
                    "parent": s[_PARENT],
                    "start_ns": s[_START], "end_ns": s[_END]}) + "\n")

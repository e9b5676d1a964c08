"""Span tracing from outside the engine, for the per-layer numbers.

:func:`traced` wraps the public methods of each engine layer (class
attributes, restored on exit) so that every call records a span: its
layer name, start, end and the enclosing span.  Spans live in four
flat arrays in memory and are written out once, at the end.  Calls nest
properly because the engine is single-threaded.

A span's self time is its duration minus the part covered by its direct
child spans.  The wrappers cost time of their own, which would
otherwise land in the self time of the caller's span and of the wrapped
span; :func:`wrapper_overhead` measures that cost on the running host
and the self times are corrected by it.

End-to-end numbers never come from a traced run: untraced runs use
the original methods, with no wrapper in place.
"""

from __future__ import annotations

import contextlib
import time
from array import array

from repro.core.analyzer import SPAnalyzer
from repro.engine.dsms import DSMS
from repro.engine.executor import Executor
from repro.engine.fusion import FusedChain
from repro.engine.session import StreamingSession
from repro.observability.audit import AuditLog
from repro.operators.base import Operator
from repro.operators.dupelim import DuplicateElimination
from repro.operators.groupby import GroupBy
from repro.operators.index_join import IndexSAJoin
from repro.operators.join import NestedLoopSAJoin
from repro.operators.project import Project
from repro.operators.select import Select
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink

#: Operator class -> layer.  Delivery shields are SecurityShields and
#: count under ``shield``; ``sink`` is the result collector.
OPERATOR_LAYERS = {
    SecurityShield: "shield",
    Select: "select",
    Project: "project",
    IndexSAJoin: "join",
    NestedLoopSAJoin: "join",
    GroupBy: "groupby",
    DuplicateElimination: "dupelim",
    CollectingSink: "sink",
}

#: Operator layers, in report order.
OPERATORS = ("shield", "select", "project", "join", "groupby", "dupelim",
             "sink")

#: (owner, method, span name) of every wrapped non-operator method.
METHOD_SPANS = (
    (DSMS, "run", "engine.dsms.run"),
    (DSMS, "build_plan", "engine.dsms.build_plan"),
    (Executor, "run", "engine.executor"),
    (Executor, "feed", "engine.executor"),
    (FusedChain, "run", "engine.fusion"),
    (SPAnalyzer, "process_batch", "core.analyzer"),
    (StreamingSession, "push", "engine.session.push"),
    (AuditLog, "record", "observability.audit"),
)

#: Analyzer generators: each ``next()`` on them is one analyzer span.
GENERATOR_SPANS = (
    (SPAnalyzer, "analyze", "core.analyzer"),
    (SPAnalyzer, "analyze_batched", "core.analyzer"),
)


class SpanRecorder:
    """In-memory span store: parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def self_times(self, overhead: tuple[float, float] = (0.0, 0.0)
                   ) -> list[float]:
        """Self time of every span, in seconds, less wrapper cost.

        ``overhead`` is ``(per child span, per own span)`` as measured by
        :func:`wrapper_overhead`.
        """
        per_child, per_span = overhead
        n = len(self.name)
        covered = [0] * n
        children = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for index in range(n):
            up = parent[index]
            if up >= 0:
                covered[up] += end[index] - start[index]
                children[up] += 1
        return [max(0.0, (end[i] - start[i] - covered[i]) * 1e-9
                    - children[i] * per_child - per_span)
                for i in range(n)]

    def by_name(self, values: list[float],
                within: str | None = None) -> dict[str, float]:
        """Sum per-span ``values`` by span name.

        With ``within``, only spans that are, or descend from, a span of
        that name count.
        """
        totals = [0.0] * len(self.names)
        inside = None
        if within is not None:
            target = self._ids.get(within, -1)
            # Parents are opened, hence stored, before their children.
            inside = [False] * len(self.name)
            for index, nid in enumerate(self.name):
                up = self.parent[index]
                inside[index] = nid == target or (up >= 0 and inside[up])
        for index, nid in enumerate(self.name):
            if inside is None or inside[index]:
                totals[nid] += values[index]
        return {label: totals[nid] for nid, label in enumerate(self.names)}

    def durations(self) -> dict[str, float]:
        """Seconds of total (inclusive) span time per span name."""
        totals = [0] * len(self.names)
        for index in range(len(self.name)):
            totals[self.name[index]] += self.end[index] - self.start[index]
        return {label: totals[nid] * 1e-9
                for nid, label in enumerate(self.names)}

    def counts(self) -> dict[str, int]:
        """Number of spans per span name."""
        totals = [0] * len(self.names)
        for nid in self.name:
            totals[nid] += 1
        return {label: totals[nid] for nid, label in enumerate(self.names)}

    def write_csv(self, path) -> None:
        """``name,start_ns,end_ns,parent`` one span per line."""
        with open(path, "w", encoding="ascii") as fp:
            fp.write("name,start_ns,end_ns,parent\n")
            names = self.names
            for index in range(len(self.name)):
                fp.write(f"{names[self.name[index]]},{self.start[index]},"
                         f"{self.end[index]},{self.parent[index]}\n")


def _wrap_method(recorder: SpanRecorder, fn, nid: int):
    open_, close = recorder.open, recorder.close

    def wrapper(*args, **kwargs):
        index = open_(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            close(index)

    return wrapper


def _wrap_operator(recorder: SpanRecorder, fn):
    open_, close = recorder.open, recorder.close
    by_class = {cls: recorder.name_id(f"operators.{layer}")
                for cls, layer in OPERATOR_LAYERS.items()}
    other = recorder.name_id("operators.other")

    def wrapper(self, *args, **kwargs):
        index = open_(by_class.get(type(self), other))
        try:
            return fn(self, *args, **kwargs)
        finally:
            close(index)

    return wrapper


class _TimedIterator:
    """Iterator proxy recording one span per ``next()``."""

    __slots__ = ("_it", "_open", "_close", "_nid")

    def __init__(self, it, recorder: SpanRecorder, nid: int):
        self._it = it
        self._open, self._close = recorder.open, recorder.close
        self._nid = nid

    def __iter__(self):
        return self

    def __next__(self):
        index = self._open(self._nid)
        try:
            return next(self._it)
        finally:
            self._close(index)


def _wrap_generator(recorder: SpanRecorder, fn, nid: int):
    def wrapper(*args, **kwargs):
        return _TimedIterator(fn(*args, **kwargs), recorder, nid)

    return wrapper


def _noop(value):
    return value


def wrapper_overhead(calls: int = 20_000) -> tuple[float, float]:
    """Seconds one wrapped call adds: ``(to its caller, to its own span)``.

    Times a wrapped no-op inside an outer span against the bare call.
    """
    recorder = SpanRecorder()
    wrapped = _wrap_method(recorder, _noop, recorder.name_id("call"))
    outer = recorder.open(recorder.name_id("outer"))
    for index in range(calls):
        wrapped(index)
    recorder.close(outer)
    start = time.perf_counter()
    for index in range(calls):
        _noop(index)
    bare = (time.perf_counter() - start) / calls
    per_span = recorder.self_times()
    caller = per_span[outer] / calls - bare
    own = (sum(per_span) - per_span[outer]) / calls - bare
    return max(0.0, caller), max(0.0, own)


@contextlib.contextmanager
def traced(recorder: SpanRecorder):
    """Wrap every layer method for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in METHOD_SPANS:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr,
                    _wrap_method(recorder, fn, recorder.name_id(name)))
        for owner, attr, name in GENERATOR_SPANS:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr,
                    _wrap_generator(recorder, fn, recorder.name_id(name)))
        for attr in ("process", "process_batch"):
            fn = Operator.__dict__[attr]
            saved.append((Operator, attr, fn))
            setattr(Operator, attr, _wrap_operator(recorder, fn))
        yield recorder
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(recorder: SpanRecorder,
                  overhead: tuple[float, float] = (0.0, 0.0)) -> dict:
    """Per-layer times and call counts of one traced run."""
    per_span = recorder.self_times(overhead)
    self_s = recorder.by_name(per_span)
    under_executor = sum(
        recorder.by_name(per_span, within="engine.executor").values())
    total_s = recorder.durations()
    calls = recorder.counts()
    executor_self = self_s.get("engine.executor", 0.0)
    m = {
        "core.analyzer.self_s": self_s.get("core.analyzer", 0.0),
        "engine.executor.self_s": executor_self,
        "engine.executor.dispatch_share": (
            executor_self / under_executor if under_executor else 0.0),
        "engine.fusion.self_s": self_s.get("engine.fusion", 0.0),
        "engine.fusion.chain_runs": calls.get("engine.fusion", 0),
        "engine.dsms.build_plan_s": total_s.get("engine.dsms.build_plan",
                                                0.0),
        "engine.session.push_self_s": self_s.get("engine.session.push",
                                                 0.0),
        "observability.audit.records": calls.get("observability.audit", 0),
        "observability.audit.self_s": self_s.get("observability.audit",
                                                 0.0),
    }
    for layer in OPERATORS:
        name = f"operators.{layer}"
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
        m[f"{name}.calls"] = calls.get(name, 0)
    return m

"""Pipelined plan execution.

The executor merges all registered sources into one timestamp-ordered
feed and pushes each element depth-first through the operator DAG: an
operator's output elements are delivered to its downstream operators
before the next input element is consumed.  This is the synchronous
equivalent of a pipelined DSMS scheduler and keeps executions fully
deterministic (the property the plan-equivalence tests build on).

Two execution modes share that delivery discipline:

* **Element-wise** (``batching=False``): every stream element is
  dispatched individually — the reference semantics.
* **Segment-batched** (``batching=True``, the default): each run of
  consecutive same-stream tuples between sps — a piece of a single
  s-punctuated segment — is coalesced into a
  :class:`~repro.stream.batch.TupleBatch` envelope together with the
  sp-batch that opens it, and pushed through operators'
  :meth:`~repro.operators.base.Operator.process_batch` fast paths, so
  an operator gets a whole segment in one dispatch.  A Security Shield
  adopts the envelope's sp-batch (resolved once per envelope for all
  shields it reaches) and passes or drops a whole uniform segment in
  O(1); a select filters a run through its compiled predicate
  (:mod:`repro.operators.compiler`: one bulk kernel per pure conjunct)
  and a project maps it in one comprehension.
  Operators without a native batch path fall back to the per-element
  loop (head sps first) automatically, so results are identical in
  both modes.  Envelope sps count in ``ExecutionReport.sps_in`` and
  ``elements_in`` exactly as bare sps do.

Audit order: with an :class:`~repro.observability.AuditLog` attached,
batches still flow whole.  Each top-level batch's records are
collected in an open block of the log and sealed in *order-key* order
— the tuple's ordinal within the batch, then the plan path from the
entry (output index and fan-out child index per hop), then the
record's order within its operator call — which is exactly the
element-wise record order.  Ordinals ride on the work stack, not on
tuple identity, because Project creates new tuple objects.  Operators
whose batch output is not their input's tuples (joins, group-by,
intersect; see :attr:`~repro.operators.base.Operator.audit_batch_safe`)
get their input per element under audit — the envelope's head sps
first, then each tuple keeping its ordinal.  No operator records an
audit event on sp arrival, so head sps need no key of their own.  The
SP Analyzer records outside any block (``analyzer.refine``, when it
rewrites a batch); coalescing must not hold a tuple run past that
point, so analyzed sources mark each rewrite with a
:data:`~repro.stream.batch.RUN_BREAK` that closes the open run first
(the merge passes a break on as soon as it refills that source).

The push loop is iterative (an explicit work stack, LIFO with reversed
pushes to preserve depth-first order), so deep plans never hit Python's
recursion limit and per-element call overhead stays flat.

Observability: the executor emits ``executor.run`` span events to its
:class:`~repro.observability.TraceSink` (no-op by default) and, at the
end of a run, snapshots every operator's
:class:`~repro.observability.StageStats` into the
:class:`ExecutionReport` — the per-stage breakdown the ``repro stats``
CLI prints.
"""

from __future__ import annotations

import time
from itertools import repeat
from typing import Iterable

from repro.engine.plan import PhysicalPlan, PlanNode
from repro.observability.provenance import Tracer
from repro.observability.stats import StageStats, aggregate_stages
from repro.observability.trace import NullTraceSink, TraceSink
from repro.core.punctuation import SecurityPunctuation
from repro.errors import PlanError
from repro.stream.batch import (TupleBatch, coalesce_elements, coalesce_feed)
from repro.stream.element import StreamElement
from repro.stream.source import StreamSource, merge_sources

__all__ = ["Executor", "ExecutionReport"]


class ExecutionReport:
    """Summary of one plan execution, including per-stage metrics."""

    __slots__ = ("elements_in", "tuples_in", "sps_in", "wall_time",
                 "shard_timing", "_stages", "_stage_index")

    def __init__(self):
        self.elements_in = 0
        self.tuples_in = 0
        self.sps_in = 0
        self.wall_time = 0.0
        #: Sharded-run timing breakdown (``repro.engine.sharded``):
        #: serial partition/merge/suffix seconds plus per-worker CPU
        #: seconds; ``None`` for single-process runs.
        self.shard_timing: dict | None = None
        self.stages = []

    @property
    def stages(self) -> list[StageStats]:
        """Per-operator :class:`StageStats` snapshots (plan order)."""
        return self._stages

    @stages.setter
    def stages(self, stages: "Iterable[StageStats]") -> None:
        self._stages = list(stages)
        # Name lookup index, built once per snapshot; the first stage
        # wins on (unusual) duplicate names, matching the semantics of
        # the linear scan this replaces.
        index: dict[str, StageStats] = {}
        for stage in self._stages:
            index.setdefault(stage.name, stage)
        self._stage_index = index

    def stage(self, name: str) -> StageStats | None:
        """The snapshot of the operator named ``name``, if present."""
        return self._stage_index.get(name)

    def totals(self) -> dict:
        """Whole-plan aggregates across all stages."""
        return aggregate_stages(self._stages)

    @property
    def total_drops(self) -> int:
        return sum(stage.drops for stage in self._stages)

    def __repr__(self) -> str:
        return (f"ExecutionReport(elements={self.elements_in}, "
                f"wall={self.wall_time:.4f}s, "
                f"stages={len(self._stages)})")


class Executor:
    """Drives a physical plan over a set of sources."""

    def __init__(self, plan: PhysicalPlan, sources: Iterable[StreamSource],
                 *, tracer: TraceSink | None = None,
                 batching: bool = True,
                 prebatched: bool = False, instruments=None):
        self.plan = plan
        self.sources = list(sources)
        self.tracer = tracer if tracer is not None else NullTraceSink()
        #: Causal tracer (trace contexts, operator spans, provenance);
        #: ``None`` when the sink is a plain flat-event TraceSink.
        self._causal: Tracer | None = (
            self.tracer if isinstance(self.tracer, Tracer) else None)
        #: Segment-batched execution (see module docstring).
        self.batching = batching
        #: Sources already yield coalesced runs (TupleBatch envelopes)
        #: — skip the executor's own coalescing layer.
        self.prebatched = prebatched
        #: Engine metric instruments (``None`` = metrics off; the run
        #: loop then pays one ``is None`` check per element).
        self.instruments = instruments
        #: The audit log the plan's operators record into (``None``
        #: when unaudited); see "Audit order" in the module docstring.
        self._audit = next((node.operator.audit for node in plan.nodes
                            if node.operator.audit is not None), None)

    def run(self) -> ExecutionReport:
        """Consume all sources to exhaustion, then flush the plan."""
        report = ExecutionReport()
        if self.tracer.enabled:
            self.tracer.span("executor.run.start",
                             sources=len(self.sources),
                             operators=len(self.plan.nodes),
                             batching=self.batching)
        start = time.perf_counter()
        entries = self.plan.entries
        if self.batching and len(self.sources) == 1:
            # Single-source fast path: no ts merge needed, so the run
            # coalescing collapses to one generator layer (or none at
            # all when the source is already pre-batched) — the merge
            # + coalesce generator stack is the dominating per-element
            # cost on sp-dense feeds.
            (source,) = self.sources
            elements = (iter(source) if self.prebatched
                        else coalesce_elements(iter(source)))
            feed = zip(repeat(source.stream_id), elements)
        else:
            feed = merge_sources(self.sources)
            if self.batching:
                feed = coalesce_feed(feed)
        push = self._push
        instruments = self.instruments
        audit = self._audit
        deliver_audited = self._deliver_audited
        causal = self._causal
        push_traced = self._push_traced
        get_targets = entries.get
        sp_type = SecurityPunctuation
        # Report counters accumulate in locals — one attribute store
        # after the loop instead of three loads+stores per element.
        elements_in = tuples_in = sps_in = 0
        for stream_id, element in feed:
            if instruments is not None:
                instruments.mark_ingest(time.perf_counter())
            if type(element) is TupleBatch:
                size = len(element.tuples)
                head = len(element.sps)
                elements_in += size + head
                tuples_in += size
                sps_in += head
                if instruments is not None:
                    instruments.tuples_in.inc(size)
                    if head:
                        instruments.sps_in.inc(head)
                if causal is not None:
                    # One trace per envelope: its head sps ride in it.
                    causal.begin("batch", stream=stream_id, size=size)
            elif isinstance(element, sp_type):
                elements_in += 1
                sps_in += 1
                if instruments is not None:
                    instruments.sps_in.inc()
                if causal is not None:
                    causal.begin("sp", stream=stream_id, ts=element.ts)
            else:
                elements_in += 1
                tuples_in += 1
                if instruments is not None:
                    instruments.tuples_in.inc()
                if causal is not None:
                    causal.begin("tuple", stream=stream_id,
                                 ts=element.ts)
            targets = get_targets(stream_id)
            if targets:
                deliver = (push_traced
                           if causal is not None and causal.active
                           else push)
                if audit is not None and type(element) is TupleBatch:
                    deliver_audited(targets, element, deliver)
                else:
                    for node, port in targets:
                        deliver(node, element, port)
        report.elements_in = elements_in
        report.tuples_in = tuples_in
        report.sps_in = sps_in
        self._flush()
        report.wall_time = time.perf_counter() - start
        if instruments is not None:
            instruments.ingest_wall = None
            instruments.runs.inc()
            instruments.run_seconds.observe(report.wall_time)
        report.stages = self.stage_stats()
        if self.tracer.enabled:
            self.tracer.span("executor.run.end",
                             elements_in=report.elements_in,
                             tuples_in=report.tuples_in,
                             sps_in=report.sps_in,
                             drops=report.total_drops,
                             wall_time=report.wall_time,
                             batching=self.batching)
        return report

    def stage_stats(self) -> list[StageStats]:
        """Current per-operator metric snapshots (plan order)."""
        return [node.operator.stage_stats() for node in self.plan.nodes]

    def feed(self, stream_id: str, element: StreamElement) -> None:
        """Push one element into the plan (incremental driving)."""
        causal = self._causal
        push = (self._push_traced
                if causal is not None and causal.active else self._push)
        self._deliver(self.plan.entries.get(stream_id, ()), element, push)

    def _deliver(self, targets, element, push) -> None:
        """Deliver one top-level element to every ``(node, port)``."""
        if self._audit is not None and type(element) is TupleBatch:
            self._deliver_audited(targets, element, push)
            return
        for node, port in targets:
            push(node, element, port)

    def _deliver_audited(self, targets, batch: TupleBatch,
                         deliver) -> None:
        """Deliver one top-level batch to ``targets`` under audit.

        The batch's records collect in an open block of the audit log
        and seal in order-key order when it is done.  Ordinals number
        its tuples; each entry target's index starts the plan path.  A
        single element needs no block: nothing downstream of it is
        batched, so its records are made in element-wise order.
        """
        ords = range(len(batch.tuples))
        audit = self._audit
        audit.open_element()
        try:
            for index, (node, port) in enumerate(targets):
                deliver(node, batch, port, (ords, (index,)))
        finally:
            audit.seal_element()

    def _push(self, node: PlanNode, element, port: int,
              key: tuple | None = None) -> None:
        """Deliver ``element`` (or a TupleBatch) depth-first from ``node``.

        Iterative equivalent of the recursive push: the work stack is
        LIFO, so pending work is pushed in reverse to process outputs
        (and fan-out edges) in plan order — the exact delivery order of
        the recursive formulation, without per-element Python frames.
        ``key`` is the element's ``(ordinals, path)`` order key under
        audit, ``None`` otherwise.
        """
        stack: list[tuple[PlanNode, object, int, tuple | None]] = [
            (node, element, port, key)]
        append = stack.append
        pop = stack.pop
        audit = self._audit
        while stack:
            node, element, port, key = pop()
            if key is not None:
                ords, path = key
                audit.key = key
            if type(element) is TupleBatch:
                operator = node.operator
                if key is not None and not operator.audit_batch_safe:
                    # Per element, head sps first; an sp takes the
                    # ordinal of the tuple its arrival precedes.
                    tuples = element.tuples
                    for index in range(len(tuples) - 1, -1, -1):
                        append((node, tuples[index], port,
                                (ords[index], path)))
                    for sp in reversed(element.sps):
                        append((node, sp, port, (ords[0], path)))
                    continue
                outputs = operator.process_batch(element, port)
            else:
                outputs = node.operator.process(element, port)
            if not outputs:
                continue
            downstream = node.downstream
            if not downstream:
                continue
            if key is None:
                for out in reversed(outputs):
                    for child, child_port in reversed(downstream):
                        append((child, out, child_port, None))
            else:
                stack.extend(_keyed_edges(node, element, ords, path,
                                          outputs, downstream))

    def _push_traced(self, node: PlanNode, element, port: int,
                     key: tuple | None = None) -> None:
        """Traced variant of :meth:`_push` for sampled traces.

        Identical delivery discipline, but every operator invocation
        is timed on the monotonic clock and emitted as a child span of
        the element's root span (chains of operators nest via the work
        stack's carried parent span id), and per-operator latency
        histograms get exemplars pointing at the live trace.  Only
        runs while the current trace is head-sampled, so its extra
        cost is bounded by the sampling rate.
        """
        tracer = self._causal
        assert tracer is not None
        stack: list[tuple[PlanNode, object, int, int, tuple | None]] = [
            (node, element, port, tracer._root_id, key)]
        append = stack.append
        pop = stack.pop
        audit = self._audit
        clock = time.perf_counter_ns
        while stack:
            node, element, port, parent, key = pop()
            if key is not None:
                ords, path = key
                audit.key = key
            if type(element) is TupleBatch:
                rows = len(element.tuples)
                operator = node.operator
                if key is not None and not operator.audit_batch_safe:
                    tuples = element.tuples
                    for index in range(rows - 1, -1, -1):
                        append((node, tuples[index], port, parent,
                                (ords[index], path)))
                    for sp in reversed(element.sps):
                        append((node, sp, port, parent, (ords[0], path)))
                    continue
                begun = clock()
                outputs = operator.process_batch(element, port)
                dur_ns = clock() - begun
                span = tracer.op_span("op.process", parent, dur_ns,
                                      operator=operator.name, rows=rows)
                if operator._m_latency is not None:
                    operator._m_latency.exemplar(dur_ns / rows * 1e-9,
                                                 tracer.trace_id)
            else:
                operator = node.operator
                begun = clock()
                outputs = operator.process(element, port)
                dur_ns = clock() - begun
                span = tracer.op_span("op.process", parent, dur_ns,
                                      operator=operator.name, rows=1)
                if operator._m_latency is not None:
                    operator._m_latency.exemplar(dur_ns * 1e-9,
                                                 tracer.trace_id)
            if not outputs:
                continue
            downstream = node.downstream
            if not downstream:
                continue
            if key is None:
                for out in reversed(outputs):
                    for child, child_port in reversed(downstream):
                        append((child, out, child_port, span, None))
            else:
                for child, out, child_port, child_key in _keyed_edges(
                        node, element, ords, path, outputs, downstream):
                    append((child, out, child_port, span, child_key))

    def _flush(self) -> None:
        """End-of-stream: flush operators in topological order."""
        if self.tracer.enabled:
            self.tracer.span("executor.flush")
        for node in self.plan.topological():
            for out in node.operator.flush():
                self._deliver(node.downstream, out, self._push)


def _keyed_edges(node: PlanNode, element, ords, path: tuple,
                 outputs: list, downstream: list) -> list:
    """Every ``(child, output, port, key)`` delivery of one audited
    operator call, in work-stack (reverse plan) order.

    Each output carries its ordinal(s) and extends the plan path by
    ``(output index, child index)``, so records sort in the order
    element-wise execution makes them.
    """
    if type(ords) is int:
        out_ords = None
    elif outputs[-1] is element:
        # The run passed whole; anything before it is a released sp.
        out_ords = [ords[0]] * (len(outputs) - 1) + [ords]
    else:
        out_ords = _output_ordinals(node, element, ords, outputs)
    edges = []
    append = edges.append
    for index in range(len(outputs) - 1, -1, -1):
        out = outputs[index]
        out_key = ords if out_ords is None else out_ords[index]
        for child_index in range(len(downstream) - 1, -1, -1):
            child, child_port = downstream[child_index]
            append((child, out, child_port,
                    (out_key, path + (index, child_index))))
    return edges


def _output_ordinals(node: PlanNode, batch: TupleBatch, ords,
                     outputs: list) -> list:
    """The ordinal(s) each output of a batch call carries downstream.

    The operator is :attr:`~repro.operators.base.Operator.audit_batch_safe`,
    so its output tuples are its input's: the run itself, a 1:1
    projection of it (Project makes new tuple objects, so a same-length
    output maps by position), or an in-order subset.  An sp takes the
    ordinal of the tuple emitted after it — the tuple whose arrival
    released it element-wise.
    """
    tuples = batch.tuples
    result: list = []
    pending = 0
    pos = 0
    try:
        for out in outputs:
            if type(out) is TupleBatch:
                got = (ords if len(out.tuples) == len(tuples)
                       else _KeptOrdinals(ords, tuples, out.tuples))
                first = got[0]
            elif isinstance(out, SecurityPunctuation):
                result.append(None)
                pending += 1
                continue
            else:
                while tuples[pos] is not out:
                    pos += 1
                got = first = ords[pos]
                pos += 1
            if pending:
                result[-pending:] = [first] * pending
                pending = 0
            result.append(got)
    except IndexError:
        raise PlanError(
            f"{node.operator.name}: batch output is not the input's "
            "tuples; set audit_batch_safe = False") from None
    if pending:
        result[-pending:] = [ords[-1]] * pending
    return result


class _KeptOrdinals:
    """Ordinals of an in-order subset of a batch, resolved on demand.

    Most consumers need only the first ordinal (a segment record, a
    released sp); the rest are needed when a record's events are read,
    so the match against the input runs only then — and never for
    blocks the audit log evicts unread.
    """

    __slots__ = ("_source", "_tuples", "_kept", "_ords")

    def __init__(self, source, tuples: list, kept: list):
        self._source = source
        self._tuples = tuples
        self._kept = kept
        self._ords: list | None = None

    def __len__(self) -> int:
        return len(self._kept)

    def __iter__(self):
        return iter(self._resolve())

    def __getitem__(self, row: int):
        if row == 0 and self._ords is None:
            first = self._kept[0]
            pos = 0
            while self._tuples[pos] is not first:
                pos += 1
            return self._source[pos]
        return self._resolve()[row]

    def _resolve(self) -> list:
        ords = self._ords
        if ords is None:
            tuples, source = self._tuples, self._source
            ords = []
            pos = 0
            for item in self._kept:
                while tuples[pos] is not item:
                    pos += 1
                ords.append(source[pos])
                pos += 1
            self._ords = ords
            self._source = self._tuples = None
        return ords

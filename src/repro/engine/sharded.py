"""Sharded multi-process execution: segments fan out, results merge.

:func:`run_sharded` executes a DSMS workload across a pool of worker
processes.  The pipeline:

1. **Optimize first** — the coordinator runs the configured optimizer
   level over every registered query, so workers execute exactly the
   plans a single-process run would.
2. **Split queries** — a fully stateless plan ({scan, shield, select,
   project}) runs entirely inside the workers, including its
   ``delivery:<name>`` shield and sink.  A plan with stateful
   operators (joins, group-by, dup-elim, set ops) is split: each
   maximal stateless subtree becomes a *prefix unit* executed in the
   workers, and the coordinator runs the rewritten stateful suffix
   over the merged unit outputs.  Structurally equal subtrees share
   one unit (the shared-subplan property of the single-process plan).
3. **Partition** — every input stream is cut into s-punctuated
   segment chunks (:mod:`repro.engine.partition`) and hash-routed to
   the workers; each worker runs its own SP Analyzer, shield state
   and metrics over its sub-streams.
4. **Merge** — worker outputs come back as anchor-tagged chunk runs
   and are reassembled into exact single-stream order; stateful
   suffixes then run in-process over the merged virtual streams.

Denial-by-default is preserved by construction: a tuple can only be
delivered by a worker's delivery shield or the coordinator suffix's
delivery shield, never raw.  The lifecycle is fail-closed: a worker
that dies or hangs aborts the whole run — every other worker is
terminated, a ``health.alert`` span is emitted through the DSMS's
observability, and :class:`ShardExecutionError` is raised instead of
returning partial (potentially under-enforced) results.

Per-shard audit events and trace spans are shipped back over the
result pipe and re-recorded through the coordinator's Observability
hub with a ``shard`` label, so the audit trail and flight recorder
stay single-system views.  Each worker also ships its audit log's
exact per-kind counts and eviction count, so ``counts`` and
``evicted`` stay exact when a worker held fewer events than it
recorded.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.algebra.expressions import (LogicalExpr, ProjectExpr, ScanExpr,
                                       SelectExpr, ShieldExpr, walk)
from repro.core.analyzer import SPAnalyzer
from repro.core.bitmap import RoleSet, RoleUniverse
from repro.core.punctuation import SecurityPunctuation
from repro.engine.api import OptimizeLevel
from repro.engine.executor import ExecutionReport, Executor
from repro.engine.partition import chunk_runs, merge_chunk_runs, \
    partition_spans, partition_stream, slice_spans
from repro.engine.plan import PhysicalPlan
from repro.errors import QueryError, ShardExecutionError
from repro.observability import AuditLog, Observability, Tracer
from repro.observability.audit import AuditEvent
from repro.observability.stats import StageStats
from repro.observability.trace import (NullTraceSink, RingBufferTraceSink,
                                       SpanEvent)
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink
from repro.stream.batch import coalesce_elements
from repro.stream.element import StreamElement
from repro.stream.schema import StreamSchema
from repro.stream.source import CallbackSource, ListSource, StreamSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.dsms import DSMS, QueryResult

__all__ = [
    "STATELESS_EXPRS",
    "ShardExecutionError",
    "ShardResult",
    "ShardTask",
    "execute_shard_task",
    "run_sharded",
    "split_workload",
]

#: Expression types whose operators keep no cross-segment state beyond
#: the (segment-local) policy tracker — safe to run shard-local.
STATELESS_EXPRS = (ScanExpr, ShieldExpr, SelectExpr, ProjectExpr)

#: Default per-run worker deadline.  Generous: this is a liveness
#: backstop against a hung worker, not a performance budget.
DEFAULT_TIMEOUT = 120.0

#: Worker trace buffer: large enough to hold a full verification run's
#: flat spans, still bounded against pathological emitters.
_WORKER_TRACE_CAPACITY = 65536


# -- workload splitting -------------------------------------------------------

def _is_stateless(expr: LogicalExpr) -> bool:
    if not isinstance(expr, STATELESS_EXPRS):
        return False
    if isinstance(expr, SelectExpr) and not _shard_safe_select(expr):
        return False
    return all(_is_stateless(child) for child in expr.children())


def _shard_safe_select(expr: SelectExpr) -> bool:
    """Static shard-safety proof for a selection's UDFs.

    A select may run inside forked shard workers only when every
    ``FuncCondition`` leaf is *proven* pure and deterministic: a
    stateful closure accumulates per-worker state (results then depend
    on the partitioning), and process-specific values (``id``,
    ``hash``) diverge across workers.  UNKNOWN fails closed — the
    subtree is pinned to the coordinator suffix, which preserves
    single-process semantics exactly (refuse-or-pin; this is the pin).
    """
    from repro.analysis.udf import shard_safe

    return shard_safe(expr.condition)


def _source_sid(expr: LogicalExpr) -> str:
    """The one scan a stateless (all-unary) subtree reads."""
    node = expr
    while not isinstance(node, ScanExpr):
        node = node.children()[0]
    return node.stream_id


class _UnitRegistry:
    """Interns stateless prefix subtrees as shared virtual streams."""

    def __init__(self) -> None:
        self._by_expr: "dict[LogicalExpr, str]" = {}
        #: (virtual sid, expr, source sid) in discovery order.
        self.ordered: "list[tuple[str, LogicalExpr, str]]" = []

    def intern(self, expr: LogicalExpr) -> str:
        sid = self._by_expr.get(expr)
        if sid is None:
            source = _source_sid(expr)
            # Virtual sids sort by (source stream, discovery index):
            # the suffix merges its sources in sorted-sid order, and
            # this naming keeps equal-timestamp ties across virtual
            # streams in the same order the single-process merge
            # resolves them for the underlying streams.
            sid = f"__part.{source}.{len(self.ordered):04d}"
            self._by_expr[expr] = sid
            self.ordered.append((sid, expr, source))
        return sid


def _rewrite_suffix(expr: LogicalExpr,
                    registry: _UnitRegistry) -> LogicalExpr:
    """Replace maximal stateless subtrees with virtual scans."""
    if _is_stateless(expr):
        return ScanExpr(registry.intern(expr))
    children = tuple(_rewrite_suffix(child, registry)
                     for child in expr.children())
    return expr.with_children(*children)


def split_workload(exprs: "dict[str, LogicalExpr]",
                   roles: "dict[str, frozenset[str]]"):
    """Split optimized query plans into worker and coordinator parts.

    Returns ``(local_queries, split_queries, registry)`` where
    ``local_queries`` is ``[(name, expr, roles)]`` run wholly in the
    workers, ``split_queries`` maps names to rewritten suffix
    expressions run by the coordinator, and ``registry`` holds the
    interned prefix units in discovery order.
    """
    registry = _UnitRegistry()
    local_queries: "list[tuple[str, LogicalExpr, frozenset[str]]]" = []
    split_queries: "dict[str, LogicalExpr]" = {}
    for name, expr in exprs.items():
        if _is_stateless(expr):
            local_queries.append((name, expr, roles[name]))
        else:
            split_queries[name] = _rewrite_suffix(expr, registry)
    return local_queries, split_queries, registry


# -- worker-side execution ----------------------------------------------------

@dataclass
class ShardTask:
    """Everything one worker needs to run its partition."""

    shard_idx: int
    n_shards: int
    #: sid -> schema attributes (original streams only).
    schemas: "dict[str, tuple[str, ...]]"
    #: sid -> this shard's element sub-stream — or, when ``spans`` is
    #: set, the *full* stream shared across tasks (fork start method:
    #: inherited copy-on-write, never pickled).
    streams: "dict[str, list[StreamElement]]"
    #: sid -> run the SP Analyzer over this stream.
    analyze: "dict[str, bool]"
    #: (virtual sid, stateless prefix expr) pairs, discovery order.
    units: "list[tuple[str, LogicalExpr]]"
    #: (name, expr, roles) for queries run wholly in the worker.
    local_queries: "list[tuple[str, LogicalExpr, frozenset[str]]]"
    server_sps: "tuple[SecurityPunctuation, ...]" = ()
    batching: bool = True
    #: Capacity of the worker's audit log — the coordinator's, so a
    #: worker never ships more events than the coordinator can hold
    #: (``0``: no audit log).
    audit_capacity: int = 0
    tracing: bool = False
    #: Fault injection for the verification harness: ``"crash"`` kills
    #: the worker before it reports, ``"hang"`` blocks it forever.
    fault: str | None = None
    #: sid -> this shard's ``(start, stop)`` spans into ``streams``.
    #: When set the worker does its own scatter (in parallel) instead
    #: of the coordinator building per-shard lists serially.
    spans: "dict[str, list[tuple[int, int]]] | None" = None
    #: The coordinator's GC setting before its scatter phase.  Forked
    #: workers inherit the temporarily-disabled GC and must restore
    #: the real setting so shard execution matches a local run.
    gc_enabled: bool = True


@dataclass
class ShardResult:
    """One worker's outputs, shipped back over the result pipe."""

    shard_idx: int
    #: virtual sid -> anchor-tagged output chunk runs.
    units: "dict[str, list[tuple[float, list[StreamElement]]]]"
    #: local query name -> anchor-tagged output chunk runs.
    local: "dict[str, list[tuple[float, list[StreamElement]]]]"
    elements_in: int = 0
    tuples_in: int = 0
    sps_in: int = 0
    #: Process-CPU seconds spent in the worker (analysis + execution
    #: + output chunking) — the per-shard cost on the critical path.
    cpu_seconds: float = 0.0
    stages: "list[StageStats]" = field(default_factory=list)
    #: The worker's held audit events, plus its log's exact per-kind
    #: totals and eviction count (held events are only the newest).
    audit_events: "list[AuditEvent]" = field(default_factory=list)
    audit_counts: "dict[str, int]" = field(default_factory=dict)
    audit_evicted: int = 0
    spans: "list[SpanEvent]" = field(default_factory=list)


@dataclass
class ShardFailure:
    """A worker's structured error report (fail-closed diagnostics)."""

    shard_idx: int
    message: str


def execute_shard_task(task: ShardTask) -> ShardResult:
    """Run one shard's partition to completion (in-process).

    Mirrors the single-process run: a fresh SP Analyzer (with the
    server policies applied), a hash-consed physical plan over the
    shard's units and local queries, the element-wise or
    segment-batched executor, and — for local queries — the same
    ``delivery:<name>`` shield the DSMS facade installs.
    """
    cpu_start = time.process_time()
    universe = RoleUniverse()
    analyzer = SPAnalyzer(universe)
    for sp in task.server_sps:
        analyzer.add_server_policy(sp)
    observability = (Observability(audit=AuditLog(task.audit_capacity))
                     if task.audit_capacity else Observability.disabled())
    trace_sink = (RingBufferTraceSink(_WORKER_TRACE_CAPACITY)
                  if task.tracing else NullTraceSink())

    plan = PhysicalPlan(universe)
    unit_sinks: "dict[str, CollectingSink]" = {}
    for unit_sid, expr in task.units:
        sink = CollectingSink(name=f"sink:{unit_sid}")
        plan.compile_chain(expr, [sink])
        unit_sinks[unit_sid] = sink
    local_sinks: "dict[str, CollectingSink]" = {}
    for name, expr, roles in task.local_queries:
        sink = CollectingSink(name=f"sink:{name}")
        delivery = SecurityShield(RoleSet(roles),
                                  name=f"delivery:{name}")
        plan.compile_chain(expr, [delivery, sink])
        local_sinks[name] = sink
        observability.bind(delivery, query=name)
        for sub in walk(expr):
            if not isinstance(sub, ShieldExpr):
                continue
            compiled = plan.compiled_node(sub)
            if compiled is not None and isinstance(
                    compiled.operator, SecurityShield):
                observability.bind(compiled.operator, query=name)
    if observability.audit is not None:
        for operator in plan.operators():
            if operator.audit is None:
                observability.bind(operator)

    sources: "list[StreamSource]" = []
    prebatched = False
    sids = sorted(task.streams)
    single = task.batching and len(sids) == 1
    for sid in sids:
        schema = StreamSchema(sid, tuple(task.schemas[sid]))
        elements = task.streams[sid]
        if task.spans is not None:
            elements = slice_spans(elements, task.spans[sid])
        base = ListSource(schema, elements)
        if task.analyze.get(sid, False):
            if single:
                factory = (lambda b=base:
                           analyzer.analyze_batched(iter(b)))
                prebatched = True
            else:
                factory = (lambda b=base: analyzer.analyze(
                    iter(b), run_breaks=task.batching))
            sources.append(CallbackSource(schema, factory))
        elif single:
            sources.append(CallbackSource(
                schema, (lambda b=base: coalesce_elements(iter(b)))))
            prebatched = True
        else:
            sources.append(base)

    executor = Executor(plan, sources, tracer=trace_sink,
                        batching=task.batching,
                        prebatched=prebatched)
    report = executor.run()

    result = ShardResult(
        shard_idx=task.shard_idx,
        units={unit_sid: chunk_runs(unit_sid, list(sink.elements))
               for unit_sid, sink in unit_sinks.items()},
        local={name: chunk_runs(name, list(sink.elements))
               for name, sink in local_sinks.items()},
        elements_in=report.elements_in,
        tuples_in=report.tuples_in,
        sps_in=report.sps_in,
        stages=list(report.stages),
    )
    if observability.audit is not None:
        result.audit_events = list(observability.audit)
        result.audit_counts = dict(observability.audit.counts)
        result.audit_evicted = observability.audit.evicted
    if task.tracing and isinstance(trace_sink, RingBufferTraceSink):
        result.spans = trace_sink.events()
    result.cpu_seconds = time.process_time() - cpu_start
    return result


def _shard_worker_main(task: ShardTask, conn) -> None:
    """Worker process entry: run the task, ship exactly one message.

    Fail-closed discipline: on any error the worker reports a
    :class:`ShardFailure` (or simply dies, which the coordinator's
    recv/poll loop detects as EOF) — it never sends partial results.
    """
    if task.gc_enabled and not gc.isenabled():
        gc.enable()  # forked mid-scatter; restore the real setting
    # The inherited heap (stream lists, loaded modules) is read-mostly
    # and outlives the worker: move it to the permanent generation so
    # worker collections scan only the worker's own allocations and
    # the GC never dirties inherited copy-on-write pages (the standard
    # pre-fork worker idiom).
    gc.freeze()
    if task.fault == "crash":
        os._exit(13)
    if task.fault == "hang":  # pragma: no cover - killed by parent
        time.sleep(3600.0)
        os._exit(0)
    try:
        payload: object = execute_shard_task(task)
    except BaseException as exc:  # noqa: BLE001 - report, then die
        payload = ShardFailure(task.shard_idx,
                               f"{type(exc).__name__}: {exc}")
    try:
        conn.send(payload)
        conn.close()
    except BaseException:  # noqa: BLE001 - parent sees EOF instead
        os._exit(1)


# -- the fail-closed pool -----------------------------------------------------

def _mp_context():
    """Prefer fork (cheap, no task pickling); fall back to spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context("spawn")


def _emit_health_alert(observability: Observability, shard_idx: int,
                       n_shards: int, reason: str) -> None:
    """Route a shard failure through the health-alert span channel."""
    attrs = dict(
        rule="shard.worker", severity="critical",
        message=(f"shard {shard_idx}/{n_shards} {reason}; "
                 "run aborted fail-closed, no results delivered"),
        value=float(shard_idx), threshold=float(n_shards))
    tracer = observability.tracer
    if isinstance(tracer, Tracer):
        tracer.event("health.alert", keep=True, **attrs)
    elif tracer.enabled:
        tracer.span("health.alert", **attrs)


def _terminate_all(workers) -> None:
    """Kill every worker and reap it (bounded drain, never blocks)."""
    for proc, conn in workers:
        if proc.is_alive():
            proc.terminate()
    for proc, conn in workers:
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - terminate refused
            proc.kill()
            proc.join(timeout=5.0)
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _collect(workers, observability: Observability, n_shards: int,
             timeout: float) -> "list[ShardResult]":
    """Receive one result per worker, or abort the whole pool.

    Poll-with-deadline loop: a worker that exits without reporting, or
    that fails to report within ``timeout``, fails the run.  On any
    failure every worker is terminated before raising, so no orphan
    process outlives the run and no partial results escape.
    """
    results: "list[ShardResult | None]" = [None] * len(workers)
    deadline = time.monotonic() + timeout
    failure: "tuple[int, str] | None" = None
    for index, (proc, conn) in enumerate(workers):
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                failure = (index, "timed out mid-run")
                break
            if conn.poll(min(0.05, remaining)):
                try:
                    payload = conn.recv()
                except (EOFError, OSError):
                    failure = (index, "died before reporting")
                    break
                if isinstance(payload, ShardFailure):
                    failure = (index, f"failed: {payload.message}")
                    break
                results[index] = payload
                break
            if not proc.is_alive() and not conn.poll(0):
                failure = (index,
                           f"exited mid-run (code {proc.exitcode})")
                break
        if failure is not None:
            break
    _terminate_all(workers)
    if failure is not None:
        shard_idx, reason = failure
        _emit_health_alert(observability, shard_idx, n_shards, reason)
        raise ShardExecutionError(
            f"shard {shard_idx}/{n_shards} {reason}; results "
            "withheld (fail-closed)")
    return [result for result in results if result is not None]


# -- the coordinator ----------------------------------------------------------

def run_sharded(dsms: "DSMS", *, n_shards: int,
                optimize: "OptimizeLevel | bool | str" =
                OptimizeLevel.NONE,
                analyze_sps: bool = True,
                batching: bool = True,
                timeout: float = DEFAULT_TIMEOUT,
                faults: "dict[int, str] | None" = None,
                ) -> "dict[str, QueryResult]":
    """Execute a DSMS workload across ``n_shards`` worker processes.

    The public entry is ``DSMS.run(shards=N)``; see the module
    docstring for the pipeline.  ``faults`` injects worker faults by
    shard index (``"crash"`` / ``"hang"``) for the fault-injection
    suite and is not part of the public surface.
    """
    from repro.engine.dsms import DSMS, QueryResult

    if n_shards < 1:
        raise ValueError("shards must be >= 1")
    if not dsms.queries:
        raise QueryError("no queries registered")
    wall_start = time.perf_counter()
    level = OptimizeLevel.coerce(optimize)
    exprs = dsms._optimized_exprs(level)
    roles = {name: frozenset(query.roles)
             for name, query in dsms.queries.items()}
    local_queries, split_queries, registry = split_workload(
        exprs, roles)

    # Partition every registered stream on raw segment boundaries.
    # The SP Analyzer runs inside the workers (in parallel): server
    # policy refinement never dissolves a batch boundary, so raw and
    # analyzed boundaries agree chunk for chunk.
    context = _mp_context()
    # With the fork start method workers inherit the coordinator's
    # stream lists copy-on-write, so the coordinator only routes
    # chunk *spans* and each worker slices its own sub-stream in
    # parallel.  Under spawn the task is pickled, so shipping the full
    # stream per worker would be far worse than a serial scatter.
    fork_scatter = context.get_start_method() == "fork"
    # The whole coordinator-side scatter/gather is one bounded bulk
    # phase: partitioning allocates routing structures over the full
    # stream and collection materializes one container per delivered
    # element.  With the generational GC live, those allocation bursts
    # trigger repeated full-heap scans mid-phase, roughly doubling the
    # serial cost — suspend collection for the phase and restore the
    # caller's setting afterwards.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        serial_start = time.process_time()
        schemas: "dict[str, tuple[str, ...]]" = {}
        analyze_map: "dict[str, bool]" = {}
        per_shard: "list[dict[str, list[StreamElement]]]" = [
            {} for _ in range(n_shards)]
        per_shard_spans: "list[dict[str, list[tuple[int, int]]]]" = [
            {} for _ in range(n_shards)]
        for sid in dsms.catalog.stream_ids():
            registered = dsms.catalog.get(sid)
            if registered.source is None:
                continue
            schemas[sid] = tuple(registered.schema.attributes)
            analyze_map[sid] = bool(analyze_sps
                                    and registered.carries_policies)
            elements = list(registered.source)
            if fork_scatter:
                for shard_idx, spans in enumerate(
                        partition_spans(sid, elements, n_shards)):
                    if spans:
                        per_shard[shard_idx][sid] = elements
                        per_shard_spans[shard_idx][sid] = spans
            else:
                for shard_idx, part in enumerate(
                        partition_stream(sid, elements, n_shards)):
                    if part:
                        per_shard[shard_idx][sid] = part
        partition_seconds = time.process_time() - serial_start

        units = [(unit_sid, expr)
                 for unit_sid, expr, _ in registry.ordered]
        audit_log = dsms.observability.audit
        tracing_on = dsms.observability.tracer.enabled
        workers = []
        for shard_idx in range(n_shards):
            task = ShardTask(
                shard_idx=shard_idx, n_shards=n_shards,
                schemas=schemas, streams=per_shard[shard_idx],
                analyze=analyze_map, units=units,
                local_queries=local_queries,
                server_sps=dsms.analyzer.server_sps,
                batching=batching,
                audit_capacity=(audit_log.capacity
                                if audit_log is not None else 0),
                tracing=tracing_on,
                fault=(faults or {}).get(shard_idx),
                spans=(per_shard_spans[shard_idx]
                       if fork_scatter else None),
                gc_enabled=gc_was_enabled)
            recv_conn, send_conn = context.Pipe(duplex=False)
            proc = context.Process(target=_shard_worker_main,
                                   args=(task, send_conn), daemon=True)
            proc.start()
            send_conn.close()
            workers.append((proc, recv_conn))
        # Coordinator CPU spent in collection is (mostly) result
        # deserialization — real serial cost on the critical path.
        # The poll wait itself doesn't accrue process CPU time.
        serial_start = time.process_time()
        results = _collect(workers, dsms.observability, n_shards,
                           timeout)
        collect_seconds = time.process_time() - serial_start

        # Merge worker outputs back into exact single-stream order.
        serial_start = time.process_time()
        unit_streams = {
            unit_sid: merge_chunk_runs(
                [result.units.get(unit_sid, []) for result in results])
            for unit_sid, _, _ in registry.ordered}
        local_elements = {
            name: merge_chunk_runs(
                [result.local.get(name, []) for result in results])
            for name, _, _ in local_queries}
        merge_seconds = time.process_time() - serial_start
    finally:
        if gc_was_enabled:
            gc.enable()

    # Route shard audit events and spans through the coordinator's
    # Observability with shard labels (single-system audit view).
    if audit_log is not None:
        for result in results:
            audit_log.absorb(result.audit_events, result.audit_counts,
                             result.audit_evicted, shard=result.shard_idx)
    if tracing_on:
        tracer = dsms.observability.tracer
        for result in results:
            for span in result.spans:
                attrs = dict(span.attrs)
                attrs["shard"] = result.shard_idx
                tracer.emit(SpanEvent(span.name, span.wall, attrs,
                                      mono=span.mono))

    # Stateful suffixes run in-process over the merged unit streams,
    # sharing the coordinator's universe and observability so audit,
    # metrics and delivery shields look exactly like a local run.
    suffix_results: "dict[str, QueryResult]" = {}
    suffix_report: ExecutionReport | None = None
    serial_start = time.process_time()
    if split_queries:
        suffix = DSMS(universe=dsms.universe,
                      observability=dsms.observability)
        for unit_sid, _, source_sid in registry.ordered:
            suffix.register_stream(
                StreamSchema(unit_sid, schemas[source_sid]),
                unit_streams[unit_sid])
        for name, expr in split_queries.items():
            suffix.register_query(name, expr, roles=roles[name],
                                  auto_shield=False)
        suffix_results = suffix.run(optimize=OptimizeLevel.NONE,
                                    analyze_sps=False,
                                    batching=batching)
        suffix_report = suffix.last_report
    suffix_seconds = time.process_time() - serial_start

    report = ExecutionReport()
    report.elements_in = sum(r.elements_in for r in results)
    report.tuples_in = sum(r.tuples_in for r in results)
    report.sps_in = sum(r.sps_in for r in results)
    stages: "list[StageStats]" = []
    for result in results:
        stages.extend(
            replace(stage, name=f"shard{result.shard_idx}/"
                                f"{stage.name}")
            for stage in result.stages)
    if suffix_report is not None:
        stages.extend(suffix_report.stages)
    report.stages = stages
    report.wall_time = time.perf_counter() - wall_start
    worker_cpu = [result.cpu_seconds for result in results]
    report.shard_timing = {
        "n_shards": n_shards,
        "partition_seconds": partition_seconds,
        "collect_seconds": collect_seconds,
        "merge_seconds": merge_seconds,
        "suffix_cpu_seconds": suffix_seconds,
        "worker_cpu_seconds": worker_cpu,
        "max_worker_cpu_seconds": max(worker_cpu, default=0.0),
        "critical_path_seconds": (partition_seconds + collect_seconds
                                  + merge_seconds + suffix_seconds
                                  + max(worker_cpu, default=0.0)),
        "elements_in": report.elements_in,
    }
    dsms.last_report = report

    out: "dict[str, QueryResult]" = {}
    for name in dsms.queries:
        if name in split_queries:
            out[name] = suffix_results[name]
        else:
            out[name] = QueryResult(name, local_elements[name])
    return out

"""Executor-level fusion of shield/select/project chains.

The columnar tier's core: a maximal linear chain of sp-aware filters
and projections (``Select``, ``SecurityShield``, ``Project``,
``AccessFilter``) is detected **once per plan** and executed as a
single pass over a :class:`~repro.stream.columnar.ColumnBatch` — one
row-major→columnar conversion at the head, compiled predicate masks
instead of per-tuple ``Condition`` dispatch, cached attribute columns
shared across stages, and one conversion back at the tail.

Fusion is strictly an *executor* concern: the plan DAG is untouched,
every operator keeps its node, stats, flush hook and audit identity, so
static plan analysis (``repro.analysis``, SEC001–SEC005) sees exactly
the same logical chain with or without the columnar tier.  Each fused
stage updates its operator's counters (``tuples_in/out``, ``sps_out``,
``comparisons``, drop counts, security metric series) with the same
totals the element-wise and segment-batched paths produce — the
differential oracle's equivalence contract.

Fusion preconditions (checked in :func:`build_fused_chains`):

* every operator in the chain is one of the four fusable types;
* no operator has an audit log attached (fused stages do not replay
  per-tuple audit interleavings; the executor's audit-unbatching rules
  already force element-wise delivery in that case);
* interior nodes have exactly one upstream edge and sit on port 0 of a
  single downstream consumer — fan-in/fan-out breaks the chain;
* a chain needs at least two nodes (a lone operator's native batch
  path is already one tight loop);
* a chain needs a ``Select`` or ``Project`` stage — the stages whose
  column kernels beat their row paths.  Shields and access filters
  decide a uniform segment in O(1) on the plain batched path too and
  forward the envelope itself, so a chain of only those would convert
  rows to columns and back for nothing (a shield → delivery chain below
  a shared select measured 0.87x plain batched).

Elements that are not tuple runs — security punctuations, bare or at
the head of an envelope, and unwrapped singleton tuples — flow through
the chain via each operator's ordinary ``process()`` path, so segment
state machines behave identically.  The one exception: a shield or
access-filter stage that sees the envelope's own head sps directly
before the run adopts them through the envelope
(``take_head``), so it shares the envelope's sp-batch resolution with
the operators outside the chain, as the plain batched path does.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.core.punctuation import SecurityPunctuation
from repro.engine.plan import PhysicalPlan, PlanNode
from repro.operators.accessfilter import AccessFilter
from repro.operators.base import Operator
from repro.operators.compiler import CompiledPredicate, compile_condition
from repro.operators.project import Project
from repro.operators.select import Select
from repro.operators.shield import SecurityShield
from repro.stream.batch import TupleBatch
from repro.stream.columnar import ColumnBatch
from repro.stream.element import StreamElement

__all__ = ["FUSABLE_OPERATORS", "MIN_FUSED_ROWS", "FusedChain",
           "build_fused_chains"]

#: Operator types a fused chain may contain.
FUSABLE_OPERATORS = (Select, SecurityShield, Project, AccessFilter)

#: Operator types one of which a fused chain must contain.
KERNEL_OPERATORS = (Select, Project)

#: Minimum tuple-run length for the columnar tier to engage.  Shorter
#: runs take the ordinary segment-batched path: the row→column
#: conversion and kernel setup cost more than they save below this
#: size, and both paths are counter- and delivery-equivalent, so the
#: cutover is purely a performance choice.
MIN_FUSED_ROWS = 32


def _account(op: Operator, start: float, n: int, tuples_out: int,
             sps_out: int) -> None:
    """Replicate ``Operator.process_batch``'s wrapper accounting.

    Counter *totals* (tuples in/out, sps out) are exact; timing values
    (processing_time, EWMA, latency observations) measure the fused
    stage instead of a standalone batch call — the equivalence contract
    exempts timing, which is inherently mode-dependent.
    """
    elapsed = perf_counter() - start
    stats = op.stats
    stats.processing_time += elapsed
    if n:
        stats.ewma_seconds += stats.alpha * (elapsed / n
                                             - stats.ewma_seconds)
        if op._m_latency is not None:
            op._m_latency.observe(elapsed / n)
    stats.tuples_in += n
    stats.tuples_out += tuples_out
    stats.sps_out += sps_out


class _Stage:
    """One fused operator: a columnar kernel plus its live operator."""

    __slots__ = ("op",)

    op: Any  # concrete operator; stages poke at its internals

    #: Whether the operator takes an envelope's head sps natively
    #: (``op.take_head``), sharing the envelope's resolution.
    takes_head = False

    def __init__(self, op: Operator):
        self.op = op

    def run(self, cb: ColumnBatch, out: "list[object]") -> None:
        raise NotImplementedError


class _SelectStage(_Stage):
    """σ over a column batch via the compiled predicate."""

    __slots__ = ("predicate",)

    def __init__(self, op: Select):
        super().__init__(op)
        self.predicate: CompiledPredicate = compile_condition(op.condition)

    def run(self, cb: ColumnBatch, out: "list[object]") -> None:
        op = self.op
        start = perf_counter()
        tuples = cb.tuples
        n = len(tuples)
        op._after_tuple = True
        op.stats.comparisons += n
        mask = self.predicate.mask(cb)
        # Survivors built directly from the mask — one fused
        # count+compress pass instead of two.
        kept = [item for item, flag in zip(tuples, mask) if flag]
        k = len(kept)
        op.tuples_dropped += n - k
        sps_out = 0
        if k:
            if op._held_sps:
                sps_out = len(op._held_sps)
                out.extend(op._held_sps)
                op._held_sps = []
            if k == n:
                out.append(cb)
            elif k == 1:
                # Singleton survivors leave the columnar tier (the
                # batch paths' unwrap convention).
                out.append(kept[0])
            else:
                out.append(ColumnBatch(kept))
        _account(op, start, n, k, sps_out)


class _ShieldStage(_Stage):
    """ψ over a column batch: one segment decision, vectorized apply."""

    __slots__ = ()

    takes_head = True

    def run(self, cb: ColumnBatch, out: "list[object]") -> None:
        op = self.op
        start = perf_counter()
        tuples = cb.tuples
        n = len(tuples)
        if op._m_seg is not None:
            op._segment_tuples += n
        if op._decision_stale:
            op._refresh_decision(tuples[0])
        decision = op._segment_decision
        sps_out = 0
        tracer = op._tracer
        if decision is None:
            # Non-uniform policy: per-row verdicts, memoized per
            # distinct role set (see SecurityShield._permits_cached —
            # comparison accounting is replayed exactly).
            policy_for = op.tracker.policy_for
            permits = op._permits_cached
            if tracer is None:
                kept = [item for item in tuples
                        if permits(policy_for(item))]
            else:
                # Provenance: per-row records (drops always kept,
                # passes only while the trace is sampled).
                traced = tracer.active
                kept = []
                for item in tuples:
                    if permits(policy_for(item)):
                        if traced:
                            op._prov_tuple(item, True)
                        kept.append(item)
                    else:
                        op._prov_tuple(item, False)
            k = len(kept)
            blocked = n - k
            if blocked:
                op.tuples_blocked += blocked
                if op._m_drop is not None:
                    op._m_drop.inc(blocked)
                    if op._segment_denial:
                        op._m_denial.inc(blocked)
            if k:
                if op._m_pass is not None:
                    op._m_pass.inc(k)
                if op._held_sps:
                    sps_out = len(op._held_sps)
                    out.extend(op._held_sps)
                    op._held_sps = []
                if k == n:
                    out.append(cb)
                elif k == 1:
                    out.append(kept[0])
                else:
                    out.append(ColumnBatch(kept))
            _account(op, start, n, k, sps_out)
            return
        if not decision:
            op.tuples_blocked += n
            if op._m_drop is not None:
                op._m_drop.inc(n)
                if op._segment_denial:
                    op._m_denial.inc(n)
            if tracer is not None:
                op._prov_run(tuples, False)
            _account(op, start, n, 0, 0)
            return
        if op._m_pass is not None:
            op._m_pass.inc(n)
        if tracer is not None and tracer.active:
            op._prov_run(tuples, True)
        if op._held_sps:
            sps_out = len(op._held_sps)
            out.extend(op._held_sps)
            op._held_sps = []
        out.append(cb)
        _account(op, start, n, n, sps_out)


class _ProjectStage(_Stage):
    """π over a column batch in one pass, reusing cached columns."""

    __slots__ = ("attributes",)

    def __init__(self, op: Project):
        super().__init__(op)
        self.attributes: tuple[str, ...] = op.attributes

    def run(self, cb: ColumnBatch, out: "list[object]") -> None:
        op = self.op
        start = perf_counter()
        n = len(cb.tuples)
        marker = op._close_batch()
        if marker:
            out.extend(marker)
        out.append(cb.project(self.attributes))
        _account(op, start, n, n, len(marker))


class _AccessFilterStage(_Stage):
    """Pre-/post-filter over a column batch with memoized verdicts."""

    __slots__ = ("_memo",)

    takes_head = True

    def __init__(self, op: AccessFilter):
        super().__init__(op)
        # Pure verdict memo keyed by role set: unlike the shield there
        # is no per-verdict comparison accounting to replay (the filter
        # counts one comparison per tuple at batch level), and the
        # predicate never rebinds at runtime.
        self._memo: dict[object, bool] = {}

    def run(self, cb: ColumnBatch, out: "list[object]") -> None:
        op = self.op
        start = perf_counter()
        tuples = cb.tuples
        n = len(tuples)
        op.stats.comparisons += n
        predicate = op.predicate
        policy_for = op.tracker.policy_for
        memo = self._memo
        tracer = op._tracer
        traced = tracer is not None and tracer.active
        kept: list[object] = []
        append = kept.append
        for item in tuples:
            policy = policy_for(item)
            verdict = memo.get(policy.roles)
            if verdict is None:
                verdict = bool(policy.permits_any(predicate))
                memo[policy.roles] = verdict
            if verdict:
                if traced:
                    op._prov_item(item, policy, True)
                append(item)
            elif tracer is not None:
                op._prov_item(item, policy, False)
        k = len(kept)
        op.tuples_blocked += n - k
        sps_out = 0
        if k:
            if op._held_sps:
                sps_out = len(op._held_sps)
                out.extend(op._held_sps)
                op._held_sps = []
            if k == n:
                out.append(cb)
            elif k == 1:
                out.append(kept[0])
            else:
                out.append(ColumnBatch(kept))  # type: ignore[arg-type]
        _account(op, start, n, k, sps_out)


def _make_stage(op: Operator) -> _Stage:
    if isinstance(op, Select):
        return _SelectStage(op)
    if isinstance(op, SecurityShield):
        return _ShieldStage(op)
    if isinstance(op, Project):
        return _ProjectStage(op)
    if isinstance(op, AccessFilter):
        return _AccessFilterStage(op)
    raise TypeError(f"operator {op!r} is not fusable")


class FusedChain:
    """A compiled linear chain executed as one columnar pass."""

    __slots__ = ("head", "tail", "stages", "operators")

    def __init__(self, nodes: "list[PlanNode]"):
        self.head = nodes[0]
        self.tail = nodes[-1]
        self.operators: tuple[Operator, ...] = tuple(
            node.operator for node in nodes)
        self.stages: tuple[_Stage, ...] = tuple(
            _make_stage(node.operator) for node in nodes)

    def __len__(self) -> int:
        return len(self.stages)

    def run(self, batch: TupleBatch) -> "list[StreamElement]":
        """Push one envelope through every stage; return the tail's
        output elements (column batches converted back to row-major).

        Per stage, the current frontier's elements are processed in
        order: column batches through the stage's columnar kernel, bare
        elements (sps, unwrapped singletons) through the operator's
        ordinary element path.  For a linear chain of deterministic
        unary operators this per-stage sweep yields exactly the
        depth-first delivery order of the unfused executor.
        """
        if len(batch.tuples) < MIN_FUSED_ROWS:
            # Sub-threshold run: the row→column conversion costs more
            # than the kernels save, so delegate to each operator's
            # native segment-batched path instead of materializing a
            # ColumnBatch.  Read from the module at call time so
            # harnesses that lower the threshold around a run (the
            # differential oracle pins it to 1) keep the kernels
            # engaged.
            plain: list[object] = [batch]
            for stage in self.stages:
                op = stage.op
                nxt_plain: list[object] = []
                for element in plain:
                    if type(element) is TupleBatch:
                        nxt_plain.extend(op.process_batch(element, 0))
                    else:
                        nxt_plain.extend(op.process(element, 0))
                if not nxt_plain:
                    return []
                plain = nxt_plain
            return plain  # type: ignore[return-value]
        # The envelope's head sps lead the frontier: each stage takes
        # them through its element path before the column kernel —
        # or, while they still directly precede the run, through the
        # envelope itself (one shared resolution).
        head = batch.sps
        n_head = len(head)
        frontier: list[object] = [*head, ColumnBatch.from_batch(batch)]
        for stage in self.stages:
            nxt: list[object] = []
            op = stage.op
            process = op.process
            if (n_head and stage.takes_head and len(frontier) > n_head
                    and type(frontier[n_head]) is not SecurityPunctuation
                    and all(a is b for a, b in zip(frontier, head))):
                op.stats.sps_in += n_head
                op.take_head(batch)
                frontier = frontier[n_head:]
            for element in frontier:
                if type(element) is ColumnBatch:
                    stage.run(element, nxt)
                else:
                    nxt.extend(process(element, 0))
            if not nxt:
                return []
            frontier = nxt
        out: "list[StreamElement]" = []
        for element in frontier:
            if type(element) is ColumnBatch:
                out.append(element.to_batch())
            else:
                out.append(element)  # type: ignore[arg-type]
        return out

    def __repr__(self) -> str:
        names = " → ".join(op.name for op in self.operators)
        return f"FusedChain({names})"


def build_fused_chains(plan: PhysicalPlan) -> dict[int, FusedChain]:
    """Detect maximal fusable chains; map head ``node_id`` → chain.

    Runs once per executor construction.  The plan DAG itself is never
    modified — fusion only short-circuits batch *delivery* between the
    chain's members.
    """
    indegree: dict[int, int] = {node.node_id: 0 for node in plan.nodes}
    for node in plan.nodes:
        for child, _ in node.downstream:
            indegree[child.node_id] += 1
    for targets in plan.entries.values():
        for entry_node, _ in targets:
            indegree[entry_node.node_id] += 1

    def fusable(node: PlanNode) -> bool:
        op = node.operator
        return (isinstance(op, FUSABLE_OPERATORS)
                and op.audit is None)

    chains: dict[int, FusedChain] = {}
    consumed: set[int] = set()
    for node in plan.topological():
        if node.node_id in consumed or not fusable(node):
            continue
        members = [node]
        cur = node
        while len(cur.downstream) == 1:
            child, port = cur.downstream[0]
            if (port != 0 or child.node_id in consumed
                    or indegree[child.node_id] != 1
                    or not fusable(child)):
                break
            members.append(child)
            cur = child
        if len(members) >= 2 and any(
                isinstance(member.operator, KERNEL_OPERATORS)
                for member in members):
            chains[members[0].node_id] = FusedChain(members)
            consumed.update(member.node_id for member in members)
    return chains

"""One-time predicate compilation for batched selects.

The element-wise engine evaluates a :class:`~repro.operators.conditions.Condition`
by method dispatch per tuple (``Comparison.__call__`` → dict lookup →
operator call).  On a segment-batched run that dispatch dominates; this
module lowers a condition **once per select** (on its first batch) into
a small pipeline of *mask kernels*, each mapping a
:class:`~repro.stream.columnar.ColumnBatch` (plus the running row mask)
to a new mask with one bulk list comprehension — no per-tuple
``Condition`` dispatch.  Batched selects
(:meth:`repro.operators.select.Select._process_batch`) filter long
runs through it.

Semantics are bit-for-bit those of the element-wise path:

* ``Comparison`` treats an absent attribute, a present ``None`` and a
  ``TypeError`` during comparison all as non-matches;
* impure conjuncts (``FuncCondition`` and anything else whose
  :meth:`~repro.operators.conditions.Condition.is_pure` is false) are
  kept as row-at-a-time calls evaluated **only on rows still alive in
  the mask**, preserving the call count and call order an element-wise
  ``And`` short-circuit would produce;
* pure kernels may evaluate a conjunct on rows a short-circuit would
  have skipped — unobservable by definition of purity.
"""

from __future__ import annotations

import operator as _operator
from itertools import repeat as _repeat
from typing import Callable, cast

from repro.analysis.rewrites import Proof
from repro.operators.conditions import (And, Comparison, Condition,
                                        FuncCondition, Not, Or,
                                        TrueCondition)
from repro.stream.columnar import MISSING, ColumnBatch

__all__ = ["CompiledPredicate", "compile_condition", "VectorKernel"]

#: A compiled pure conjunct: one bulk pass over a batch's columns.
VectorKernel = Callable[[ColumnBatch], "list[object]"]


def _comparison_kernel(cond: Comparison) -> VectorKernel:
    """Bulk form of ``Comparison.__call__`` over one or two columns."""
    fn = cond._fn
    attribute = cond.attribute
    if cond.rhs_attribute:
        rhs_key = cast(str, cond.value)

        def binary(cb: ColumnBatch) -> list[object]:
            left = cb.column(attribute)
            right = cb.column(rhs_key)
            try:
                # Optimistic bulk pass; ``and`` keeps raw fn results so
                # truthiness matches the element-wise evaluation.
                return [
                    lv is not MISSING and lv is not None
                    and rv is not MISSING and rv is not None and fn(lv, rv)
                    for lv, rv in zip(left, right)
                ]
            except TypeError:
                # Mixed-type rows: redo row-at-a-time with the
                # per-row TypeError→False rule.  Pure comparisons are
                # side-effect free, so re-evaluating rows is safe.
                out: list[object] = []
                for lv, rv in zip(left, right):
                    if (lv is MISSING or lv is None
                            or rv is MISSING or rv is None):
                        out.append(False)
                        continue
                    try:
                        out.append(fn(lv, rv))
                    except TypeError:
                        out.append(False)
                return out

        return binary

    rhs = cond.value
    if rhs is None:
        # ``x <op> None`` never matches (the element-wise None rule).
        return lambda cb: [False] * len(cb)

    # C-level bulk evaluation is only sound for operators where a
    # MISSING/None row either raises TypeError (the orderings) or
    # already yields False (``==``); ``!=`` would wrongly return True
    # for such rows, so it stays on the guarded comprehension.
    bulk_safe = fn is not _operator.ne

    def unary(cb: ColumnBatch) -> list[object]:
        left = cb.column(attribute)
        if bulk_safe:
            try:
                # Fastest path: a clean column (no MISSING/None rows)
                # evaluates entirely inside C — one ``map`` over the
                # operator function, no per-row bytecode.  A dirty row
                # raises TypeError against a concrete rhs and falls
                # through to the guarded comprehension.
                return list(map(fn, left, _repeat(rhs)))
            except TypeError:
                pass
        try:
            return [lv is not MISSING and lv is not None and fn(lv, rhs)
                    for lv in left]
        except TypeError:
            out: list[object] = []
            for lv in left:
                if lv is MISSING or lv is None:
                    out.append(False)
                    continue
                try:
                    out.append(fn(lv, rhs))
                except TypeError:
                    out.append(False)
            return out

    return unary


def _vector(cond: Condition) -> VectorKernel | None:
    """Lower a *pure* condition to a bulk kernel (None if unsupported)."""
    if isinstance(cond, TrueCondition):
        return lambda cb: [True] * len(cb)
    if isinstance(cond, Comparison):
        return _comparison_kernel(cond)
    if isinstance(cond, (And, Or)):
        kernels = [_vector(part) for part in cond.parts]
        if any(k is None for k in kernels):
            return None
        parts = cast("list[VectorKernel]", kernels)
        if isinstance(cond, And):

            def conj(cb: ColumnBatch) -> list[object]:
                mask = parts[0](cb)
                for kernel in parts[1:]:
                    other = kernel(cb)
                    mask = [m and v for m, v in zip(mask, other)]
                return mask

            return conj

        def disj(cb: ColumnBatch) -> list[object]:
            mask = parts[0](cb)
            for kernel in parts[1:]:
                other = kernel(cb)
                mask = [m or v for m, v in zip(mask, other)]
            return mask

        return disj
    if isinstance(cond, Not):
        inner = _vector(cond.inner)
        if inner is None:
            return None
        inner_kernel = inner
        return lambda cb: [not v for v in inner_kernel(cb)]
    if isinstance(cond, FuncCondition):
        # A UDF may join the bulk tier only on the effect analyzer's
        # proofs: purity + determinism (extra evaluations are
        # unobservable) *and* totality (bulk evaluation reaches rows
        # an element-wise short-circuit would skip, so the callable
        # must be provably non-raising on arbitrary rows).  UNKNOWN
        # fails closed to a row stage.
        if cond.is_pure() and cond.effects.totality is Proof.PROVEN:
            return _udf_kernel(cond)
        return None
    return None


def _udf_kernel(cond: FuncCondition) -> VectorKernel:
    """One pass of a proven UDF over a batch (no ``Condition``
    dispatch, no mask bookkeeping between conjuncts)."""
    fn = cond.fn
    return lambda cb: [bool(fn(item)) for item in cb.tuples]


class CompiledPredicate:
    """A condition lowered to a pipeline of mask stages.

    Stages correspond one-to-one to the condition's top-level
    conjuncts, in order.  Each stage is either a :data:`VectorKernel`
    (pure — evaluated in bulk and ANDed into the mask) or the original
    ``Condition`` (opaque — called per row still alive in the mask,
    mirroring the element-wise ``And`` short-circuit exactly).
    """

    __slots__ = ("condition", "_vector_stages", "_row_stages")

    def __init__(self, condition: Condition):
        self.condition = condition
        vector_stages: list[VectorKernel] = []
        row_stages: list[Condition] = []
        conjuncts = condition.conjuncts()
        for conjunct in conjuncts:
            kernel = _vector(conjunct) if conjunct.is_pure() else None
            if (kernel is None and len(conjuncts) == 1
                    and isinstance(conjunct, FuncCondition)
                    and conjunct.is_pure()):
                # Sole-conjunct escape: with no other conjunct there is
                # no short-circuit, so bulk evaluation touches exactly
                # the rows element-wise evaluation would — in the same
                # order — and an exception surfaces from the same row.
                # Proven purity + determinism alone suffice; no
                # totality proof needed.
                kernel = _udf_kernel(conjunct)
            if kernel is not None:
                vector_stages.append(kernel)
            else:
                row_stages.append(conjunct)
        self._vector_stages = tuple(vector_stages)
        self._row_stages = tuple(row_stages)

    @property
    def fully_vectorized(self) -> bool:
        """Whether no opaque per-row stage remains."""
        return not self._row_stages

    def mask(self, cb: ColumnBatch) -> list[object]:
        """Per-row pass flags for the whole batch (truthy = keep)."""
        mask: list[object] | None = None
        for kernel in self._vector_stages:
            stage = kernel(cb)
            mask = stage if mask is None else (
                [m and v for m, v in zip(mask, stage)])
        for cond in self._row_stages:
            # Opaque conjuncts run only on surviving rows, in row
            # order — identical call counts/order to element-wise.
            if mask is None:
                mask = [cond(item) for item in cb.tuples]
            else:
                mask = [m and cond(item)
                        for m, item in zip(mask, cb.tuples)]
        if mask is None:
            return [True] * len(cb)
        return mask

    def __repr__(self) -> str:
        return (f"CompiledPredicate({self.condition!r}, "
                f"vector={len(self._vector_stages)}, "
                f"row={len(self._row_stages)})")


def compile_condition(condition: Condition) -> CompiledPredicate:
    """Lower ``condition`` into a :class:`CompiledPredicate` (once per
    select — the result is reusable across every batch)."""
    return CompiledPredicate(condition)


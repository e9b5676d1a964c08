"""Sp-aware selection (σ).

Table I: ``(t, Pt) ∈ σc(T) iff t satisfies c and Pt ≠ ∅``.

A select operator drops tuples that fail the condition and *delays* sp
propagation until at least one tuple covered by the sp's policy
satisfies the condition; if every tuple of a policy is filtered out,
the policy's sps are discarded as well (there is nothing downstream for
them to protect).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.punctuation import SecurityPunctuation
from repro.operators.base import UnaryOperator
from repro.operators.conditions import Condition, FuncCondition
from repro.stream.batch import TupleBatch, forward
from repro.stream.columnar import ColumnBatch
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

if TYPE_CHECKING:
    from repro.operators.compiler import CompiledPredicate

__all__ = ["Select"]

#: Runs shorter than this skip the compiled predicate and call the
#: condition per tuple: below it the kernels' fixed cost (column
#: extraction, mask assembly) outweighs their per-row saving — a
#: single comparison broke even at ~10 rows on a 2-vCPU Xeon with
#: Python 3.11, and sp:tuple 1/1 feeds one-row runs.  Both paths keep
#: the same rows and make the same calls to impure conjuncts, so
#: results and counters do not depend on it.
KERNEL_MIN_ROWS = 10


class Select(UnaryOperator):
    """Filter tuples by a condition, delaying sp propagation."""

    def __init__(self, condition: Condition, *, name: str | None = None):
        super().__init__(name)
        if callable(condition) and not isinstance(condition, Condition):
            # Bare callables get their read-set inferred by the UDF
            # effect analyzer; unverifiable ones warn at construction.
            condition = FuncCondition.wrap(condition)
        self.condition: Condition = condition
        #: The condition lowered to mask kernels, built on the first
        #: batch (element-wise runs never pay for it).
        self._predicate: "CompiledPredicate | None" = None
        #: Sps of the current segment not yet propagated.
        self._held_sps: list[SecurityPunctuation] = []
        #: Whether the previous element was a tuple (marks sp-batch /
        #: segment boundaries).
        self._after_tuple = False
        self.sps_discarded = 0
        self.tuples_dropped = 0

    def _process(self, element: StreamElement,
                 port: int) -> list[StreamElement]:
        if isinstance(element, SecurityPunctuation):
            if self._after_tuple and self._held_sps:
                # The previous segment ended without any passing tuple:
                # its sps are dropped.
                self.sps_discarded += len(self._held_sps)
                self._held_sps = []
            self._after_tuple = False
            self._held_sps.append(element)
            return []
        return self._process_tuple(element)

    def _process_tuple(self, item: DataTuple) -> list[StreamElement]:
        self._after_tuple = True
        self.stats.comparisons += 1
        if not self.condition(item):
            self.tuples_dropped += 1
            return []
        out: list[StreamElement] = []
        if self._held_sps:
            out.extend(self._held_sps)
            self._held_sps = []
        out.append(item)
        return out

    def _process_batch(self, batch: TupleBatch,
                       port: int) -> list[StreamElement]:
        """Batch fast path: filter the whole run in one pass — through
        the compiled predicate (:mod:`repro.operators.compiler`) from
        :data:`KERNEL_MIN_ROWS` rows up, in one comprehension below.

        The envelope's head sps join the held sps first (a previous
        segment that passed nothing loses its sps, as element-wise).
        A run that passes whole with exactly its own sps (or none)
        leaves as the same envelope.
        """
        sps = batch.sps
        held: Sequence[SecurityPunctuation] = self._held_sps
        if sps:
            if not held or self._after_tuple:
                # The previous segment ended without a passing tuple:
                # its sps are dropped.
                self.sps_discarded += len(held)
                held = sps
            else:
                held = [*held, *sps]
        self._after_tuple = True
        tuples = batch.tuples
        self.stats.comparisons += len(tuples)
        if len(tuples) < KERNEL_MIN_ROWS:
            condition = self.condition
            passing = [item for item in tuples if condition(item)]
        else:
            predicate = self._predicate
            if predicate is None:
                # Deferred: the compiler's import of repro.analysis
                # leads back to this module.
                from repro.operators.compiler import compile_condition

                predicate = self._predicate = compile_condition(
                    self.condition)
            mask = predicate.mask(ColumnBatch(tuples))
            passing = [item for item, keep in zip(tuples, mask) if keep]
        self.tuples_dropped += len(tuples) - len(passing)
        if not passing:
            if held is not self._held_sps:
                self._held_sps = list(held)
            return []
        self._held_sps = []
        return [forward(batch, passing, held)]

    def flush(self) -> list[StreamElement]:
        self.sps_discarded += len(self._held_sps)
        self._held_sps = []
        return []

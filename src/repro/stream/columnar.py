"""Column views of a tuple run, for the compiled predicate kernels.

A batched Select filters each run through its compiled predicate
(:mod:`repro.operators.compiler`), whose kernels read one attribute
column at a time.  :class:`ColumnBatch` is that view: the run's tuples
plus per-attribute value lists, extracted lazily on first access and
shared by every conjunct of the predicate.  It is an execution detail
of one operator call and never leaves it.

Absent attributes are distinguished from present-``None`` values by the
:data:`MISSING` sentinel, mirroring ``DataTuple.values`` exactly;
``Comparison`` treats both as a failed match.
"""

from __future__ import annotations

from typing import Sequence

from repro.stream.tuples import DataTuple

__all__ = ["MISSING", "ColumnBatch"]


class _Missing:
    """Sentinel marking an attribute absent from a tuple (not ``None``)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False


#: The single absent-attribute sentinel (identity-comparable).
MISSING = _Missing()


class ColumnBatch:
    """A tuple run with lazily extracted, cached attribute columns."""

    __slots__ = ("tuples", "_columns")

    def __init__(self, tuples: Sequence[DataTuple]):
        self.tuples: list[DataTuple] = list(tuples) \
            if not isinstance(tuples, list) else tuples
        self._columns: dict[str, list[object]] = {}

    def __len__(self) -> int:
        return len(self.tuples)

    def column(self, attribute: str) -> list[object]:
        """Per-row values of ``attribute`` (:data:`MISSING` if absent).

        Extracted once per attribute and cached, so conjuncts reading
        the same attribute share one extraction.
        """
        cached = self._columns.get(attribute)
        if cached is not None:
            return cached
        try:
            # Optimistic subscript: on the hot path the attribute is
            # present in every row, and ``d[k]`` beats ``d.get(k, …)``
            # (no bound-method call).
            column: list[object] = [item.values[attribute]
                                    for item in self.tuples]
        except KeyError:
            column = [item.values.get(attribute, MISSING)
                      for item in self.tuples]
        self._columns[attribute] = column
        return column

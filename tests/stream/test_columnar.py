"""ColumnBatch views and predicate compilation.

Property-style checks backing batched Select's compiled predicate: a
:class:`ColumnBatch` wraps a run without copying it and tells absent
attributes from present-``None`` ones, and every compiled kernel must
agree row-for-row with the element-wise ``Condition`` evaluation it
lowers, including the dirty-row rules (absent attribute, ``None``,
mixed-type ``TypeError``) and opaque-conjunct call counting.
"""

import pytest

from repro.operators.compiler import compile_condition
from repro.operators.conditions import (And, Comparison, FuncCondition, Not,
                                        Or, TrueCondition)
from repro.operators.project import Project
from repro.stream.batch import TupleBatch
from repro.stream.columnar import MISSING, ColumnBatch
from repro.stream.tuples import DataTuple


def tup(tid, values, ts=None):
    return DataTuple("s1", tid, values, float(tid) if ts is None else ts)


def mixed_rows():
    """Rows exercising every value-presence case."""
    return [
        tup(0, {"v": 5.0, "w": "a"}),
        tup(1, {"v": None, "w": "b"}),          # present None
        tup(2, {"w": "c"}),                      # v absent
        tup(3, {"v": "text", "w": None}),        # mixed type
        tup(4, {"v": -1.5, "w": "a", "x": 9}),
    ]


# -- column views --------------------------------------------------------------

class TestRoundTrip:
    def test_round_trip_preserves_identity_without_copying(self):
        rows = mixed_rows()
        cb = ColumnBatch(TupleBatch(rows).tuples)
        assert cb.tuples is rows

    def test_column_distinguishes_absent_from_none(self):
        cb = ColumnBatch(mixed_rows())
        col = cb.column("v")
        assert col[0] == 5.0
        assert col[1] is None          # present None survives
        assert col[2] is MISSING       # absent is the sentinel
        assert col[3] == "text"

    def test_column_is_cached(self):
        cb = ColumnBatch(mixed_rows())
        assert cb.column("v") is cb.column("v")

    def test_missing_sentinel_is_falsy_and_unique(self):
        assert not MISSING
        assert repr(MISSING) == "MISSING"

    def test_project_keeps_present_none_drops_absent(self):
        """A batched Project over the same dirty rows."""
        rows = mixed_rows()
        (out,) = Project(["v", "x"]).process_batch(TupleBatch(rows), 0)
        assert out.tuples[0].values == {"v": 5.0}
        assert out.tuples[1].values == {"v": None}   # present None kept
        assert out.tuples[2].values == {}            # absent stays absent
        assert out.tuples[4].values == {"v": -1.5, "x": 9}
        # Identity fields survive the rebuild.
        assert [t.tid for t in out.tuples] == [t.tid for t in rows]
        assert [t.ts for t in out.tuples] == [t.ts for t in rows]
        assert [t.sid for t in out.tuples] == [t.sid for t in rows]

    def test_basics(self):
        rows = mixed_rows()
        cb = ColumnBatch(rows)
        assert len(cb) == len(rows)
        assert cb.column("x") == [MISSING] * 4 + [9]


# -- purity classification ---------------------------------------------------

class TestPurity:
    def test_structural_conditions_are_pure(self):
        assert TrueCondition().is_pure()
        assert Comparison("v", ">", 1).is_pure()
        assert And([Comparison("v", ">", 1),
                    Comparison("w", "=", "a")]).is_pure()
        assert Or([Comparison("v", ">", 1),
                   Not(Comparison("w", "=", "a"))]).is_pure()

    def test_unproven_func_condition_is_opaque(self):
        # getattr with a name from a variable defeats the effect
        # analyzer: the verdict is UNKNOWN, which fails closed.
        def opaque(t):
            field = "v"
            return getattr(t, "values")[field] is not None

        fn = FuncCondition(opaque, ["v"])
        assert not fn.is_pure()
        assert not And([Comparison("v", ">", 1), fn]).is_pure()
        assert not Not(fn).is_pure()

    def test_proven_pure_func_condition_is_pure(self):
        # The UDF effect analyzer proves purity + determinism, so the
        # compiler may vectorize (PR 10; docs/ANALYSIS.md UDF effects).
        fn = FuncCondition(lambda t: True, ["v"])
        assert fn.is_pure()
        assert And([Comparison("v", ">", 1), fn]).is_pure()
        assert Not(fn).is_pure()


# -- compiled predicates -----------------------------------------------------

def assert_mask_matches(cond, rows):
    """The compiled mask must agree with element-wise evaluation."""
    compiled = compile_condition(cond)
    cb = ColumnBatch(rows)
    mask = [bool(flag) for flag in compiled.mask(cb)]
    assert mask == [bool(cond(item)) for item in rows]


OPS = ["=", "==", "!=", "<>", "<", "<=", ">", ">="]


class TestCompiledPredicate:
    @pytest.mark.parametrize("op", OPS)
    def test_unary_comparison_on_dirty_rows(self, op):
        # Absent / None / mixed-type rows all obey the element-wise
        # non-match rules (notably "!=" must NOT pass None/absent).
        assert_mask_matches(Comparison("v", op, 1.0), mixed_rows())

    @pytest.mark.parametrize("op", OPS)
    def test_unary_comparison_on_clean_rows(self, op):
        rows = [tup(i, {"v": float(i) - 2.0}) for i in range(5)]
        assert_mask_matches(Comparison("v", op, 0.0), rows)

    @pytest.mark.parametrize("op", OPS)
    def test_binary_comparison(self, op):
        rows = mixed_rows() + [tup(5, {"v": 2.0, "w": 2.0})]
        assert_mask_matches(Comparison("v", op, "w", rhs_attribute=True),
                            rows)

    def test_none_rhs_never_matches(self):
        rows = mixed_rows()
        assert_mask_matches(Comparison("v", "=", None), rows)
        compiled = compile_condition(Comparison("v", "=", None))
        assert compiled.mask(ColumnBatch(rows)) == [False] * len(rows)

    def test_boolean_combinators(self):
        rows = mixed_rows() + [tup(6, {"v": 3.0, "w": "a"})]
        cond = And([Or([Comparison("v", ">", 0.0),
                        Comparison("w", "=", "a")]),
                    Not(Comparison("v", ">=", 5.0))])
        assert_mask_matches(cond, rows)
        assert compile_condition(cond).fully_vectorized

    def test_true_condition(self):
        rows = mixed_rows()
        assert_mask_matches(TrueCondition(), rows)

    def test_opaque_conjunct_call_count_and_order(self):
        # The opaque stage must be invoked exactly once per row that
        # survived the vector stages, in row order — the element-wise
        # And short-circuit contract.
        rows = [tup(i, {"v": float(i)}) for i in range(6)]
        calls = []

        def probe(item):
            calls.append(item.tid)
            return item.tid % 2 == 0

        cond = And([Comparison("v", ">=", 2.0),
                    FuncCondition(probe, ["v"], label="probe")])
        compiled = compile_condition(cond)
        assert not compiled.fully_vectorized
        mask = [bool(f) for f in compiled.mask(ColumnBatch(rows))]
        assert mask == [False, False, True, False, True, False]
        assert calls == [2, 3, 4, 5]  # only survivors, in order

    def test_opaque_only_condition(self):
        rows = [tup(i, {"v": float(i)}) for i in range(4)]
        cond = FuncCondition(lambda t: t.values["v"] > 1.5, ["v"])
        assert_mask_matches(cond, rows)

    def test_fallback_handles_unorderable_rhs(self):
        # Every row raises TypeError against the rhs: per-row fallback.
        rows = [tup(0, {"v": "a"}), tup(1, {"v": "b"})]
        assert_mask_matches(Comparison("v", "<", 1.0), rows)


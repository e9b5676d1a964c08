"""Tests for the redesigned execution API surface.

Covers :class:`OptimizeLevel` (including legacy-value coercion with
deprecation warnings), the public ``DSMS.shields`` view, and
``SecurityShield.rebind``.
"""

import warnings

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.api import OptimizeLevel
from repro.engine.dsms import DSMS
from repro.errors import QueryError
from repro.operators.shield import SecurityShield
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

SCHEMA = StreamSchema("hr", ("patient", "bpm"), key="patient")


class TestOptimizeLevelCoercion:
    def test_enum_values_pass_through(self):
        for level in OptimizeLevel:
            assert OptimizeLevel.coerce(level) is level

    def test_none_means_no_optimization(self):
        assert OptimizeLevel.coerce(None) is OptimizeLevel.NONE

    def test_string_names_warn_and_translate(self):
        with pytest.warns(DeprecationWarning):
            assert (OptimizeLevel.coerce("per_query")
                    is OptimizeLevel.PER_QUERY)
        with pytest.warns(DeprecationWarning):
            assert OptimizeLevel.coerce("none") is OptimizeLevel.NONE

    @pytest.mark.parametrize("legacy,expected", [
        (False, OptimizeLevel.NONE),
        (True, OptimizeLevel.PER_QUERY),
        ("workload", OptimizeLevel.WORKLOAD),
    ])
    def test_legacy_values_warn_and_translate(self, legacy, expected):
        with pytest.warns(DeprecationWarning):
            assert OptimizeLevel.coerce(legacy) is expected

    def test_unknown_values_rejected(self):
        with pytest.raises(QueryError):
            OptimizeLevel.coerce("turbo")
        with pytest.raises(QueryError):
            OptimizeLevel.coerce(3)

    def test_dsms_run_accepts_legacy_bool(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [
            SecurityPunctuation.grant(["D"], 0.0, provider="p"),
            DataTuple("hr", 1, {"patient": 1, "bpm": 70}, 1.0),
        ])
        dsms.register_query("q", ScanExpr("hr"), roles={"D"})
        with pytest.warns(DeprecationWarning):
            results = dsms.run(optimize=True)
        assert len(results["q"].tuples) == 1

    def test_dsms_run_enum_emits_no_warning(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [])
        dsms.register_query("q", ScanExpr("hr"), roles={"D"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dsms.run(optimize=OptimizeLevel.PER_QUERY)

    @pytest.mark.parametrize("columnar", [True, False])
    def test_dsms_run_columnar_warns_and_is_ignored(self, columnar):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [
            SecurityPunctuation.grant(["D"], 0.0, provider="p"),
            DataTuple("hr", 1, {"patient": 1, "bpm": 70}, 1.0),
        ])
        dsms.register_query("q", ScanExpr("hr"), roles={"D"})
        with pytest.warns(DeprecationWarning, match="columnar"):
            results = dsms.run(columnar=columnar)
        assert results["q"].elements == dsms.run()["q"].elements


class TestShieldsView:
    def test_unknown_query_raises(self):
        dsms = DSMS()
        with pytest.raises(QueryError):
            dsms.shields("nope")

    def test_returns_query_and_delivery_shields(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [])
        dsms.register_query("q", ScanExpr("hr"), roles={"D"})
        dsms.run()
        shields = dsms.shields("q")
        assert shields and all(isinstance(s, SecurityShield)
                               for s in shields)
        assert all(s.predicate.names() == frozenset({"D"}) for s in shields)

    def test_before_any_run_is_empty(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [])
        dsms.register_query("q", ScanExpr("hr"), roles={"D"})
        assert dsms.shields("q") == ()


class TestShieldRebind:
    def test_rebind_replaces_predicate_and_invalidates_cache(self):
        shield = SecurityShield({"D"})
        shield.process(SecurityPunctuation.grant(["D"], 0.0))
        assert shield.process(DataTuple("s", 1, {"x": 1}, 1.0))
        shield.rebind({"C"})
        assert shield.predicate.names() == frozenset({"C"})
        # Cached segment decision must not survive the rebind.
        assert shield.process(DataTuple("s", 2, {"x": 2}, 2.0)) == []

    def test_update_query_roles_uses_rebind(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA, [])
        dsms.register_query("q", ScanExpr("hr"), roles={"D"})
        session = dsms.open_session()
        session.push("hr", SecurityPunctuation.grant(["D"], 0.0,
                                                     provider="p"))
        out = session.push("hr", DataTuple("hr", 1,
                                           {"patient": 1, "bpm": 70}, 1.0))
        assert [t.tid for t in out["q"] if isinstance(t, DataTuple)] == [1]
        dsms.update_query_roles("q", {"C"})
        assert all(s.predicate.names() == frozenset({"C"})
                   for s in dsms.shields("q"))
        out = session.push("hr", DataTuple("hr", 2,
                                           {"patient": 2, "bpm": 80}, 2.0))
        assert [t for t in out["q"] if isinstance(t, DataTuple)] == []
        session.close()

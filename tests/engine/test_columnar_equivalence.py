"""Batched Select's column kernels: batched vs element-wise vs oracle.

A batched :class:`~repro.operators.select.Select` filters every run
through its compiled predicate (:mod:`repro.operators.compiler`), whose
kernels read the run as :class:`~repro.stream.columnar.ColumnBatch`
columns.  These plan and stream shapes put those kernels beside
non-uniform shields, projects, opaque UDF conjuncts and a shared-plan
fan-out.  Each batched run must match the element-wise run under the
full equivalence contract of ``test_batch_equivalence``, and both must
deliver exactly what the reference oracle (:mod:`repro.verify.oracle`)
delivers.  The kernels' run-length cutover is lowered to 1 so they run
on the short segments these shapes use, except where a test straddles
the real cutover.
"""

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.analyzer import SPAnalyzer
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.operators import select as select_module
from repro.operators.conditions import And, Comparison, FuncCondition
from repro.stream.batch import TupleBatch
from repro.stream.tuples import DataTuple
from repro.verify.differ import _decode_sink, diff_delivered
from repro.verify.oracle import run_oracle
from repro.workloads.synthetic import SYNTH_SCHEMA

from tests.engine.test_batch_equivalence import (
    SCHEMA, assert_equivalent, empty_segment_stream, held_sp_stream,
    incremental_head_stream, multi_sp_stream, run_both,
    superseded_batch_stream, tid_scoped_singleton_stream,
    tuple_scoped_stream, uniform_stream)


@pytest.fixture(autouse=True)
def force_kernels(monkeypatch):
    """Run the column kernels regardless of run length."""
    monkeypatch.setattr(select_module, "KERNEL_MIN_ROWS", 1)


def scan(stream):
    return {"op": "scan", "stream": stream}


def select(child, attribute, op, value):
    return {"op": "select", "input": child,
            "condition": {"attribute": attribute, "op": op,
                          "value": value}}


def assert_all_equivalent(make_dsms, streams, queries):
    """Element-wise ≡ batched (observability on and off), and both
    deliver the oracle's multiset for each query of ``queries``
    (oracle plan specs, ``{name: {"roles": [...], "plan": spec}}``;
    ``None`` skips the oracle)."""
    oracle = run_oracle(streams, queries) if queries is not None else None
    for observability in (True, False):
        outcomes = run_both(make_dsms, observability=observability)
        assert_equivalent(*outcomes)
        if oracle is None:
            continue
        for results, _ in outcomes:
            assert results.keys() == queries.keys()
            for name in queries:
                detail = diff_delivered(
                    oracle.delivered[name],
                    _decode_sink(results[name].elements))
                assert detail is None, f"{name}: {detail}"


# -- execution equivalence ---------------------------------------------------

@pytest.mark.parametrize("tuples_per_sp", [1, 3, 10, 40])
@pytest.mark.parametrize("seed", [0, 1])
def test_select_shield_uniform(seed, tuples_per_sp):
    elements = uniform_stream(seed, tuples_per_sp)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        dsms.register_query(
            "q", ScanExpr("synthetic").select(Comparison("x", ">", 400.0)),
            roles={"q_role"})
        return dsms

    assert_all_equivalent(
        make, {"synthetic": elements},
        {"q": {"roles": ["q_role"],
               "plan": select(scan("synthetic"), "x", ">", 400.0)}})


_EDGE_STREAMS = (tuple_scoped_stream, held_sp_stream, empty_segment_stream,
                 multi_sp_stream, incremental_head_stream,
                 superseded_batch_stream, tid_scoped_singleton_stream)


@pytest.mark.parametrize("stream_builder, fronted", [
    *(pytest.param(b, False, id=b.__name__) for b in _EDGE_STREAMS),
    *(pytest.param(b, True, id=f"{b.__name__}-select-fronted")
      for b in _EDGE_STREAMS)])
def test_shield_non_uniform_and_edges(stream_builder, fronted):
    """Non-uniform and edge-case segments at the shields, bare and
    with a pass-all select (column kernels, held sps) in front."""
    elements = stream_builder()
    expr = ScanExpr("s1")
    plan = scan("s1")
    if fronted:
        expr = expr.select(Comparison("v", ">=", 0.0))
        plan = select(plan, "v", ">=", 0.0)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SCHEMA, elements)
        dsms.register_query("q", expr, roles={"D"})
        return dsms

    # The oracle does not model incremental (add/retract) sps.
    queries = (None if stream_builder is incremental_head_stream
               else {"q": {"roles": ["D"], "plan": plan}})
    assert_all_equivalent(make, {"s1": elements}, queries)


def test_select_project_shield_chain():
    """σ → π → delivery ψ with dirty rows."""
    elements = uniform_stream(3, 8, n_tuples=160)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        expr = (ScanExpr("synthetic")
                .select(Comparison("x", ">", 200.0))
                .project(["object_id", "x"]))
        dsms.register_query("q", expr, roles={"q_role"})
        return dsms

    plan = {"op": "project", "attributes": ["object_id", "x"],
            "input": select(scan("synthetic"), "x", ">", 200.0)}
    assert_all_equivalent(make, {"synthetic": elements},
                          {"q": {"roles": ["q_role"], "plan": plan}})


def test_opaque_condition_chain():
    """Opaque FuncCondition: the compiled predicate's row stage."""
    elements = uniform_stream(5, 10, n_tuples=120)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        cond = FuncCondition(lambda t: t.values["x"] > 300.0, ["x"])
        dsms.register_query("q", ScanExpr("synthetic").select(cond),
                            roles={"q_role"})
        return dsms

    # The oracle has no mirror of an ad-hoc callable; the comparison
    # it computes is the same predicate.
    assert_all_equivalent(
        make, {"synthetic": elements},
        {"q": {"roles": ["q_role"],
               "plan": select(scan("synthetic"), "x", ">", 300.0)}})


def test_multi_query_shared_plan_fanout():
    """One shared select fanning out to three query shields."""
    elements = uniform_stream(7, 10, n_tuples=150)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        base = ScanExpr("synthetic").select(Comparison("x", ">", 200.0))
        for index in range(3):
            dsms.register_query(f"q{index}", base,
                                roles={f"r{index + 1}", "q_role"})
        return dsms

    plan = select(scan("synthetic"), "x", ">", 200.0)
    assert_all_equivalent(
        make, {"synthetic": elements},
        {f"q{index}": {"roles": [f"r{index + 1}", "q_role"], "plan": plan}
         for index in range(3)})


def test_production_threshold_equivalence(monkeypatch):
    """Runs straddling the real ``KERNEL_MIN_ROWS`` cutover: a select
    takes the kernels on some runs and the direct calls on others."""
    monkeypatch.undo()
    cutover = select_module.KERNEL_MIN_ROWS
    assert cutover > 1
    elements = []
    tid = 0
    for segment, length in enumerate(
            [1, cutover - 1, cutover, cutover + 1, 5 * cutover] * 4):
        ts = float(tid)
        elements.append(SecurityPunctuation.grant(
            ["q_role"] if segment % 3 else ["other"], ts))
        for _ in range(length):
            elements.append(DataTuple("synthetic", tid,
                                      {"x": float(tid * 37 % 1000)},
                                      ts + 0.5))
            tid += 1

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        dsms.register_query(
            "q", ScanExpr("synthetic").select(Comparison("x", ">", 300.0)),
            roles={"q_role"})
        return dsms

    assert_all_equivalent(
        make, {"synthetic": elements},
        {"q": {"roles": ["q_role"],
               "plan": select(scan("synthetic"), "x", ">", 300.0)}})


def test_impure_conjunct_skips_dropped_rows():
    """An impure UDF conjunct behind a comparison is called only on
    the rows the comparison kept, once each and in row order — the
    element-wise ``And`` short-circuit, under batching too."""
    elements = uniform_stream(4, 10, n_tuples=200)
    calls = []

    def record(item):
        calls.append(item.tid)
        return item.values["x"] < 800.0

    condition = And([Comparison("x", ">", 500.0),
                     FuncCondition(record, ["x"], label="record")])
    assert not condition.conjuncts()[1].is_pure()
    seen = {}
    for batching in (False, True):
        calls.clear()
        dsms = DSMS()
        dsms.register_stream(SYNTH_SCHEMA, elements)
        dsms.register_query(
            "q", ScanExpr("synthetic").select(condition), roles={"q_role"})
        dsms.run(batching=batching)
        seen[batching] = list(calls)
    kept = [el.tid for el in elements
            if isinstance(el, DataTuple) and el.values["x"] > 500.0]
    assert kept and len(kept) < 200
    assert seen[True] == seen[False] == kept


def test_select_fronted_envelope_resolved_once(monkeypatch):
    """A select that passes a whole run forwards the envelope itself,
    so the query and delivery shields below it share one resolution
    per envelope."""
    from repro.stream import batch as batch_module

    elements = uniform_stream(2, 1, n_tuples=120)
    resolutions = []
    real = batch_module.uniform_tuple_policy

    def counting(head):
        resolutions.append(head)
        return real(head)

    monkeypatch.setattr(batch_module, "uniform_tuple_policy", counting)
    dsms = DSMS()
    dsms.register_stream(SYNTH_SCHEMA, elements)
    # Every tuple passes the select, so each envelope's sps reach the
    # shields directly ahead of the run.
    dsms.register_query(
        "q", ScanExpr("synthetic").select(Comparison("x", ">", -1.0)),
        roles={"q_role"})
    dsms.run()
    envelopes = [el for el in SPAnalyzer().analyze_batched(iter(elements))
                 if isinstance(el, TupleBatch) and el.sps]
    assert len(envelopes) > 50
    assert len(resolutions) == len(envelopes)

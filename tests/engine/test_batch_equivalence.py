"""Batched vs element-wise execution equivalence (segment batching).

Property-style suite backing the segment-batched execution engine:
for every plan shape and stream shape exercised here, running the same
workload with ``batching=True`` and ``batching=False`` must produce

* identical ordered result elements per query,
* identical drop counts (whole-plan and per stage),
* identical audit event sequences, per-kind counts and eviction
  counts (with observability on),
* identical security metric counters (shield verdicts,
  denial-by-default drops, segment/sp-batch size distributions) —
  latency histograms may legitimately differ in observation counts
  (one observation per batch vs per element), but decision counting
  must not depend on the execution mode.

Stream shapes cover uniform segments, non-uniform (tuple-scoped)
segments, held-sp release, empty segments, denial-by-default prefixes
and segment lengths from 1 tuple per sp upward.
"""

from dataclasses import asdict

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.analyzer import SPAnalyzer
from repro.core.patterns import one_of
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.observability import AuditLog, Observability, Tracer
from repro.operators.conditions import Comparison
from repro.operators.shield import SecurityShield
from repro.stream import batch as batch_module
from repro.stream.batch import (DEFAULT_MAX_BATCH, TupleBatch,
                                coalesce_elements, coalesce_feed)
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple
from repro.workloads.synthetic import SYNTH_SCHEMA, punctuated_stream

SCHEMA = StreamSchema("s1", ("v",))


def run_both(make_dsms, *, observability: bool = True, hub=None):
    """Run a freshly built DSMS in both modes; return both outcomes.

    ``hub`` builds the Observability to run under (default: everything
    on, or everything off with ``observability=False``).
    """
    if hub is None:
        hub = (Observability.in_memory if observability
               else Observability.disabled)
    outcomes = {}
    for batching in (False, True):
        dsms = make_dsms(hub())
        results = dsms.run(batching=batching)
        outcomes[batching] = (results, dsms)
    return outcomes[False], outcomes[True]


def assert_equivalent(plain, batched):
    """The full equivalence contract between the two execution modes."""
    plain_results, plain_dsms = plain
    batched_results, batched_dsms = batched
    assert plain_results.keys() == batched_results.keys()
    for name in plain_results:
        assert (plain_results[name].elements
                == batched_results[name].elements), name
    plain_report = plain_dsms.last_report
    batched_report = batched_dsms.last_report
    assert plain_report.elements_in == batched_report.elements_in
    assert plain_report.tuples_in == batched_report.tuples_in
    assert plain_report.sps_in == batched_report.sps_in
    assert plain_report.total_drops == batched_report.total_drops
    for p_stage, b_stage in zip(plain_report.stages,
                                batched_report.stages):
        assert p_stage.name == b_stage.name
        for counter in ("tuples_in", "tuples_out", "sps_in", "sps_out",
                        "drops", "comparisons"):
            assert getattr(p_stage, counter) == getattr(b_stage, counter), \
                f"{p_stage.name}.{counter}"
    if plain_dsms.audit is not None:
        plain_events = [asdict(e) for e in plain_dsms.audit]
        batched_events = [asdict(e) for e in batched_dsms.audit]
        assert plain_events == batched_events
        assert plain_dsms.audit.counts == batched_dsms.audit.counts
        assert plain_dsms.audit.evicted == batched_dsms.audit.evicted
    if plain_dsms.observability.metrics is not None:
        assert_security_metrics_equivalent(plain_dsms, batched_dsms)


#: Counter families whose per-series totals must match across modes.
_SECURITY_COUNTERS = ("repro_shield_tuples_total",
                      "repro_denial_by_default_drops_total")
#: Histogram families whose full distribution must match across modes
#: (sizes are data-dependent, not timing-dependent).
_SECURITY_HISTOGRAMS = ("repro_segment_size_tuples",
                        "repro_sp_batch_size_sps")


def _counter_series(registry, name):
    family = registry.get(name)
    if family is None:
        return {}
    return {values: child.current() for values, child in family.series()}


def _histogram_series(registry, name):
    family = registry.get(name)
    if family is None:
        return {}
    return {values: (child.count, child.sum, tuple(child.counts))
            for values, child in family.series()}


def assert_security_metrics_equivalent(plain_dsms, batched_dsms):
    """Security decision metrics must not depend on execution mode."""
    plain_reg = plain_dsms.observability.metrics
    batched_reg = batched_dsms.observability.metrics
    for name in _SECURITY_COUNTERS:
        assert _counter_series(plain_reg, name) == \
            _counter_series(batched_reg, name), name
    for name in _SECURITY_HISTOGRAMS:
        assert _histogram_series(plain_reg, name) == \
            _histogram_series(batched_reg, name), name


# -- stream shapes ---------------------------------------------------------

def uniform_stream(seed: int, tuples_per_sp: int, n_tuples: int = 120):
    return list(punctuated_stream(
        n_tuples, tuples_per_sp=tuples_per_sp, policy_size=3,
        accessible_fraction=0.5, seed=seed))


def tuple_scoped_stream(n_segments: int = 12, seg_len: int = 5):
    """Non-uniform segments: per-tuple-id policies within a segment."""
    elements = []
    ts = 0.0
    tid = 0
    for _ in range(n_segments):
        ts += 1.0
        ids = list(range(tid, tid + seg_len))
        evens = [i for i in ids if i % 2 == 0]
        odds = [i for i in ids if i % 2 == 1]
        if evens:
            elements.append(SecurityPunctuation.grant(
                ["D"], ts, tuple_id=one_of(evens)))
        if odds:
            elements.append(SecurityPunctuation.grant(
                ["N"], ts, tuple_id=one_of(odds)))
        for i in ids:
            ts += 1.0
            elements.append(DataTuple("s1", i, {"v": float(i)}, ts))
            tid += 1
    return elements


def held_sp_stream():
    """Segments whose first tuple(s) are dropped: sps release late."""
    elements = []
    ts = 0.0
    tid = 0
    for segment in range(8):
        ts += 1.0
        # Odd tids only: the segment's first tuple never passes the
        # shield, so its sps are held until the first odd tid.
        elements.append(SecurityPunctuation.grant(
            ["D"], ts, tuple_id=one_of([tid + 1, tid + 3])))
        for _ in range(4):
            ts += 1.0
            elements.append(DataTuple("s1", tid, {"v": float(tid)}, ts))
            tid += 1
    return elements


def empty_segment_stream():
    """Consecutive sp-batches with no tuples, plus a no-sp prefix."""
    return [
        # Denial-by-default prefix: tuples before any sp.
        DataTuple("s1", 0, {"v": 0.0}, 1.0),
        DataTuple("s1", 1, {"v": 1.0}, 2.0),
        # Empty segment: immediately overridden policy.
        SecurityPunctuation.grant(["N"], 3.0),
        SecurityPunctuation.grant(["D"], 4.0),
        DataTuple("s1", 2, {"v": 2.0}, 5.0),
        DataTuple("s1", 3, {"v": 3.0}, 6.0),
        # Trailing sp-batch with no tuples at all.
        SecurityPunctuation.grant(["D"], 7.0),
    ]


# -- envelope shapes (an sp-batch riding at the head of its run) -------------

def multi_sp_stream(n_segments: int = 12):
    """Batches of one to three same-ts sps, runs of one or three."""
    elements = []
    ts = 0.0
    tid = 0
    roles = (["D"], ["N"], ["C", "D"])
    for segment in range(n_segments):
        ts += 1.0
        for k in range(1 + segment % 3):
            elements.append(SecurityPunctuation.grant(
                roles[(segment + k) % 3], ts))
        for _ in range(3 if segment % 2 else 1):
            ts += 1.0
            elements.append(DataTuple("s1", tid, {"v": float(tid)}, ts))
            tid += 1
    return elements


def incremental_head_stream():
    """Incremental batches at the head of runs (one and two tuples),
    one of them arriving right after a superseded absolute batch."""
    def run(tids, ts):
        return [DataTuple("s1", tid, {"v": float(tid)}, ts + 0.1 * k)
                for k, tid in enumerate(tids)]

    return ([SecurityPunctuation.grant(["N"], 1.0)] + run([0, 1], 1.0)
            + [SecurityPunctuation.add_roles(["D"], 2.0)] + run([2], 2.0)
            + [SecurityPunctuation.retract_roles(["D"], 3.0),
               SecurityPunctuation.add_roles(["C"], 3.0)] + run([3, 4], 3.0)
            + [SecurityPunctuation.grant(["N"], 4.0),
               SecurityPunctuation.add_roles(["D"], 5.0)] + run([5], 5.0)
            + [SecurityPunctuation.retract_roles(["N"], 6.0)] + run([6], 6.0))


def superseded_batch_stream():
    """Batches overridden before any tuple: they stay bare elements,
    and the newer batch takes over from them at the run's head."""
    return [
        SecurityPunctuation.grant(["D"], 1.0),
        SecurityPunctuation.grant(["N"], 2.0),
        DataTuple("s1", 0, {"v": 0.0}, 2.5),
        SecurityPunctuation.grant(["N"], 3.0),
        SecurityPunctuation.grant(["C"], 3.0),
        SecurityPunctuation.grant(["D"], 4.0),
        DataTuple("s1", 1, {"v": 1.0}, 4.5),
        DataTuple("s1", 2, {"v": 2.0}, 4.6),
        SecurityPunctuation.grant(["D"], 5.0),
        SecurityPunctuation.grant(["N"], 6.0),
        SecurityPunctuation.grant(["D"], 6.0),
        DataTuple("s1", 3, {"v": 3.0}, 6.5),
        SecurityPunctuation.grant(["D"], 7.0),
    ]


def tid_scoped_singleton_stream(n_segments: int = 10):
    """A tuple-scoped sp at the head of every one-row run: the envelope
    resolves per tuple (non-uniform), alternately granting and not."""
    elements = []
    for tid in range(n_segments):
        ts = float(tid + 1)
        scoped = tid if tid % 2 else tid + 100
        elements.append(SecurityPunctuation.grant(
            ["D"], ts, tuple_id=one_of([scoped])))
        elements.append(DataTuple("s1", tid, {"v": float(tid)}, ts + 0.5))
    return elements


def _feed_shape(feed):
    """Comparable form of a coalesced feed (envelopes spelled out)."""
    return [("envelope", tuple(el.sps), tuple(el.tuples))
            if isinstance(el, TupleBatch) else el for el in feed]


@pytest.mark.parametrize("max_batch", [1, 2, DEFAULT_MAX_BATCH])
@pytest.mark.parametrize("stream_builder", [
    lambda: uniform_stream(0, 1), lambda: uniform_stream(1, 3),
    tuple_scoped_stream, empty_segment_stream, multi_sp_stream,
    incremental_head_stream, superseded_batch_stream,
    tid_scoped_singleton_stream])
def test_producers_emit_identical_feeds(stream_builder, max_batch):
    """analyze_batched, coalesce_elements and coalesce_feed share one
    envelope rule: identical feeds, sps riding at the head of runs."""
    elements = stream_builder()
    fused = list(SPAnalyzer().analyze_batched(iter(elements),
                                              max_batch=max_batch))
    analyzed = list(SPAnalyzer().analyze(iter(elements)))
    marked = SPAnalyzer().analyze(iter(elements), run_breaks=True)
    single = list(coalesce_elements(iter(analyzed), max_batch=max_batch))
    paired = [el for _, el in coalesce_feed(
        (("s", el) for el in marked), max_batch=max_batch)]
    assert _feed_shape(fused) == _feed_shape(single) == _feed_shape(paired)
    assert any(isinstance(el, TupleBatch) and el.sps for el in fused)
    # Unrolled, the feed is the analyzed element stream, in order.
    unrolled = []
    for el in single:
        if isinstance(el, TupleBatch):
            unrolled.extend(el.sps)
            unrolled.extend(el.tuples)
        else:
            unrolled.append(el)
    assert unrolled == analyzed


def test_envelope_resolved_once(monkeypatch):
    """A 4-query sp:tuple 1/1 plan resolves each envelope's sp-batch
    once, not once per shield; the cache lives on the per-run envelope,
    never on the input sps."""
    elements = uniform_stream(3, 1, n_tuples=200)
    sps = [el for el in elements if isinstance(el, SecurityPunctuation)]
    for sp in sps:
        sp.roles()  # the sp's own memo of its role set
    before = [dict(vars(sp)) for sp in sps]
    resolutions = []
    real = batch_module.uniform_tuple_policy

    def counting(head):
        resolutions.append(head)
        return real(head)

    monkeypatch.setattr(batch_module, "uniform_tuple_policy", counting)
    seen = []  # (shield, envelope) for every envelope a shield adopts
    shield_batch = SecurityShield._process_batch

    def recording(self, batch, port):
        if batch.sps:
            seen.append((self, batch))
        return shield_batch(self, batch, port)

    monkeypatch.setattr(SecurityShield, "_process_batch", recording)

    def run_once():
        resolutions.clear()
        seen.clear()
        dsms = DSMS()
        dsms.register_stream(SYNTH_SCHEMA, elements)
        base = ScanExpr("synthetic").select(Comparison("x", ">", 100.0))
        for index in range(4):
            dsms.register_query(f"q{index}", base,
                                roles={f"r{index + 1}", "q_role"})
        dsms.run()
        envelopes = {id(batch): batch for _, batch in seen}
        shields = {id(shield) for shield, _ in seen}
        return len(resolutions), len(envelopes), len(seen), len(shields)

    first = run_once()
    n_resolved, n_envelopes, n_adoptions, n_shields = first
    assert n_shields == 8  # four query shields, four delivery shields
    assert n_envelopes > 100
    assert n_resolved == n_envelopes
    assert n_adoptions >= 4 * n_envelopes
    # Same input objects again: the same work, nothing cached on them.
    assert run_once() == first
    assert [dict(vars(sp)) for sp in sps] == before


# -- plan shapes ------------------------------------------------------------

@pytest.mark.parametrize("tuples_per_sp", [1, 3, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_select_shield_uniform(seed, tuples_per_sp):
    elements = uniform_stream(seed, tuples_per_sp)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        dsms.register_query(
            "q", ScanExpr("synthetic").select(Comparison("x", ">", 400.0)),
            roles={"q_role"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


@pytest.mark.parametrize("stream_builder",
                         [tuple_scoped_stream, held_sp_stream,
                          empty_segment_stream, multi_sp_stream,
                          incremental_head_stream, superseded_batch_stream,
                          tid_scoped_singleton_stream])
def test_shield_non_uniform_and_edges(stream_builder):
    elements = stream_builder()

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SCHEMA, elements)
        dsms.register_query("q", ScanExpr("s1"), roles={"D"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


@pytest.mark.parametrize("seed", [0, 7])
def test_project_dupelim_plan(seed):
    elements = uniform_stream(seed, 5, n_tuples=100)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        expr = (ScanExpr("synthetic")
                .project(["object_id", "x"])
                .distinct(50.0, ["object_id"]))
        dsms.register_query("q", expr, roles={"q_role"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


def test_dupelim_suppression_equivalence():
    """Duplicate values across overlapping policies, both modes."""
    elements = []
    ts = 0.0
    for segment in range(10):
        ts += 1.0
        roles = ["D"] if segment % 3 else ["D", "N"]
        elements.append(SecurityPunctuation.grant(roles, ts))
        for k in range(4):
            ts += 1.0
            elements.append(DataTuple(
                "s1", segment * 4 + k, {"v": float(k % 2)}, ts))

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SCHEMA, elements)
        dsms.register_query(
            "q", ScanExpr("s1").distinct(100.0, ["v"]), roles={"D"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


@pytest.mark.parametrize("seed", [0, 3])
def test_groupby_plan(seed):
    elements = uniform_stream(seed, 4, n_tuples=80)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        expr = ScanExpr("synthetic").group_by(
            None, "sum", "x", window=40.0)
        dsms.register_query("q", expr, roles={"q_role"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


@pytest.mark.parametrize("variant", ["nl", "index"])
def test_join_plan(variant):
    left_schema = StreamSchema("left", ("k", "a"))
    right_schema = StreamSchema("right", ("k", "b"))
    left, right = [], []
    ts = 0.0
    for segment in range(6):
        ts += 1.0
        left.append(SecurityPunctuation.grant(["D"], ts, provider="l"))
        right.append(SecurityPunctuation.grant(
            ["D"] if segment % 2 else ["N"], ts + 0.25, provider="r"))
        for k in range(3):
            ts += 1.0
            tid = segment * 3 + k
            left.append(DataTuple("left", tid, {"k": k, "a": tid}, ts))
            right.append(DataTuple(
                "right", tid, {"k": k, "b": tid}, ts + 0.25))

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(left_schema, left)
        dsms.register_stream(right_schema, right)
        expr = ScanExpr("left").join(ScanExpr("right"), "k", "k", 30.0,
                                     variant=variant)
        dsms.register_query("q", expr, roles={"D"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


def test_multi_query_shared_plan():
    """Fan-out: one shared subplan feeding several query shields."""
    elements = uniform_stream(5, 10, n_tuples=150)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        base = ScanExpr("synthetic").select(Comparison("x", ">", 200.0))
        for index in range(3):
            dsms.register_query(f"q{index}", base,
                                roles={f"r{index + 1}", "q_role"})
        return dsms

    assert_equivalent(*run_both(make))
    assert_equivalent(*run_both(make, observability=False))


# -- audit order under batching ---------------------------------------------

def non_uniform_held_stream():
    """Tuple-scoped sps for two roles; each segment's first tuple is
    denied to both, so every shield holds its sps past a drop."""
    elements = []
    ts = 0.0
    tid = 0
    for _ in range(8):
        ts += 1.0
        elements.append(SecurityPunctuation.grant(
            ["D"], ts, tuple_id=one_of([tid + 1, tid + 3])))
        elements.append(SecurityPunctuation.grant(
            ["N"], ts, tuple_id=one_of([tid + 2, tid + 3])))
        for _ in range(4):
            ts += 1.0
            elements.append(DataTuple("s1", tid, {"v": float(tid)}, ts))
            tid += 1
    return elements


def _shared_select_fanout(observability):
    """One select shared by three query shields (a plan fan-out)."""
    dsms = DSMS(observability=observability)
    dsms.register_stream(SYNTH_SCHEMA, uniform_stream(5, 10, n_tuples=150))
    base = ScanExpr("synthetic").select(Comparison("x", ">", 200.0))
    for index in range(3):
        dsms.register_query(f"q{index}", base,
                            roles={f"r{index + 1}", "q_role"})
    return dsms


def _project_fanout(observability):
    """A shared project (new tuple objects) below three query shields."""
    dsms = DSMS(observability=observability)
    dsms.register_stream(SYNTH_SCHEMA, uniform_stream(2, 10, n_tuples=120))
    base = ScanExpr("synthetic").project(["object_id", "x"])
    for index in range(3):
        dsms.register_query(f"q{index}", base,
                            roles={f"r{index + 1}", "q_role"})
    return dsms


def _multi_entry_fanout(observability):
    """Three distinct entry operators on one stream."""
    dsms = DSMS(observability=observability)
    dsms.register_stream(SYNTH_SCHEMA, uniform_stream(4, 10, n_tuples=120))
    scan = ScanExpr("synthetic")
    dsms.register_query("low", scan.select(Comparison("x", ">", 200.0)),
                        roles={"r1", "q_role"})
    dsms.register_query("high", scan.select(Comparison("x", ">", 600.0)),
                        roles={"r2"})
    dsms.register_query("all", scan, roles={"r3"})
    return dsms


def _non_uniform_held(observability):
    """Per-tuple drops at two shields, interleaved with held-sp release."""
    dsms = DSMS(observability=observability)
    dsms.register_stream(SCHEMA, non_uniform_held_stream())
    dsms.register_query("d", ScanExpr("s1"), roles={"D"})
    dsms.register_query("n", ScanExpr("s1"), roles={"N"})
    return dsms


def _join_fanout(observability):
    """A shared join below two shields, probed by batched runs that
    match several partners each."""
    left_schema = StreamSchema("left", ("k", "a"))
    right_schema = StreamSchema("right", ("k", "b"))
    right = [SecurityPunctuation.grant(["C", "N"], 0.5, provider="r")]
    right += [DataTuple("right", tid, {"k": tid % 2, "b": tid}, 1.0 + tid)
              for tid in range(4)]
    left = []
    ts = 10.0
    for segment in range(6):
        ts += 1.0
        # Odd segments join under {C}: both query shields deny every
        # result of a probe, so their drops must interleave per result.
        left.append(SecurityPunctuation.grant(
            ["C"] if segment % 2 else ["D", "N"], ts, provider="l"))
        for k in range(4):
            ts += 1.0
            tid = segment * 4 + k
            left.append(DataTuple("left", tid, {"k": k % 2, "a": tid}, ts))
    dsms = DSMS(observability=observability)
    dsms.register_stream(left_schema, left)
    dsms.register_stream(right_schema, right)
    expr = ScanExpr("left").join(ScanExpr("right"), "k", "k", 100.0)
    dsms.register_query("d", expr, roles={"D"})
    dsms.register_query("n", expr, roles={"N"})
    return dsms


def _project_prunes_sp(observability):
    """Envelopes whose attribute-scoped sp a Project drops: some keep a
    wildcard sp beside it, some lose every sp (a denial marker)."""
    schema = StreamSchema("s2", ("v", "w"))
    elements = []
    for segment in range(8):
        ts = float(segment * 4)
        elements.append(SecurityPunctuation.grant(
            ["D"], ts, attribute=one_of(["w"])))
        if segment % 2:
            elements.append(SecurityPunctuation.grant(["D", "N"], ts))
        for k in range(1 + segment % 3):
            tid = segment * 4 + k
            elements.append(DataTuple(
                "s2", tid, {"v": float(tid), "w": -float(tid)},
                ts + 1 + k))
    dsms = DSMS(observability=observability)
    dsms.register_stream(schema, elements)
    dsms.register_query("v", ScanExpr("s2").project(["v"]), roles={"D"})
    return dsms


def _two_stream_merged(observability):
    """Two sp-dense streams interleaved by ts: sps at stream switches
    stay bare, the rest ride at the head of their runs."""
    left_schema = StreamSchema("left", ("k", "a"))
    right_schema = StreamSchema("right", ("k", "b"))
    left, right = [], []
    for tid in range(16):
        ts = float(tid * 2)
        left.append(SecurityPunctuation.grant(
            ["D"] if tid % 3 else ["N"], ts, provider="l"))
        left.append(DataTuple("left", tid, {"k": tid % 4, "a": tid},
                              ts + 0.5))
        if tid % 2:
            left.append(DataTuple("left", 100 + tid,
                                  {"k": tid % 4, "a": tid}, ts + 0.6))
        right.append(SecurityPunctuation.grant(
            ["D", "N"] if tid % 2 else ["C"], ts + 0.25, provider="r"))
        right.append(DataTuple("right", tid, {"k": tid % 4, "b": tid},
                               ts + 1.0))
    dsms = DSMS(observability=observability)
    dsms.register_stream(left_schema, left)
    dsms.register_stream(right_schema, right)
    dsms.register_query("l", ScanExpr("left"), roles={"D"})
    dsms.register_query("r", ScanExpr("right"), roles={"N"})
    dsms.register_query(
        "j", ScanExpr("left").join(ScanExpr("right"), "k", "k", 6.0),
        roles={"D"})
    return dsms


def _select_below_shields(observability):
    """A select ahead of the query shields sees the raw feed: bare
    superseded batches it must hold and release together with the
    envelope's head."""
    dsms = DSMS(observability=observability)
    dsms.register_stream(SCHEMA, superseded_batch_stream())
    base = ScanExpr("s1").select(Comparison("v", ">=", 1.0))
    for roles in ({"D"}, {"N"}):
        dsms.register_query("".join(roles), base.shield(roles),
                            roles=roles, auto_shield=False)
    return dsms


def _refined_stream(sid, provider, offset):
    """Runs of one to three tuples under sps a server policy refines."""
    elements = []
    for segment in range(10):
        ts = float(segment * 10) + offset
        elements.append(SecurityPunctuation.grant(
            ["D", "N"] if segment % 2 else ["N"], ts, provider=provider))
        for k in range(1 + segment % 3):
            elements.append(DataTuple(sid, segment * 4 + k,
                                      {"v": float(k)}, ts + 1 + k))
    return elements


def _server_policy(observability, streams=("a",)):
    """A server policy refines every batch: the analyzer's
    ``analyzer.refine`` records of a batch follow the previous run's
    shield records."""
    dsms = DSMS(observability=observability)
    for index, sid in enumerate(streams):
        dsms.register_stream(StreamSchema(sid, ("v",)),
                             _refined_stream(sid, f"p{sid}", index / 2))
    dsms.add_server_policy(SecurityPunctuation.grant(["D"], ts=0.0))
    dsms.register_query("d", ScanExpr("a"), roles={"D"})
    dsms.register_query("n", ScanExpr("a"), roles={"N"})
    return dsms


def _server_policy_two_streams(observability):
    """The same across a merged feed: runs close before the merge
    refills their stream."""
    return _server_policy(observability, streams=("a", "b"))


def _sp_dense_fanout(observability):
    """sp:tuple 1/1 below four query shields: one envelope per tuple,
    shared by the sibling and delivery shields."""
    dsms = DSMS(observability=observability)
    dsms.register_stream(SYNTH_SCHEMA, uniform_stream(6, 1, n_tuples=160))
    base = ScanExpr("synthetic").select(Comparison("x", ">", 100.0))
    for index in range(4):
        dsms.register_query(f"q{index}", base,
                            roles={f"r{index + 1}", "q_role"})
    return dsms


@pytest.mark.parametrize("make, hub", [
    # Eviction lands mid-run and inside one element's sealed block.
    (_shared_select_fanout, lambda: Observability(audit=AuditLog(7))),
    (_project_fanout, lambda: Observability(audit=AuditLog())),
    (_multi_entry_fanout, lambda: Observability(audit=AuditLog())),
    (_non_uniform_held, lambda: Observability(audit=AuditLog())),
    (_join_fanout, lambda: Observability(audit=AuditLog())),
    # Half the traces sampled: elements alternate between the traced
    # and the plain push loop.
    (_shared_select_fanout, lambda: Observability(
        audit=AuditLog(), tracer=Tracer(sample=0.5))),
    # Envelopes: every hub on (audit, tracing, metrics), and off.
    (_project_prunes_sp, Observability.in_memory),
    (_project_prunes_sp, Observability.disabled),
    (_two_stream_merged, Observability.in_memory),
    (_two_stream_merged, Observability.disabled),
    (_select_below_shields, Observability.in_memory),
    (_select_below_shields, Observability.disabled),
    (_sp_dense_fanout, lambda: Observability(
        audit=AuditLog(), tracer=Tracer(sample=0.5))),
    (_sp_dense_fanout, Observability.disabled),
    (_server_policy, lambda: Observability(audit=AuditLog())),
    (_server_policy_two_streams, lambda: Observability(audit=AuditLog())),
], ids=["capacity7", "project-fanout", "multi-entry", "non-uniform-held",
        "join-fanout", "traced", "project-prunes-sp", "project-prunes-sp-off",
        "two-stream", "two-stream-off", "select-below-shields",
        "select-below-shields-off", "sp-dense-traced", "sp-dense-off",
        "server-policy", "server-policy-two-streams"])
def test_audit_order_cases(make, hub):
    plain, batched = run_both(make, hub=hub)
    assert_equivalent(plain, batched)
    if plain[1].audit is not None:
        assert len(plain[1].audit) > 0
    if make in (_server_policy, _server_policy_two_streams):
        kinds = [event.kind for event in plain[1].audit]
        assert "analyzer.refine" in kinds and "shield.drop" in kinds

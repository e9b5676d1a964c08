"""Columnar (fused) vs batched vs element-wise execution equivalence.

The columnar tier extends the segment-batched engine with fused
shield/select/project chains over :class:`ColumnBatch` layouts.  The
equivalence contract is the same one ``test_batch_equivalence``
enforces between element-wise and batched execution — identical
ordered result elements, per-stage counter totals, security metric
series — now across all three modes, with the fusion row threshold
forced to 1 so the columnar kernels actually execute on the short
segments these shapes use.

Also covers fusion *detection*: which plan prefixes qualify, and which
are broken by fan-out, audit, or non-fusable operators.
"""

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.analyzer import SPAnalyzer
from repro.engine import fusion
from repro.engine.dsms import DSMS
from repro.engine.fusion import FusedChain, build_fused_chains
from repro.engine.plan import PhysicalPlan
from repro.observability import Observability
from repro.operators.conditions import Comparison, FuncCondition
from repro.operators.project import Project
from repro.operators.select import Select
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink
from repro.stream.batch import TupleBatch
from repro.workloads.synthetic import SYNTH_SCHEMA, punctuated_stream

from tests.engine.test_batch_equivalence import (
    SCHEMA, assert_equivalent, empty_segment_stream, held_sp_stream,
    incremental_head_stream, multi_sp_stream, superseded_batch_stream,
    tid_scoped_singleton_stream, tuple_scoped_stream, uniform_stream)


@pytest.fixture(autouse=True)
def force_fusion(monkeypatch):
    """Engage the columnar kernels regardless of segment length."""
    monkeypatch.setattr(fusion, "MIN_FUSED_ROWS", 1)


def run_three(make_dsms, *, observability: bool = True):
    """Run a fresh DSMS element-wise, batched and columnar."""
    outcomes = {}
    for mode, batching, columnar in (("elementwise", False, False),
                                     ("batched", True, False),
                                     ("columnar", True, True)):
        dsms = make_dsms(
            Observability.in_memory() if observability
            else Observability.disabled())
        results = dsms.run(batching=batching, columnar=columnar)
        outcomes[mode] = (results, dsms)
    return outcomes


def assert_all_equivalent(make_dsms, *, observability: bool = True):
    outcomes = run_three(make_dsms, observability=observability)
    assert_equivalent(outcomes["elementwise"], outcomes["batched"])
    assert_equivalent(outcomes["elementwise"], outcomes["columnar"])


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

    assert_all_equivalent(make)
    assert_all_equivalent(make, observability=False)


_EDGE_STREAMS = (tuple_scoped_stream, held_sp_stream, empty_segment_stream,
                 multi_sp_stream, incremental_head_stream,
                 superseded_batch_stream, tid_scoped_singleton_stream)


@pytest.mark.parametrize("stream_builder, fronted", [
    *(pytest.param(b, False, id=b.__name__) for b in _EDGE_STREAMS),
    *(pytest.param(b, True, id=f"{b.__name__}-select-fronted")
      for b in _EDGE_STREAMS)])
def test_shield_non_uniform_and_edges(stream_builder, fronted):
    """``select-fronted`` puts a pass-all select ahead of the shields so
    the chain fuses and the shield kernels run (a shields-only chain
    takes the plain batched path)."""
    elements = stream_builder()
    expr = ScanExpr("s1")
    if fronted:
        expr = expr.select(Comparison("v", ">=", 0.0))

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SCHEMA, elements)
        dsms.register_query("q", expr, roles={"D"})
        return dsms

    assert_all_equivalent(make)
    assert_all_equivalent(make, observability=False)


def test_select_project_shield_chain():
    """A 3-deep fused chain (σ → π → delivery ψ) with dirty rows."""
    elements = uniform_stream(3, 8, n_tuples=160)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        expr = (ScanExpr("synthetic")
                .select(Comparison("x", ">", 200.0))
                .project(["object_id", "x"]))
        dsms.register_query("q", expr, roles={"q_role"})
        return dsms

    assert_all_equivalent(make)
    assert_all_equivalent(make, observability=False)


def test_opaque_condition_chain():
    """Opaque FuncCondition conjunct: call-order-preserving row stage."""
    elements = uniform_stream(5, 10, n_tuples=120)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        cond = FuncCondition(lambda t: t.values["x"] > 300.0, ["x"])
        dsms.register_query("q", ScanExpr("synthetic").select(cond),
                            roles={"q_role"})
        return dsms

    assert_all_equivalent(make)
    assert_all_equivalent(make, observability=False)


def test_multi_query_shared_plan_fanout():
    """Fan-out from a shared subplan: fusion must stop at the fork."""
    elements = uniform_stream(7, 10, n_tuples=150)

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        base = ScanExpr("synthetic").select(Comparison("x", ">", 200.0))
        for index in range(3):
            dsms.register_query(f"q{index}", base,
                                roles={f"r{index + 1}", "q_role"})
        return dsms

    assert_all_equivalent(make)
    assert_all_equivalent(make, observability=False)


def test_production_threshold_equivalence():
    """Mixed regime: runs straddling MIN_FUSED_ROWS at its real value."""
    import repro.engine.fusion as fusion_mod
    fusion_mod.MIN_FUSED_ROWS = 32  # undo the autouse fixture
    elements = list(punctuated_stream(
        2000, tuples_per_sp=50, policy_size=3,
        accessible_fraction=0.5, seed=13))

    def make(observability):
        dsms = DSMS(observability=observability)
        dsms.register_stream(SYNTH_SCHEMA, elements)
        dsms.register_query(
            "q", ScanExpr("synthetic").select(Comparison("x", ">", 300.0)),
            roles={"q_role"})
        return dsms

    assert_all_equivalent(make)


# -- fusion detection --------------------------------------------------------

def _linear_plan(*operators):
    plan = PhysicalPlan()
    nodes = [plan.add(op) for op in operators]
    for a, b in zip(nodes, nodes[1:]):
        plan.connect(a, b)
    plan.connect_source("s1", nodes[0])
    return plan, nodes


class TestFusionDetection:
    def test_linear_chain_is_fused(self):
        plan, nodes = _linear_plan(
            Select(Comparison("v", ">", 0)),
            SecurityShield(["D"]),
            Project(["v"]),
            CollectingSink())
        chains = build_fused_chains(plan)
        assert set(chains) == {nodes[0].node_id}
        chain = chains[nodes[0].node_id]
        assert isinstance(chain, FusedChain)
        assert len(chain) == 3
        assert chain.tail is nodes[2]

    def test_single_operator_is_not_fused(self):
        plan, _ = _linear_plan(Select(Comparison("v", ">", 0)),
                               CollectingSink())
        assert build_fused_chains(plan) == {}

    def test_shields_only_chain_is_not_fused(self):
        plan, _ = _linear_plan(SecurityShield(["D"]),
                               SecurityShield(["D", "N"]),
                               CollectingSink())
        assert build_fused_chains(plan) == {}

    def test_fanout_breaks_chain(self):
        plan = PhysicalPlan()
        select = plan.add(Select(Comparison("v", ">", 0)))
        shield_a = plan.add(SecurityShield(["D"]))
        shield_b = plan.add(SecurityShield(["N"]))
        sink_a = plan.add(CollectingSink())
        sink_b = plan.add(CollectingSink())
        plan.connect(select, shield_a)
        plan.connect(select, shield_b)
        plan.connect(shield_a, sink_a)
        plan.connect(shield_b, sink_b)
        plan.connect_source("s1", select)
        # The select fans out: no chain may swallow it or cross it.
        assert build_fused_chains(plan) == {}

    def test_audit_disables_fusion(self):
        plan, nodes = _linear_plan(
            Select(Comparison("v", ">", 0)),
            SecurityShield(["D"]),
            CollectingSink())
        # Any attached audit log removes the operator from fusion (the
        # fused kernels do not replay per-tuple audit interleavings).
        nodes[1].operator.audit = object()
        assert build_fused_chains(plan) == {}

    def test_dsms_plan_produces_fused_chain(self):
        """The standard DSMS pipeline (σ → π → delivery ψ) fuses."""
        dsms = DSMS()
        dsms.register_stream(SYNTH_SCHEMA, [])
        expr = (ScanExpr("synthetic")
                .select(Comparison("x", ">", 100.0))
                .project(["object_id", "x"]))
        dsms.register_query("q", expr, roles={"q_role"})
        plan, _ = dsms.build_plan()
        chains = build_fused_chains(plan)
        assert chains, "expected the σ→π→ψ→delivery-ψ chain to fuse"
        (chain,) = chains.values()
        names = [type(op).__name__ for op in chain.operators]
        # auto_shield adds the query's root shield; the delivery shield
        # is always last.
        assert names == ["Select", "Project", "SecurityShield",
                         "SecurityShield"]
        assert chain.operators[-1].name == "delivery:q"


def test_fused_chain_resolves_envelope_once(monkeypatch):
    """Inside a fused σ → ψ → delivery ψ chain both shields adopt the
    envelope's head sps through the envelope: one shared resolution
    per envelope, as on the plain batched path."""
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
    plan, _ = dsms.build_plan()
    assert build_fused_chains(plan)
    dsms.run()
    envelopes = [el for el in SPAnalyzer().analyze_batched(iter(elements))
                 if isinstance(el, TupleBatch) and el.sps]
    assert len(envelopes) > 50
    assert len(resolutions) == len(envelopes)

"""The DSMS facade: streams in, sps analyzed, queries out (Figure 1).

:class:`DSMS` wires together everything the paper's architecture
diagram shows: data providers' streams (with embedded sps) enter
through the SP Analyzer; registered continuous queries — each guarded
by Security Shields for its specifier's roles — run as one shared
physical plan; each query's results are collected separately.

Typical use::

    dsms = DSMS()
    dsms.register_stream(schema, elements)
    dsms.register_query("q1", ScanExpr("s1").select(cond), roles={"D"})
    results = dsms.run()
    results["q1"].tuples

The facade also implements the paper's future-work items: runtime
role re-binding for queries (:meth:`update_query_roles`) and
incremental policy changes (new sps simply stream in; nothing is
stored server-side).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from repro.access.rbac import RBACModel
from repro.algebra.expressions import LogicalExpr, ShieldExpr, walk
from repro.algebra.optimizer import Optimizer
from repro.algebra.rules import RewriteContext
from repro.algebra.statistics import StreamStatistics
from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.exprcheck import analyze_expr
from repro.analysis.lattice import StreamFacts
from repro.analysis.plancheck import analyze_plan
from repro.core.analyzer import SPAnalyzer
from repro.core.bitmap import RoleSet, RoleUniverse
from repro.core.punctuation import SecurityPunctuation
from repro.engine.api import OptimizeLevel
from repro.engine.catalog import StreamCatalog
from repro.engine.executor import ExecutionReport, Executor
from repro.engine.plan import PhysicalPlan
from repro.engine.query import ContinuousQuery
from repro.errors import PlanAnalysisError, PlanAnalysisWarning, QueryError
from repro.observability import AuditLog, Observability, Tracer
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink
from repro.stream.batch import coalesce_elements
from repro.stream.element import StreamElement
from repro.stream.schema import StreamSchema
from repro.stream.source import CallbackSource, ListSource, StreamSource
from repro.stream.tuples import DataTuple

__all__ = ["DSMS", "QueryResult"]


@dataclass
class QueryResult:
    """Results of one query after a run."""

    name: str
    elements: list[StreamElement] = field(default_factory=list)

    @property
    def tuples(self) -> list[DataTuple]:
        return [e for e in self.elements if isinstance(e, DataTuple)]

    @property
    def sps(self) -> list[SecurityPunctuation]:
        return [e for e in self.elements
                if isinstance(e, SecurityPunctuation)]

    def __repr__(self) -> str:
        return (f"QueryResult({self.name!r}, tuples={len(self.tuples)}, "
                f"sps={len(self.sps)})")


class DSMS:
    """A centralized data stream management system with sp enforcement."""

    def __init__(self, *, rbac: RBACModel | None = None,
                 universe: RoleUniverse | None = None,
                 observability: Observability | None = None):
        if universe is None:
            universe = rbac.universe if rbac is not None else RoleUniverse()
        self.universe = universe
        self.rbac = rbac
        #: Audit log + trace sink; the default records nothing and
        #: costs nothing (pass ``Observability.in_memory()`` to turn
        #: the audit trail and tracing on).
        self.observability = (observability if observability is not None
                              else Observability.disabled())
        self.analyzer = SPAnalyzer(universe)
        self.analyzer.bind_observability(self.observability)
        self.catalog = StreamCatalog()
        self.queries: dict[str, ContinuousQuery] = {}
        self._live_plan: PhysicalPlan | None = None
        self._live_shields: dict[str, list[SecurityShield]] = {}
        self.last_report: ExecutionReport | None = None

    @property
    def audit(self) -> AuditLog | None:
        """The security audit trail (``None`` when observability is off)."""
        return self.observability.audit

    # -- streams --------------------------------------------------------
    def register_stream(self, schema: StreamSchema,
                        elements=None, *, source: StreamSource | None = None,
                        carries_policies: bool = True,
                        stats: StreamStatistics | None = None) -> None:
        """Register an input stream with its element source."""
        if source is None and elements is not None:
            source = ListSource(schema, list(elements))
        self.catalog.register(schema, source, carries_policies=carries_policies,
                              stats=stats)

    def add_server_policy(self, sp: SecurityPunctuation) -> None:
        """Server-side policy, intersected with provider sps on entry."""
        self.analyzer.add_server_policy(sp)

    # -- queries ---------------------------------------------------------
    def register_query(self, name: str, expr: LogicalExpr, *,
                       roles=None, user_id: str | None = None,
                       auto_shield: bool = True,
                       analyze: str = "off") -> ContinuousQuery:
        """Register a continuous query for a set of roles or a user.

        With ``user_id`` (requires an RBAC model) the query inherits
        the user's active roles and the user is locked against role
        re-assignment for the lifetime of the registration.

        ``analyze`` selects static plan analysis: ``"off"`` (default),
        ``"warn"`` (findings emitted as :class:`PlanAnalysisWarning`),
        or ``"strict"`` (error-severity findings raise
        :class:`PlanAnalysisError` and the query is *not* registered —
        rejection happens before a single tuple flows).  The chosen
        mode also re-runs the analysis over the compiled operator DAG
        at :meth:`build_plan` time.
        """
        if name in self.queries:
            raise QueryError(f"query {name!r} already registered")
        locked = False
        if roles is None:
            if user_id is None or self.rbac is None:
                raise QueryError(
                    "provide roles, or a user_id with an RBAC model")
            roles = self.rbac.roles_of(user_id)
            session = self.rbac.session_of(user_id)
            if session is not None:
                roles = session.active_roles
            self.rbac.lock(user_id)
            locked = True
        for role in roles:
            self.universe.register(role)
        query = ContinuousQuery(name, expr, roles, user_id=user_id,
                                auto_shield=auto_shield, analyze=analyze)
        if query.analyze != "off":
            report = analyze_expr(
                query.expr, facts=self._stream_facts(),
                roles=sorted(query.roles), name=name)
            try:
                self._apply_analysis(report, query.analyze,
                                     where=f"query {name!r}")
            except PlanAnalysisError:
                if locked and self.rbac is not None:
                    self.rbac.unlock(user_id)
                raise
        self.queries[name] = query
        self._live_plan = None
        return query

    def _stream_facts(self) -> StreamFacts:
        """Catalog schemas as (otherwise-unknown) static stream facts.

        Stream *contents* are runtime data the static layer must not
        assume, so the facts stay three-valued unknown; the declared
        schemas alone let the lattice track attribute sets.
        """
        return StreamFacts(schemas={
            sid: tuple(self.catalog.get(sid).schema.attributes)
            for sid in self.catalog.stream_ids()})

    def _apply_analysis(self, report: AnalysisReport, mode: str,
                        where: str) -> None:
        """Enforce one analysis report per the registration's mode."""
        if mode == "strict" and not report.ok:
            raise PlanAnalysisError(
                f"{where}: static analysis found "
                f"{len(report.errors)} error(s):\n"
                + report.render_text("  "), report)
        for diagnostic in report.errors + report.warnings:
            warnings.warn(f"{where}: {diagnostic}",
                          PlanAnalysisWarning, stacklevel=3)

    def deregister_query(self, name: str) -> None:
        query = self.queries.pop(name, None)
        if query is None:
            raise QueryError(f"unknown query: {name!r}")
        if query.user_id is not None and self.rbac is not None:
            self.rbac.unlock(query.user_id)
        self._live_plan = None

    def update_query_roles(self, name: str, roles) -> None:
        """Runtime role re-binding (paper future work).

        Updates the registered query's roles and, if a compiled plan is
        live, rewrites the predicates of that query's Security Shields
        in place — taking effect from the next processed element.
        """
        query = self.queries.get(name)
        if query is None:
            raise QueryError(f"unknown query: {name!r}")
        roles = frozenset(roles)
        if not roles:
            raise QueryError("a query must keep at least one role")
        old_expr = query.expr
        new_expr = _replace_shield_roles(old_expr, query.roles, roles)
        self.queries[name] = query.with_expr(new_expr)
        self.queries[name].roles = roles  # type: ignore[misc]
        for shield in self._live_shields.get(name, ()):
            shield.rebind(RoleSet(roles))

    def shields(self, query_name: str) -> tuple[SecurityShield, ...]:
        """Read-only view of a query's live Security Shields.

        Includes the per-query delivery shield; empty until a plan has
        been compiled (:meth:`build_plan`, :meth:`run` or
        :meth:`open_session`).  This is the public surface callers and
        the audit layer use instead of reaching into plan internals.
        """
        if query_name not in self.queries:
            raise QueryError(f"unknown query: {query_name!r}")
        return tuple(self._live_shields.get(query_name, ()))

    # -- execution -----------------------------------------------------------
    def _optimized_exprs(self, level: OptimizeLevel
                         ) -> dict[str, LogicalExpr]:
        """Each registered query's logical plan at ``level``.

        The optimization step shared by :meth:`build_plan` and the
        sharded executor (:mod:`repro.engine.sharded`), so both paths
        execute identical plans.  The executing engine must assume the
        worst about runtime streams: attribute-granular sps, segments
        with differing policies and real window semantics can all
        occur, so the rewrites those facts invalidate stay off here
        (pure-algebra exploration can still opt back in via its own
        context).
        """
        context = RewriteContext(
            policy_streams=self.catalog.policy_streams(),
            attribute_policies_possible=True,
            heterogeneous_policies_possible=True,
            strict_join_windows=True,
            schemas={
                sid: frozenset(self.catalog.get(sid).schema.attributes)
                for sid in self.catalog.stream_ids()
            })
        optimizer = Optimizer(context=context)
        optimizer.cost_model.catalog = self.catalog.statistics
        workload_plans: dict[str, LogicalExpr] = {}
        if level is OptimizeLevel.WORKLOAD:
            names = list(self.queries)
            result = optimizer.optimize_workload(
                [self.queries[name].expr for name in names])
            workload_plans = dict(zip(names, result.plans))
        tracer = self.observability.tracer
        causal = tracer if isinstance(tracer, Tracer) else None
        exprs: dict[str, LogicalExpr] = {}
        for name, query in self.queries.items():
            expr = query.expr
            if level is OptimizeLevel.WORKLOAD:
                expr = workload_plans[name]
            elif level is OptimizeLevel.PER_QUERY:
                result = optimizer.optimize(expr)
                expr = result.plan
                if causal is not None and result.steps > 0:
                    # Table II rewrites are security-relevant plan
                    # surgery: record which queries were rewritten (and
                    # what the prover refused) as kept provenance.
                    causal.decision(
                        "optimizer.rewrite", operator="optimizer",
                        verdict="rewritten", query=name, keep=True,
                        steps=result.steps,
                        initial_cost=result.initial_cost,
                        cost=result.cost,
                        refusals=len(result.refusals))
            exprs[name] = expr
        return exprs

    def build_plan(self, *,
                   optimize: "OptimizeLevel | bool | str" = OptimizeLevel.NONE
                   ) -> tuple[PhysicalPlan, dict[str, CollectingSink]]:
        """Compile all registered queries into one shared physical plan.

        ``optimize`` is an :class:`~repro.engine.api.OptimizeLevel`:
        ``NONE`` (compile as registered), ``PER_QUERY`` (optimize each
        query in isolation) or ``WORKLOAD`` (Section VI.C multi-query
        optimization: choose per-query plans that minimize the cost of
        the workload with shared subplans counted once).  The legacy
        ``False`` / ``True`` / ``"workload"`` values are accepted with
        a :class:`DeprecationWarning`.
        """
        level = OptimizeLevel.coerce(optimize)
        if not self.queries:
            raise QueryError("no queries registered")
        plan = PhysicalPlan(self.universe)
        sinks: dict[str, CollectingSink] = {}
        self._live_shields = {}
        exprs = self._optimized_exprs(level)
        for name, query in self.queries.items():
            expr = exprs[name]
            sink = CollectingSink(name=f"sink:{name}")
            # The delivery shield is a fixed final check: results are
            # handed only to subjects holding the query's roles, no
            # matter how the optimizer moved the in-plan shields.  For
            # an unrewritten plan it is a cheap no-op (everything the
            # root shield passed also passes here).
            delivery = SecurityShield(RoleSet(query.roles),
                                      name=f"delivery:{name}")
            plan.compile_chain(expr, [delivery, sink])
            sinks[name] = sink
            shields = []
            for node in walk(expr):
                if not isinstance(node, ShieldExpr):
                    continue
                compiled = plan.compiled_node(node)
                if compiled is not None and isinstance(
                        compiled.operator, SecurityShield):
                    shields.append(compiled.operator)
            self._live_shields[name] = shields + [delivery]
            for shield in self._live_shields[name]:
                self.observability.bind(shield, query=name)
        # Shared (query-anonymous) operators — joins, dup-elim,
        # group-by — record through the same audit log.
        if self.observability.audit is not None:
            for operator in plan.operators():
                if operator.audit is None:
                    self.observability.bind(operator)
        # Metrics: every operator pre-binds its instrument children
        # once here, so recording sites cost one attribute check.
        instruments = self.observability.instruments
        if instruments is not None:
            for operator in plan.operators():
                operator.bind_metrics(instruments)
        # Causal tracing: every operator gets the tracer so security
        # decision sites can attach provenance records.
        tracer = self.observability.tracer
        causal = tracer if isinstance(tracer, Tracer) else None
        if causal is not None:
            for operator in plan.operators():
                operator.bind_tracer(causal)
        modes = {query.analyze for query in self.queries.values()}
        if modes != {"off"}:
            # Second analysis layer: the compiled DAG, where shared
            # subplans, optimizer rewrites and the delivery shields
            # are all concrete.
            mode = "strict" if "strict" in modes else "warn"
            self._apply_analysis(analyze_plan(plan,
                                              facts=self._stream_facts()),
                                 mode, where="compiled plan")
        self._live_plan = plan
        return plan, sinks

    def _analyzed_sources(self, *, coalesce: bool = False,
                          run_breaks: bool = False) -> list[StreamSource]:
        """Sources with sp analysis applied (policy-carrying streams).

        With ``coalesce=True`` each source also groups tuple runs into
        :class:`~repro.stream.batch.TupleBatch` envelopes inside the
        same generator (``analyze_batched``), for the executor's
        pre-batched single-source fast path.  ``run_breaks`` marks
        batch rewrites for the executor's own coalescing (see
        :meth:`~repro.core.analyzer.SPAnalyzer.analyze`).
        """
        sources: list[StreamSource] = []
        for stream_id in self.catalog.stream_ids():
            registered = self.catalog.get(stream_id)
            if registered.source is None:
                continue
            base = registered.source
            if registered.carries_policies:
                if coalesce:
                    factory = (
                        lambda b=base: self.analyzer.analyze_batched(
                            iter(b)))
                else:
                    factory = (
                        lambda b=base: self.analyzer.analyze(
                            iter(b), run_breaks=run_breaks))
                sources.append(CallbackSource(registered.schema, factory))
            elif coalesce:
                sources.append(CallbackSource(
                    registered.schema,
                    (lambda b=base: coalesce_elements(iter(b)))))
            else:
                sources.append(base)
        return sources

    def open_session(self, *,
                     optimize: "OptimizeLevel | bool | str" =
                     OptimizeLevel.NONE,
                     analyze_sps: bool = True):
        """Open a live :class:`~repro.engine.session.StreamingSession`.

        The session keeps the compiled plan and lets the caller push
        elements incrementally; results arrive per push (or via
        subscriptions).  Useful where :meth:`run`'s finite-source model
        does not fit.
        """
        from repro.engine.session import StreamingSession

        return StreamingSession(self, optimize=optimize,
                                analyze_sps=analyze_sps)

    def run(self, *,
            optimize: "OptimizeLevel | bool | str" = OptimizeLevel.NONE,
            analyze_sps: bool = True,
            batching: bool = True,
            columnar: bool | None = None,
            shards: int | None = None) -> dict[str, QueryResult]:
        """Execute all queries over all registered sources.

        ``optimize`` as in :meth:`build_plan` (an
        :class:`~repro.engine.api.OptimizeLevel`; legacy bool/str
        values accepted with a :class:`DeprecationWarning`).

        ``shards`` selects the partitioned multi-process executor
        (:mod:`repro.engine.sharded`): input streams are cut on
        s-punctuated segment boundaries and hash-routed across
        ``shards`` worker processes, each running its own SP Analyzer
        and shield state; stateful operators and delivery run over the
        merged, order-restored streams.  ``None`` (the default) keeps
        the single-process path; results, drop counters and audit
        streams are equivalent either way, per the differential
        oracle.

        ``batching`` selects segment-batched execution (the default):
        runs of tuples sharing one sp-batch are pushed through the
        plan as :class:`~repro.stream.batch.TupleBatch` envelopes, so
        per-segment decisions amortize over whole runs.  Results —
        and, with observability on, audit streams — are identical in
        both modes; ``batching=False`` keeps the element-wise
        reference path (and is what the equivalence tests compare
        against).

        ``columnar`` is deprecated and ignored (it warns with a
        :class:`DeprecationWarning`): the fused columnar tier it
        switched on is gone, and batched selects always filter through
        their compiled predicate kernels.
        """
        if columnar is not None:
            warnings.warn("DSMS.run(columnar=...) is deprecated and "
                          "ignored: batched execution always uses the "
                          "compiled select kernels",
                          DeprecationWarning, stacklevel=2)
        if shards is not None:
            from repro.engine.sharded import run_sharded

            return run_sharded(self, n_shards=shards,
                               optimize=optimize,
                               analyze_sps=analyze_sps,
                               batching=batching)
        plan, sinks = self.build_plan(optimize=optimize)
        sources = (self._analyzed_sources(run_breaks=batching)
                   if analyze_sps else self.catalog.sources())
        prebatched = False
        if batching and len(sources) == 1:
            # Single-source workload: fuse sp analysis and run
            # coalescing into the source generator itself, and tell
            # the executor to skip its own coalescing layer.
            if analyze_sps:
                sources = self._analyzed_sources(coalesce=True)
            else:
                base = sources[0]
                sources = [CallbackSource(
                    base.schema,
                    (lambda b=base: coalesce_elements(iter(b))))]
            prebatched = True
        executor = Executor(plan, sources,
                            tracer=self.observability.tracer,
                            batching=batching,
                            prebatched=prebatched,
                            instruments=self.observability.instruments)
        self.last_report = executor.run()
        return {
            name: QueryResult(name, list(sink.elements))
            for name, sink in sinks.items()
        }


def _replace_shield_roles(expr: LogicalExpr, old: frozenset[str],
                          new: frozenset[str]) -> LogicalExpr:
    """Rewrite shields whose only predicate is ``old`` to ``new``."""
    if isinstance(expr, ShieldExpr) and expr.predicates == (frozenset(old),):
        return ShieldExpr(
            _replace_shield_roles(expr.input, old, new), frozenset(new))
    children = tuple(_replace_shield_roles(c, old, new)
                     for c in expr.children())
    if not children:
        return expr
    return expr.with_children(*children)

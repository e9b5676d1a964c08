"""The Security Shield (SS, ψ) operator.

Table I: ``(t, Pt) ∈ ψp(T) iff Pt ∩ p ≠ ∅`` — a tuple passes the
shield iff its access-control policy (carried by the streaming sps)
shares at least one role with the security predicate ``p`` (the roles
of the queries downstream).  Tuples whose policy does not satisfy the
predicate are discarded together with their sps, preventing
unauthorized access; sps of passing segments are propagated unchanged.

Physically (Section V.A) the SS is a *stateful filter*: its state holds
the security predicates of the upstream operators/queries, plus the
currently buffered policy.  A newly arriving sp either extends the
buffered policy (same timestamp — sp-batch) or replaces it (newer
timestamp).  Once an sp-batch has been evaluated against the predicate,
the pass/discard decision applies to every following tuple of the
segment — the reason SS overhead shrinks as more tuples share an sp
(Figure 8a).

The ``indexed`` flag selects between a hash-set predicate membership
test (the "predicate index on the roles in the SS state", cf. the
grouped filter of CACQ/PSoup) and a deliberately naive linear scan of
the role list, used as the unindexed baseline in the Figure 8b
benchmark.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from repro.core.bitmap import AbstractRoleSet, RoleSet
from repro.core.policy import TuplePolicy
from repro.core.punctuation import SecurityPunctuation
from repro.operators.base import PolicyTracker, UnaryOperator
from repro.stream.batch import TupleBatch, forward
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = ["SecurityShield"]

#: Sentinel for the not-yet-computed sp-description cache.
_UNSET = object()

#: Interned provenance event names (record() takes the full name so
#: the per-verdict hot path never concatenates).
_REC_PASS = "provenance.shield.pass"
_REC_DROP = "provenance.shield.drop"


class SecurityShield(UnaryOperator):
    """Access-control filter driven by streaming security punctuations."""

    def __init__(self, roles: Iterable[str] | AbstractRoleSet,
                 stream_id: str = "*", *, indexed: bool = True,
                 conjuncts: Iterable[AbstractRoleSet] | None = None,
                 name: str | None = None):
        super().__init__(name)
        if not isinstance(roles, AbstractRoleSet):
            roles = RoleSet(roles)
        if conjuncts is None:
            conjuncts = (roles,)
        else:
            conjuncts = tuple(
                c if isinstance(c, AbstractRoleSet) else RoleSet(c)
                for c in conjuncts
            ) or (roles,)
        #: The security predicate: a conjunction of role sets
        #: (ψ_{p1∧..∧pn}); a tuple passes iff its policy intersects
        #: every conjunct.  A single conjunct is the common case.
        self.conjuncts: tuple[AbstractRoleSet, ...] = tuple(conjuncts)
        #: Union of all conjunct roles — the SS *state* whose size the
        #: Figure 8b experiment varies.
        self.predicate = self.conjuncts[0]
        for extra in self.conjuncts[1:]:
            self.predicate = self.predicate.union(extra)
        self._predicate_list = sorted(self.predicate.names())
        #: Per-conjunct sorted role lists for the unindexed scan,
        #: precomputed so the per-tuple path never re-sorts.
        self._conjunct_scans = tuple(
            sorted(c.names()) for c in self.conjuncts)
        self.indexed = indexed
        self.tracker = PolicyTracker(stream_id)
        #: Memoized per-role-set verdicts for non-uniform segments:
        #: ``roles -> (verdict, comparisons_delta)``.  ``_permits`` is
        #: deterministic given (roles, conjuncts, indexed), so replaying
        #: the recorded comparison delta keeps the scan-cost accounting
        #: bit-identical to an uncached evaluation.  Cleared on rebind.
        self._permits_memo: dict[AbstractRoleSet, tuple[bool, int]] = {}
        #: Decision for the current uniform segment (None = per-tuple).
        self._segment_decision: bool | None = None
        self._decision_stale = True
        #: Sps held back until the first passing tuple of their segment.
        self._held_sps: Sequence[SecurityPunctuation] = []
        #: Tuples discarded by the shield (the security selectivity).
        self.tuples_blocked = 0
        self.sps_blocked = 0
        # -- metrics children (None until bind_metrics; every hot-path
        # recording site is guarded by one attribute check) ------------
        self._instruments = None
        self._m_pass = None
        self._m_drop = None
        self._m_prop = None
        self._m_seg = None
        self._m_denial = None
        #: Wall clock of the first sp of the pending batch (policy
        #: propagation lag start point).
        self._sp_wall: float | None = None
        #: Tuples seen since the last segment boundary (segment size).
        self._segment_tuples = 0
        #: Whether the current segment runs under denial-by-default.
        self._segment_denial = False
        #: Cached sp-batch description for provenance/audit records,
        #: invalidated on sp arrival (one ``to_text`` render per
        #: segment instead of per dropped tuple).
        self._sp_text: object = _UNSET
        #: Cached segment-constant provenance attrs (policy, sp,
        #: predicate) — valid only while the tracker is uniform, and
        #: invalidated with :attr:`_sp_text`.  Kept drop records are
        #: emitted on *every* trace, so their cost must not include
        #: re-sorting role names per record.
        self._prov_base: dict | None = None

    # -- metrics wiring -----------------------------------------------------
    def bind_metrics(self, instruments) -> None:
        """Bind shield telemetry: verdict counters keyed by the role
        predicate, propagation-lag and segment-size histograms."""
        super().bind_metrics(instruments)
        self._instruments = instruments
        query = self.audit_query or ""
        roles = ",".join(self._predicate_list)
        self._m_pass = instruments.shield_tuples.labels(
            self.name, query, roles, "pass")
        self._m_drop = instruments.shield_tuples.labels(
            self.name, query, roles, "drop")
        self._m_prop = instruments.propagation.labels(self.name, query)
        self._m_seg = instruments.segment_size.labels(self.name)
        self._m_denial = instruments.denial_drops.labels(self.name, query)

    # -- predicate management (used by SS split/merge rewrites) -------------
    def rebind(self, roles: Iterable[str] | AbstractRoleSet) -> None:
        """Rewrite the security predicate at runtime (role re-binding).

        The paper's future-work item of runtime role changes:
        :meth:`~repro.engine.dsms.DSMS.update_query_roles` calls this
        on every live shield of a query.  The whole conjunction is
        replaced by the single new role set; the change takes effect
        for the very next processed element (the buffered segment
        decision is invalidated).  When an audit log is attached, the
        switch is recorded as a ``shield.rebind`` event.
        """
        old_predicate = tuple(self._predicate_list)
        if not isinstance(roles, AbstractRoleSet):
            roles = RoleSet(roles)
        self.predicate = roles
        self.conjuncts = (roles,)
        self._predicate_list = sorted(roles.names())
        self._conjunct_scans = (self._predicate_list,)
        self._decision_stale = True
        self._prov_base = None
        self._permits_memo.clear()
        if self._instruments is not None:
            # The roles label changed: re-point the verdict counters at
            # the new predicate's series.
            self.bind_metrics(self._instruments)
        if self.audit is not None:
            sps = self.tracker.current_sps()
            self.audit.record(
                "shield.rebind",
                ts=sps[-1].ts if sps else 0.0,
                operator=self.name, query=self.audit_query,
                predicate=tuple(self._predicate_list),
                previous=list(old_predicate),
            )

    def split(self, n_first: int = 1) -> tuple["SecurityShield",
                                               "SecurityShield"]:
        """Rule 1: split the conjunction into two stacked shields.

        ``ψ_{p1∧..∧pn}(T) ≡ ψ_{p1..pk}(ψ_{pk+1..pn}(T))`` — the first
        returned shield carries the first ``n_first`` conjuncts, the
        second the rest.  Requires at least two conjuncts.
        """
        if not 0 < n_first < len(self.conjuncts):
            raise ValueError(
                f"cannot split {len(self.conjuncts)} conjunct(s) at "
                f"{n_first}"
            )
        first = SecurityShield(self.conjuncts[0], self.tracker.stream_id,
                               indexed=self.indexed,
                               conjuncts=self.conjuncts[:n_first],
                               name=f"{self.name}[0:{n_first}]")
        second = SecurityShield(self.conjuncts[n_first],
                                self.tracker.stream_id,
                                indexed=self.indexed,
                                conjuncts=self.conjuncts[n_first:],
                                name=f"{self.name}[{n_first}:]")
        return first, second

    @classmethod
    def merged(cls, shields: Iterable["SecurityShield"],
               name: str | None = None) -> "SecurityShield":
        """Rule 1 (reverse): one SS carrying all conjuncts of the inputs."""
        shields = list(shields)
        conjuncts: list[AbstractRoleSet] = []
        stream_id = "*"
        indexed = True
        for shield in shields:
            conjuncts.extend(shield.conjuncts)
            stream_id = shield.tracker.stream_id
            indexed = indexed and shield.indexed
        return cls(conjuncts[0], stream_id, indexed=indexed,
                   conjuncts=conjuncts, name=name)

    # -- the predicate check ---------------------------------------------------
    def _permits(self, policy: TuplePolicy) -> bool:
        """``∀i: Pt ∩ pi ≠ ∅``, with or without the predicate index.

        Cost model (Section VI.A): each sp must scan the SS state, so
        the unindexed check walks the full role list; the indexed check
        probes hash sets per policy role.
        """
        stats = self.stats
        if self.indexed:
            for conjunct in self.conjuncts:
                # One hash probe per policy role, per conjunct probed
                # (short-circuit: a failed conjunct ends the check).
                stats.comparisons += len(policy.roles)
                if not policy.permits_any(conjunct):
                    return False
            return True
        passing = True
        roles = policy.roles
        for scan_list in self._conjunct_scans:
            hit = False
            for role in scan_list:
                stats.comparisons += 1
                if role in roles:
                    hit = True
                    # No break: the naive variant models a full scan.
            passing = passing and hit
        return passing

    def _permits_cached(self, policy: TuplePolicy) -> bool:
        """Memoized :meth:`_permits` keyed by the policy's role set.

        Non-uniform segments repeat a handful of distinct role sets
        across many tuples; the verdict *and* its comparison count are
        replayed from the memo so stats stay identical to evaluating
        every tuple from scratch.
        """
        memo = self._permits_memo
        cached = memo.get(policy.roles)
        if cached is not None:
            verdict, delta = cached
            self.stats.comparisons += delta
            return verdict
        before = self.stats.comparisons
        verdict = self._permits(policy)
        memo[policy.roles] = (verdict, self.stats.comparisons - before)
        return verdict

    # -- element processing -------------------------------------------------
    def _process(self, element: StreamElement,
                 port: int) -> list[StreamElement]:
        if isinstance(element, SecurityPunctuation):
            self.tracker.observe_sp(element)
            self._sp_arrived()
            return []
        if self._m_seg is not None:
            self._segment_tuples += 1
        return self._process_tuple(element)

    def _sp_arrived(self) -> None:
        """Invalidate segment state at sp arrival (one call per sp or
        per envelope head: repeats within a batch change nothing)."""
        self._decision_stale = True
        self._sp_text = _UNSET
        self._prov_base = None
        if self._m_prop is not None:
            self._observe_segment_boundary()

    def _observe_segment_boundary(self) -> None:
        """Metrics at an sp arrival: close the previous segment's size
        observation and start the propagation-lag clock."""
        if self._sp_wall is None:
            # First sp of the pending batch: lag runs from here to the
            # first enforcement decision taken under the new policy.
            self._sp_wall = time.perf_counter()
        if self._segment_tuples:
            self._m_seg.observe(self._segment_tuples)
            self._segment_tuples = 0

    def _process_tuple(self, item: DataTuple) -> list[StreamElement]:
        if self._decision_stale:
            self._refresh_decision(item)
        if self._segment_decision is None:
            # Non-uniform policy: decide per tuple.
            policy = self.tracker.policy_for(item)
            passing = self._permits(policy)
        else:
            passing = self._segment_decision
        tracer = self._tracer
        if not passing:
            self.tuples_blocked += 1
            if self._m_drop is not None:
                self._m_drop.inc()
                if self._segment_denial:
                    self._m_denial.inc()
            if tracer is not None:
                self._prov_tuple(item, False)
            if self.audit is not None:
                self._audit_drop(item)
            return []
        if self._m_pass is not None:
            self._m_pass.inc()
        if tracer is not None and tracer.active:
            self._prov_tuple(item, True)
        out: list[StreamElement] = []
        if self._held_sps:
            out.extend(self._held_sps)
            self._held_sps = []
        out.append(item)
        return out

    def _process_batch(self, batch: TupleBatch,
                       port: int) -> list[StreamElement]:
        """Segment fast path: one pass/drop decision for the whole run.

        The envelope's head sps are adopted first (one shared
        resolution per envelope, see
        :meth:`~repro.operators.base.PolicyTracker.observe_envelope`);
        its tuples then all fall under one policy state, so for a
        uniform segment the sp-batch verdict covers the entire run in
        O(1) — the paper's Figure 8a amortization, vectorized.  A
        passing run leaves as the same envelope when the sps it
        releases are its own.  Non-uniform segments keep the per-tuple
        decision loop.
        """
        if batch.sps:
            self.tracker.observe_envelope(batch)
            self._sp_arrived()
        tuples = batch.tuples
        if self._m_seg is not None:
            self._segment_tuples += len(tuples)
        if self._decision_stale:
            self._refresh_decision(tuples[0])
        decision = self._segment_decision
        if decision is None:
            # Non-uniform policy: decide per tuple — but with the
            # staleness check, policy lookup plumbing and verdict
            # memoization hoisted out of the loop (an sp can never
            # arrive mid-batch, so the segment state is fixed here).
            passing: list[DataTuple] = []
            released: Sequence[SecurityPunctuation] = ()
            policy_for = self.tracker.policy_for
            permits = self._permits_cached
            m_pass, m_drop = self._m_pass, self._m_drop
            audit = self.audit
            tracer = self._tracer
            traced = tracer is not None and tracer.active
            for row, item in enumerate(tuples):
                if permits(policy_for(item)):
                    if m_pass is not None:
                        m_pass.inc()
                    if traced:
                        self._prov_tuple(item, True)
                    if self._held_sps:
                        released = self._held_sps
                        self._held_sps = []
                    passing.append(item)
                else:
                    if m_drop is not None:
                        m_drop.inc()
                        if self._segment_denial:
                            self._m_denial.inc()
                    if tracer is not None:
                        self._prov_tuple(item, False)
                    if audit is not None:
                        self._audit_drop(item, row)
            self.tuples_blocked += len(tuples) - len(passing)
            if not passing:
                return []
            return [forward(batch, passing, released)]
        tracer = self._tracer
        if not decision:
            self.tuples_blocked += len(tuples)
            if self._m_drop is not None:
                self._m_drop.inc(len(tuples))
                if self._segment_denial:
                    self._m_denial.inc(len(tuples))
            if tracer is not None:
                self._prov_run(tuples, False)
            if self.audit is not None:
                # One run record for the whole denied run; its
                # per-tuple events expand when the log is read.
                self._audit_drop(tuples[0], run=tuples)
            return []
        if self._m_pass is not None:
            self._m_pass.inc(len(tuples))
        if tracer is not None and tracer.active:
            self._prov_run(tuples, True)
        released, self._held_sps = self._held_sps, []
        return [forward(batch, tuples, released)]

    def _refresh_decision(self, item: DataTuple) -> None:
        """Evaluate a newly finalized sp-batch against the predicate."""
        # Sps of the previous segment still held (no passing tuple ever
        # arrived) are now definitively discarded with their segment.
        self.sps_blocked += len(self._held_sps)
        self._held_sps = []
        tracker = self.tracker
        # Finalizes any pending batch; the lookups below then find it
        # settled.
        pending = tracker.take_pending_sps()
        policy = tracker.policy_for(item)
        if tracker.is_uniform:
            self._segment_decision = self._permits(policy)
            if self._segment_decision:
                self._held_sps = pending
            else:
                self.sps_blocked += len(pending)
        else:
            # Non-uniform policy: decide per tuple; the segment's sps
            # are released with the first tuple that passes.
            self._segment_decision = None
            self._held_sps = pending
        self._decision_stale = False
        tracer = self._tracer
        if self._m_prop is not None:
            self._segment_denial = not tracker.current_sps()
            if self._sp_wall is not None:
                # First enforcement decision under the new policy: the
                # paper's "speed of enforcement", measured.
                lag = time.perf_counter() - self._sp_wall
                self._m_prop.observe(lag)
                if tracer is not None and tracer.active:
                    self._m_prop.exemplar(lag, tracer.trace_id)
                self._sp_wall = None
        if tracer is not None and tracer.active:
            self._prov_segment(item, policy)
        if self.audit is not None:
            self._audit_segment(item, policy)

    # -- provenance recording -----------------------------------------------
    def _sp_description(self) -> str | None:
        """Cached :meth:`_describe_sps` (recomputed once per segment)."""
        text = self._sp_text
        if text is _UNSET:
            text = self._sp_text = self._describe_sps()
        return text  # type: ignore[return-value]

    def _prov_attrs(self, item: DataTuple) -> dict:
        """Prototype attrs for a verdict record (callers copy + patch).

        Holds everything constant across a segment's verdicts:
        operator, query, predicate, resolved policy roles and the
        governing-sp text.  Under a uniform policy it is cached until
        the next sp (one sorted role-name render and one sp
        ``to_text`` per segment, shared by every record); non-uniform
        trackers resolve the policy per tuple.  Uniformity is read off
        the buffered segment decision (``None`` means per-tuple) —
        cheaper than the tracker property, and always current here
        since every caller runs after :meth:`_refresh_decision`.
        """
        if self._segment_decision is not None:
            base = self._prov_base
            if base is not None:
                return base
        sp = self._sp_description()
        base = {
            "operator": self.name,
            "predicate": self._predicate_list,
            "policy": self.tracker.policy_for(item).roles.names_sorted(),
            "sp": sp, "denial_by_default": sp is None,
        }
        if self.audit_query is not None:
            base["query"] = self.audit_query
        if self._segment_decision is not None:
            self._prov_base = base
        return base

    def _prov_tuple(self, item: DataTuple, passing: bool) -> None:
        """Provenance record for one per-tuple verdict.

        Drops are emitted with the tail-based keep override (they
        survive head sampling); passes only while the trace is
        sampled — call sites gate on ``tracer.active`` for those.
        """
        attrs = self._prov_attrs(item).copy()
        attrs["verdict"] = "pass" if passing else "drop"
        attrs["sid"] = item.sid
        attrs["tid"] = item.tid
        attrs["ts"] = item.ts
        self._tracer.record(_REC_PASS if passing else _REC_DROP, attrs,
                            keep=not passing)

    def _prov_run(self, tuples: list, passing: bool) -> None:
        """Provenance record for a whole-run uniform verdict.

        One record names every tuple of the run (``tids``) — the
        batched counterpart of :meth:`_prov_tuple`, same governing
        sp/policy for the entire segment run by construction.  Built
        as one dict display: in batched mode a segment usually emits
        exactly one run record, so the prototype cache of
        :meth:`_prov_attrs` never amortizes here.  The run itself is
        stored under the lazy ``_run`` key — drop records run on every
        trace, so the per-tuple id list is only rendered when the
        record is read (``SpanEvent.to_dict``, ``reconstruct_why``),
        not on the enforcement path.
        """
        first = tuples[0]
        sp = self._sp_description()
        attrs = {
            "operator": self.name,
            "predicate": self._predicate_list,
            "policy": self.tracker.policy_for(first).roles.names_sorted(),
            "sp": sp,
            "denial_by_default": sp is None,
            "verdict": "pass" if passing else "drop",
            "sid": first.sid,
            "ts": first.ts,
            "_run": tuples,
        }
        if self.audit_query is not None:
            attrs["query"] = self.audit_query
        self._tracer.record(_REC_PASS if passing else _REC_DROP, attrs,
                            keep=not passing)

    def _prov_segment(self, item: DataTuple, policy) -> None:
        """Segment-boundary provenance (sampled traces only)."""
        if self._segment_decision is None:
            verdict = "per-tuple"
        else:
            verdict = "pass" if self._segment_decision else "drop"
        self._tracer.decision(
            "shield.segment", operator=self.name, verdict=verdict,
            query=self.audit_query,
            predicate=list(self._predicate_list),
            policy=policy.roles.names_sorted(),
            sp=self._sp_description(),
        )

    # -- audit recording ----------------------------------------------------
    def _describe_sps(self) -> str | None:
        sps = self.tracker.current_sps()
        if not sps:
            return None
        return " | ".join(sp.to_text() for sp in sps)

    def _audit_segment(self, item: DataTuple, policy: TuplePolicy) -> None:
        """One ``shield.segment`` event per evaluated sp-batch."""
        if self._segment_decision is None:
            verdict = "per-tuple"
        else:
            verdict = "pass" if self._segment_decision else "drop"
        self.audit.record(
            "shield.segment", ts=item.ts, operator=self.name,
            query=self.audit_query,
            predicate=tuple(self._predicate_list),
            policy=tuple(sorted(policy.roles.names())),
            sp=self._sp_description(), verdict=verdict,
        )

    def _audit_drop(self, item: DataTuple, row: int = 0,
                    run: list | None = None) -> None:
        """Exactly one ``shield.drop`` event per denied tuple: ``item``
        at batch position ``row``, or every tuple of a uniformly
        denied ``run`` (whose policy is ``item``'s)."""
        policy = self.tracker.policy_for(item)
        self.audit.record(
            "shield.drop", ts=item.ts, operator=self.name,
            query=self.audit_query, sid=item.sid, tid=item.tid,
            predicate=tuple(self._predicate_list),
            policy=tuple(sorted(policy.roles.names())),
            sp=self._sp_description(), row=row, run=run,
        )

    def flush(self) -> list[StreamElement]:
        """End of stream: the trailing segment's size is now known."""
        if self._m_seg is not None and self._segment_tuples:
            self._m_seg.observe(self._segment_tuples)
            self._segment_tuples = 0
        return []

    def state_size(self) -> int:
        return len(self.predicate)

    def drops(self) -> int:
        return self.tuples_blocked

    def __repr__(self) -> str:
        return (f"SecurityShield({sorted(self.predicate.names())}, "
                f"indexed={self.indexed})")

"""Pre-/post-filtering enforcement (Section IV.A alternatives).

Besides the freely placeable Security Shield, the paper sketches two
fixed-placement alternatives for producing policy-compliant results:

* **Pre-filtering** — each query pre-filters arriving tuples against
  its own access rights *before* the query plan, discarding the sps;
  downstream the plan consists of ordinary operators, but plans cannot
  be shared across queries with different rights.
* **Post-filtering** — the query executes first and the results are
  filtered postmortem against the query's rights.

Both are the same physical operator — an access filter that resolves
each tuple's policy from the streaming sps, passes tuples whose policy
intersects the query's roles, and (for pre-filtering) strips the sps
from its output.  The placement, not the operator, differs; the
``bench_ablation_ss_placement`` benchmark compares the three layouts.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.bitmap import AbstractRoleSet, RoleSet
from repro.core.punctuation import SecurityPunctuation
from repro.operators.base import PolicyTracker, UnaryOperator
from repro.stream.batch import TupleBatch, forward
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = ["AccessFilter"]


class AccessFilter(UnaryOperator):
    """Fixed access-control filter for pre-/post-filtering layouts."""

    def __init__(self, roles: Iterable[str] | AbstractRoleSet, *,
                 stream_id: str = "*", strip_sps: bool = True,
                 name: str | None = None):
        super().__init__(name)
        if not isinstance(roles, AbstractRoleSet):
            roles = RoleSet(roles)
        self.predicate = roles
        #: Pre-filtering discards sps (the downstream plan is
        #: security-unaware); post-filtering may keep them for the
        #: result consumer.
        self.strip_sps = strip_sps
        self.tracker = PolicyTracker(stream_id)
        self._held_sps: Sequence[SecurityPunctuation] = []
        self.tuples_blocked = 0
        self._predicate_list = sorted(self.predicate.names())

    def _process(self, element: StreamElement,
                 port: int) -> list[StreamElement]:
        if isinstance(element, SecurityPunctuation):
            self.tracker.observe_sp(element)
            if not self.strip_sps:
                self._held_sps = [*self._held_sps, element]
            return []
        assert isinstance(element, DataTuple)
        policy = self.tracker.policy_for(element)
        self.stats.comparisons += 1
        tracer = self._tracer
        if not policy.permits_any(self.predicate):
            self.tuples_blocked += 1
            if tracer is not None:
                self._prov_item(element, policy, False)
            if self.audit is not None:
                self._audit_drop(element, policy)
            return []
        if tracer is not None and tracer.active:
            self._prov_item(element, policy, True)
        out: list[StreamElement] = []
        if self._held_sps:
            out.extend(self._held_sps)
            self._held_sps = []
        out.append(element)
        return out

    def _process_batch(self, batch: TupleBatch,
                       port: int) -> list[StreamElement]:
        """Batch fast path: resolve and check the run in one loop.

        The envelope's head sps are adopted first (one shared
        resolution per envelope); kept sps head the passing run.
        """
        tracker = self.tracker
        if batch.sps:
            tracker.observe_envelope(batch)
            if not self.strip_sps:
                held = self._held_sps
                self._held_sps = ([*held, *batch.sps] if held
                                  else batch.sps)
        predicate = self.predicate
        tuples = batch.tuples
        self.stats.comparisons += len(tuples)
        tracer = self._tracer
        if self.audit is None and tracer is None:
            passing = [item for item in tuples
                       if tracker.policy_for(item).permits_any(predicate)]
        else:
            traced = tracer is not None and tracer.active
            passing = []
            for row, item in enumerate(tuples):
                policy = tracker.policy_for(item)
                if policy.permits_any(predicate):
                    if traced:
                        self._prov_item(item, policy, True)
                    passing.append(item)
                else:
                    if tracer is not None:
                        self._prov_item(item, policy, False)
                    if self.audit is not None:
                        self._audit_drop(item, policy, row)
        self.tuples_blocked += len(tuples) - len(passing)
        if not passing:
            return []
        held, self._held_sps = self._held_sps, []
        return [forward(batch, passing, held)]

    def _prov_item(self, item: DataTuple, policy, passing: bool) -> None:
        """Provenance record for one filter verdict.

        Drops carry the tail-based keep override; passes are only
        emitted while the trace is sampled (call sites gate on
        ``tracer.active``).
        """
        sps = self.tracker.current_sps()
        self._tracer.decision(
            "filter.pass" if passing else "filter.drop",
            operator=self.name,
            verdict="pass" if passing else "drop",
            query=self.audit_query, keep=not passing,
            sid=item.sid, tid=item.tid, ts=item.ts,
            predicate=list(self._predicate_list),
            policy=policy.roles.names_sorted(),
            sp=" | ".join(sp.to_text() for sp in sps) if sps else None,
            denial_by_default=not sps,
        )

    def _audit_drop(self, item: DataTuple, policy, row: int = 0) -> None:
        """Exactly one ``filter.drop`` event per denied tuple (``row``:
        its position in the batch being processed)."""
        self.audit.record(
            "filter.drop", ts=item.ts, operator=self.name,
            query=self.audit_query, sid=item.sid, tid=item.tid,
            predicate=tuple(sorted(self.predicate.names())),
            policy=tuple(sorted(policy.roles.names())), row=row,
        )

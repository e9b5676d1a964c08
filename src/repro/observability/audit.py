"""The security audit trail: who was denied what, and why.

Every enforcement decision the engine takes is describable as "this
operator, under this role predicate, applied this sp to this element".
:class:`AuditEvent` captures exactly that tuple of facts;
:class:`AuditLog` keeps a bounded history of them.

Event kinds currently recorded:

``shield.segment``
    A Security Shield evaluated a newly finalized sp-batch against its
    predicate; the verdict governs every tuple of the segment.
``shield.drop``
    A shield (including the per-query delivery shield) discarded one
    tuple.  Exactly one event per denied tuple per shield.
``shield.rebind``
    A shield's predicate was rewritten at runtime
    (:meth:`~repro.operators.shield.SecurityShield.rebind`).
``analyzer.refine``
    The SP Analyzer intersected a provider sp with server policies.
``join.policy_reject``
    An SAJoin pair matched on the join value but had incompatible
    policies (Table I: empty policy intersection).
``join.deny``
    A probing tuple fell under denial-by-default (empty own policy)
    and joined with nothing.
``join.skip``
    The SPIndex skipping rule (Lemma 5.1) suppressed duplicate segment
    visits during one probe.
``dupelim.suppress``
    Duplicate elimination suppressed a value all authorized roles had
    already seen (Section IV.B case 2).
``groupby.merge``
    Group-by merged attribute subgroups bridged by a tuple's policy.

The log is bounded: it holds the newest ``capacity`` events, and
``evicted`` counts how many older ones were lost.  ``seq`` numbers and
the per-kind ``counts`` cover every recorded event, so rates stay
exact even after eviction.

**Ordering.**  The executor delivers segment runs
(:class:`~repro.stream.batch.TupleBatch`) whole, so operators decide a
run of tuples in one call, yet the trail must read as if every tuple
had travelled the plan alone.  While the executor drives one top-level
batch it keeps the batch's records in an open *block*; every record
carries an order key — the tuple's ordinal within the batch, the plan
path from the entry (output index and fan-out child index per hop),
and the record's order within its operator call.  When the batch is
done the block is *sealed*: its events take the next ``seq`` numbers
in key order, which is the element-wise order.  Records made outside
a block (a single tuple or sp, the SP Analyzer, a rebind) are already
in element-wise order and seal at once.

**Lazy records.**  A shield that denies a whole uniform segment records
*one* run record (``record(..., run=tuples)``).  Blocks stay unexpanded
until the log is read (iteration, :meth:`events`, :meth:`explain`,
export); only then do run records expand into per-tuple
:class:`AuditEvent` objects.  Blocks that capacity evicts before any
read are never expanded, so held events never exceed ``capacity``.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from repro.stream.tuples import DataTuple

__all__ = ["AuditEvent", "AuditLog"]

DEFAULT_CAPACITY = 10_000


@dataclass(frozen=True)
class AuditEvent:
    """One recorded security decision."""

    #: Monotonic sequence number (order of recording).
    seq: int
    #: Event kind (``shield.drop``, ``analyzer.refine``, ...).
    kind: str
    #: Stream timestamp of the element that triggered the decision.
    ts: float
    #: Name of the deciding operator (or ``SPAnalyzer``).
    operator: str
    #: Query the operator enforces for, when attributable.
    query: str | None = None
    #: Stream id of the affected tuple, if the decision concerns one.
    sid: str | None = None
    #: Tuple id of the affected tuple.
    tid: object | None = None
    #: The security predicate in force (sorted role names).
    predicate: tuple[str, ...] = ()
    #: The resolved policy roles the predicate was checked against.
    policy: tuple[str, ...] = ()
    #: Text rendering of the sp(s) that decided the outcome.
    sp: str | None = None
    #: Kind-specific extras (counts, before/after role sets, ...).
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        record = asdict(self)
        record["predicate"] = list(self.predicate)
        record["policy"] = list(self.policy)
        return record

    def __str__(self) -> str:
        core = f"#{self.seq} {self.kind} op={self.operator}"
        if self.query is not None:
            core += f" query={self.query}"
        if self.tid is not None:
            core += f" tuple={self.sid}:{self.tid}@{self.ts}"
        if self.predicate:
            core += f" predicate={list(self.predicate)}"
        if self.sp:
            core += f" sp=<{self.sp}>"
        return core


#: AuditEvent fields a record stores, in order (all but ``seq``).
_RECORD_FIELDS = ("kind", "ts", "operator", "query", "sid", "tid",
                  "predicate", "policy", "sp", "detail")


class _Block:
    """The sealed records of one top-level batch: a ``seq`` range
    whose events expand from ``records`` on first read.

    ``n`` counts the events still held; ``skip`` is how many leading
    events of the expanded sequence capacity has already evicted.
    """

    __slots__ = ("seq", "n", "skip", "records", "events")

    def __init__(self, seq: int, n: int, records: list | None,
                 events: "list[AuditEvent] | None" = None):
        self.seq = seq
        self.n = n
        self.skip = 0
        self.records = records
        self.events = events

    def evict(self, count: int) -> None:
        """Forget the oldest ``count`` (< ``n``) held events."""
        if self.events is not None:
            del self.events[:count]
        else:
            self.skip += count
        self.seq += count
        self.n -= count

    def expand(self) -> "list[AuditEvent]":
        """The held events, in key order (expanded once, then kept)."""
        if self.events is None:
            self.events = _expand(self.seq - self.skip, self.records,
                                  self.skip)
            self.records = None
            self.skip = 0
        return self.events


def _expand(seq: int, records: list, skip: int) -> "list[AuditEvent]":
    """Order a block's records by key, drop the first ``skip`` (already
    evicted) events and build the rest, numbered from ``seq``."""
    if len(records) == 1:
        run = records[0][3]
        order = [(0, j) for j in range(skip, 1 if run is None else len(run))]
    else:
        keyed = []
        for k, (ords, path, _, run) in enumerate(records):
            if run is None:
                keyed.append((ords, path, k, 0))
            elif type(ords) is int:
                keyed.extend((ords, path, k, j) for j in range(len(run)))
            else:
                keyed.extend(zip(ords, repeat(path), repeat(k),
                                 range(len(run))))
        keyed.sort()
        order = [(k, j) for _, _, k, j in keyed[skip:]]
    # Events are built by filling a fresh instance's __dict__: the
    # frozen dataclass __init__ (one object.__setattr__ per field)
    # costs ~7x as much, and a read builds up to ``capacity`` events.
    new = object.__new__
    prepared = [(dict(zip(_RECORD_FIELDS, fields)), run)
                for _, _, fields, run in records]
    events = []
    append = events.append
    for seq, (k, j) in enumerate(order, seq + skip):
        values, run = prepared[k]
        event = new(AuditEvent)
        state = event.__dict__
        state["seq"] = seq
        state.update(values)
        if run is not None:
            item = run[j]
            state["ts"] = item.ts
            state["sid"] = item.sid
            state["tid"] = item.tid
            state["detail"] = values["detail"].copy()
        append(event)
    return events


class AuditLog:
    """Bounded, queryable history of :class:`AuditEvent` records.

    Events materialize on read: recording stores compact records (one
    per denied segment run), and :class:`AuditEvent` objects are built
    only for the held events, the first time the log is iterated,
    filtered, explained or exported.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("audit log capacity must be positive")
        self.capacity = capacity
        self._blocks: deque[_Block] = deque()
        #: Events held across all blocks (at most ``capacity``).
        self._held = 0
        self._seq = 0
        #: Events recorded but no longer held (bounded-log eviction).
        self.evicted = 0
        #: Exact per-kind totals, unaffected by eviction.
        self.counts: Counter[str] = Counter()
        #: Records of the top-level batch the executor is driving
        #: (``None`` otherwise: records then seal at once).
        self._open: list | None = None
        #: Order key of the operator call in progress, set by the
        #: executor: ``(ordinals, path)`` — the ordinal of the tuple
        #: (an ``int``) or the ordinals of the batch's tuples (a
        #: sequence), and the plan path from the entry.
        self.key: "tuple[int | Sequence[int], tuple]" = (0, ())

    # -- recording ---------------------------------------------------------
    def record(self, kind: str, *, ts: float, operator: str,
               query: str | None = None, sid: str | None = None,
               tid: object | None = None,
               predicate: tuple[str, ...] = (),
               policy: tuple[str, ...] = (),
               sp: str | None = None,
               row: int = 0, run: "Sequence[DataTuple] | None" = None,
               **detail) -> AuditEvent | None:
        """Record one decision — or, with ``run``, one per tuple.

        ``run`` is the whole batch a batch path is processing, decided
        by one verdict (a shield denying a uniform segment): each of
        its events takes ``ts``, ``sid`` and ``tid`` from its tuple and
        shares the other fields, and the run is stored as one record.  ``row`` is
        the position of the decided tuple in the batch a batch path is
        processing.

        Outside an executor-driven batch the record seals at once, and
        a single event is returned.  Inside one, the events are
        numbered when the batch seals; ``record`` then returns
        ``None``, as it does for every ``run`` record.
        """
        fields = (kind, ts, operator, query, sid, tid, predicate, policy,
                  sp, detail)
        block = self._open
        if block is not None:
            ords, path = self.key
            if run is None and type(ords) is not int:
                ords = ords[row]
            block.append((ords, path, fields, run))
            return None
        if run is not None:
            self._seal([(0, (), fields, run)])
            return None
        event = AuditEvent(self._seq, kind, ts, operator, query, sid, tid,
                           predicate, policy, sp, detail)
        self.counts[kind] += 1
        last = self._blocks[-1] if self._blocks else None
        if last is not None and last.events is not None:
            last.events.append(event)
            last.n += 1
        else:
            self._blocks.append(_Block(self._seq, 1, None, [event]))
        self._advance(1)
        return event

    def absorb(self, events: "Iterable[AuditEvent]",
               counts: "dict[str, int]", evicted: int,
               **labels) -> None:
        """Fold another log's trail (a shard worker's) into this one.

        ``events`` are the other log's held events, ``counts`` and
        ``evicted`` its exact totals; ``labels`` join every event's
        ``detail``.  The other log's evicted events were recorded
        before its held ones, so they are counted (and ``seq``
        advanced) first.
        """
        events = list(events)
        self._seq += evicted
        self.evicted += evicted
        self.counts.update(Counter(counts) - Counter(e.kind for e in events))
        for event in events:
            self.record(event.kind, ts=event.ts, operator=event.operator,
                        query=event.query, sid=event.sid, tid=event.tid,
                        predicate=event.predicate, policy=event.policy,
                        sp=event.sp, **labels, **event.detail)

    # -- executor hooks -----------------------------------------------------
    def open_element(self) -> None:
        """Start collecting the records of one top-level batch."""
        self._open = []

    def seal_element(self) -> None:
        """Seal the open batch's records in order-key order."""
        records = self._open
        self._open = None
        if records:
            self._seal(records)

    def _seal(self, records: list) -> None:
        counts = self.counts
        n = 0
        for _, _, fields, run in records:
            size = 1 if run is None else len(run)
            counts[fields[0]] += size
            n += size
        self._blocks.append(_Block(self._seq, n, records))
        self._advance(n)

    def _advance(self, n: int) -> None:
        """Account ``n`` newly sealed events; evict beyond capacity."""
        self._seq += n
        self._held += n
        excess = self._held - self.capacity
        if excess <= 0:
            return
        self.evicted += excess
        self._held -= excess
        blocks = self._blocks
        while excess:
            front = blocks[0]
            if front.n <= excess:
                blocks.popleft()
                excess -= front.n
            else:
                front.evict(excess)
                excess = 0

    def _held_events(self) -> "list[AuditEvent]":
        return [event for block in self._blocks
                for event in block.expand()]

    # -- querying ----------------------------------------------------------
    def events(self, *, query: str | None = None,
               kind: str | None = None) -> list[AuditEvent]:
        """Held events, optionally filtered by query and/or kind."""
        out = []
        for event in self._held_events():
            if query is not None and event.query != query:
                continue
            if kind is not None and event.kind != kind:
                continue
            out.append(event)
        return out

    def explain(self, tuple_id: object, *,
                sid: str | None = None) -> list[AuditEvent]:
        """Every held decision that touched the tuple ``tuple_id``.

        This is the "why was my tuple dropped?" query: the returned
        events name the operator, the predicate and the sp that decided
        each outcome.  ``sid`` narrows to one stream when tuple ids are
        reused across streams.
        """
        out = []
        for event in self._held_events():
            if event.tid != tuple_id:
                continue
            if sid is not None and event.sid != sid:
                continue
            out.append(event)
        return out

    def last(self, kind: str | None = None) -> AuditEvent | None:
        """Most recent held event (of ``kind``, if given)."""
        for event in reversed(self._held_events()):
            if kind is None or event.kind == kind:
                return event
        return None

    # -- export -------------------------------------------------------------
    def to_jsonl(self, fp: IO[str]) -> int:
        """Write held events as JSON lines; returns the line count."""
        count = 0
        for event in self._held_events():
            fp.write(json.dumps(event.to_dict(), default=str,
                                separators=(",", ":")))
            fp.write("\n")
            count += 1
        return count

    def dump_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as fp:
            return self.to_jsonl(fp)

    # -- bookkeeping ---------------------------------------------------------
    def clear(self) -> None:
        self._blocks.clear()
        self._held = 0
        self.counts.clear()
        self.evicted = 0

    def __len__(self) -> int:
        return self._held

    def __iter__(self) -> Iterator[AuditEvent]:
        return iter(self._held_events())

    def __repr__(self) -> str:
        return (f"AuditLog(held={self._held}, "
                f"recorded={self._seq}, evicted={self.evicted})")

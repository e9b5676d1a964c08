"""Segment envelopes: batched stream elements for vectorized execution.

The paper's unit of enforcement is the s-punctuated segment: one
sp-batch and the tuples it governs (Figure 8a, Section V.A).
:class:`TupleBatch` is that unit in the execution layer — a *run* of
consecutive data tuples from one source feed position, optionally
carrying the sp-batch that opens it at its head.  Operators with a
native batch path take the whole segment in one dispatch: they first
consume ``sps`` (exactly as if each sp had arrived alone), then decide
the run with one decision or one tight loop.

Invariants of a :class:`TupleBatch`:

* sps only at the head — an envelope never crosses an sp, so every
  tuple inside falls under the same policy state of any sp-tracking
  operator;
* it is immutable by convention — operators never mutate ``tuples``
  or ``sps`` in place (envelopes are shared across fan-out edges), and
  an operator that forwards the same sps and tuples forwards the same
  envelope object;
* it is transparent to results — sinks and the element-wise fallback
  unwrap it (sps first), so query outputs are identical with and
  without batching;
* its sp-batch is resolved once: :meth:`TupleBatch.shared_policy`
  computes the sid-independent resolution of a uniform batch the first
  time a policy tracker adopts the envelope and caches it on the
  envelope itself (never on the sps, which are input objects), so
  sibling and delivery shields reuse it.

The producers — :func:`coalesce_feed`, :func:`coalesce_elements` and
:meth:`~repro.core.analyzer.SPAnalyzer.analyze_batched` — share one
rule, so they yield identical feeds:

* a tuple run is a maximal sequence of consecutive same-stream tuples,
  cut at ``max_batch`` tuples;
* the sps directly before a run's first tuple, on the same stream and
  with the timestamp of the last of them (one sp-batch), ride at the
  run's head — such a run is an envelope even when it holds one tuple;
* sps that no tuple follows stay bare elements: a batch superseded by a
  newer one, sps at a stream switch and sps at the end of the stream;
* only a lone tuple with no sps is unwrapped.

Coalescing never reorders the feed, which is what makes batched and
element-wise execution produce byte-identical results.  It may delay
an element, though: a run is held until its end is seen.  An analyzed
source therefore yields :data:`RUN_BREAK` right before it rewrites an
sp-batch (see :meth:`~repro.core.analyzer.SPAnalyzer.analyze`), and
the producers close the open run there — the run is processed before
the analyzer's records of the next batch, as it is element-wise.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.core.policy import TuplePolicy, uniform_tuple_policy
from repro.core.punctuation import SecurityPunctuation
from repro.stream.tuples import DataTuple

__all__ = ["TupleBatch", "coalesce_feed", "coalesce_elements",
           "envelope", "forward", "DEFAULT_MAX_BATCH", "RUN_BREAK"]

#: Upper bound on tuples per batch: keeps per-batch latency and peak
#: list sizes bounded on streams with very long segments.
DEFAULT_MAX_BATCH = 4096

#: Sentinel for the not-yet-computed shared resolution.
_UNRESOLVED = object()


class _RunBreak:
    __slots__ = ()

    def __repr__(self) -> str:
        return "RUN_BREAK"


#: Feed marker: "the open tuple run ends here".  Not a stream element —
#: the producers consume it and never pass it on.
RUN_BREAK = _RunBreak()


class TupleBatch:
    """A run of data tuples and the sp-batch (if any) that opens it."""

    __slots__ = ("tuples", "sps", "_shared")

    def __init__(self, tuples: list[DataTuple],
                 sps: Sequence[SecurityPunctuation] = ()):
        self.tuples = tuples
        self.sps = sps
        self._shared: object = _UNRESOLVED

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[DataTuple]:
        return iter(self.tuples)

    @property
    def ts(self) -> float:
        """Timestamp of the last tuple (the run's progress mark)."""
        return self.tuples[-1].ts

    def shared_policy(self) -> TuplePolicy | None:
        """The resolution ``sps`` gives every tuple, computed once.

        ``None`` when the head sp-batch is not uniform (see
        :func:`~repro.core.policy.uniform_tuple_policy`); trackers then
        interpret the sps one by one.
        """
        shared = self._shared
        if shared is _UNRESOLVED:
            shared = self._shared = uniform_tuple_policy(self.sps)
        return shared  # type: ignore[return-value]

    def __repr__(self) -> str:
        tuples = self.tuples
        head = f"sps={len(self.sps)}, " if self.sps else ""
        if not tuples:
            return f"TupleBatch({head}empty)"
        return (f"TupleBatch({head}n={len(tuples)}, "
                f"ts={tuples[0].ts}..{tuples[-1].ts})")


def envelope(tuples: list[DataTuple],
             sps: Sequence[SecurityPunctuation] = ()) -> object:
    """``tuples`` opened by ``sps`` as one element: an envelope, or the
    bare tuple when it is alone and no sp opens it."""
    if sps or len(tuples) > 1:
        return TupleBatch(tuples, sps)
    return tuples[0]


def forward(batch: TupleBatch, passing: list[DataTuple],
            head: Sequence[SecurityPunctuation]) -> object:
    """What an operator emits for the ``passing`` tuples of ``batch``
    released under ``head`` sps: ``batch`` itself when both are its
    own, else a new element (see :func:`envelope`)."""
    if len(passing) == len(batch.tuples) and (
            head is batch.sps or not (head or batch.sps)):
        return batch
    return envelope(passing, tuple(head))


def coalesce_feed(
    feed: Iterable[tuple[str, "DataTuple | SecurityPunctuation"]],
    *, max_batch: int = DEFAULT_MAX_BATCH,
) -> Iterator[tuple[str, object]]:
    """Group a merged ``(stream_id, element)`` feed into envelopes.

    ``feed`` yields pairs in execution order (the contract of
    :func:`~repro.stream.source.merge_sources`); runs break at every
    sp, at every stream switch, at ``max_batch`` tuples and at every
    :data:`RUN_BREAK`, and sps join the run they open per the module's
    rule.
    """
    head: list[SecurityPunctuation] = []
    head_sid: str | None = None
    run: list[DataTuple] = []
    run_sid: str | None = None
    run_sps: tuple[SecurityPunctuation, ...] = ()
    for stream_id, element in feed:
        if isinstance(element, SecurityPunctuation):
            if run:
                yield run_sid, envelope(run, run_sps)
                run = []
                run_sps = ()
            if head and (stream_id != head_sid
                         or element.ts != head[0].ts):
                for sp in head:
                    yield head_sid, sp
                head = []
            head.append(element)
            head_sid = stream_id
            continue
        if element is RUN_BREAK:
            if run:
                yield run_sid, envelope(run, run_sps)
                run = []
                run_sps = ()
            continue
        if run and (stream_id != run_sid or len(run) >= max_batch):
            yield run_sid, envelope(run, run_sps)
            run = []
            run_sps = ()
        if not run:
            if head:
                if head_sid == stream_id:
                    run_sps = tuple(head)
                else:
                    for sp in head:
                        yield head_sid, sp
                head = []
            run_sid = stream_id
        run.append(element)
    if run:
        yield run_sid, envelope(run, run_sps)
    for sp in head:
        yield head_sid, sp


def coalesce_elements(
    elements: Iterable["DataTuple | SecurityPunctuation"],
    *, max_batch: int = DEFAULT_MAX_BATCH,
) -> Iterator[object]:
    """Group a *single-stream* element feed into envelopes.

    The one-source counterpart of :func:`coalesce_feed`: no
    ``(stream_id, element)`` pairing, no stream-switch breaks — the
    executor's single-source fast path batches the raw element stream
    with a single generator layer instead of stacking the merge and
    coalesce generators.  Same rule, so both paths produce
    byte-identical feeds.
    """
    head: list[SecurityPunctuation] = []
    run: list[DataTuple] = []
    run_sps: tuple[SecurityPunctuation, ...] = ()
    for element in elements:
        if isinstance(element, SecurityPunctuation):
            if run:
                yield envelope(run, run_sps)
                run = []
                run_sps = ()
            if head and element.ts != head[0].ts:
                yield from head
                head = []
            head.append(element)
            continue
        if element is RUN_BREAK:
            if run:
                yield envelope(run, run_sps)
                run = []
                run_sps = ()
            continue
        if head and not run:
            run_sps = tuple(head)
            head = []
        run.append(element)
        if len(run) >= max_batch:
            yield envelope(run, run_sps)
            run = []
            run_sps = ()
    if run:
        yield envelope(run, run_sps)
    yield from head

"""Unit tests for TupleBatch and coalesce_feed."""

from repro.core.punctuation import SecurityPunctuation
from repro.stream.batch import TupleBatch, coalesce_feed
from repro.stream.tuples import DataTuple


def dt(sid, tid, ts):
    return DataTuple(sid, tid, {"v": float(tid)}, ts)


def sp(ts):
    return SecurityPunctuation.grant(["D"], ts)


def unroll(feed):
    """Flatten a coalesced feed back to (stream_id, element) pairs."""
    out = []
    for stream_id, element in feed:
        if isinstance(element, TupleBatch):
            out.extend((stream_id, item) for item in element.sps)
            out.extend((stream_id, item) for item in element)
        else:
            out.append((stream_id, element))
    return out


class TestTupleBatch:
    def test_len_iter_ts(self):
        tuples = [dt("s", 0, 1.0), dt("s", 1, 2.0), dt("s", 2, 3.0)]
        batch = TupleBatch(tuples)
        assert len(batch) == 3
        assert list(batch) == tuples
        assert batch.ts == 3.0

    def test_repr(self):
        batch = TupleBatch([dt("s", 0, 1.0)])
        assert "1" in repr(batch)


class TestCoalesceFeed:
    def test_runs_between_sps_are_batched(self):
        feed = [("s", sp(0.5))] + [("s", dt("s", i, float(i + 1)))
                                   for i in range(5)] + [("s", sp(6.5))]
        out = list(coalesce_feed(iter(feed)))
        # one envelope (the opening sp + 5 tuples), the trailing sp
        assert len(out) == 2
        assert isinstance(out[0][1], TupleBatch)
        assert len(out[0][1]) == 5
        assert out[0][1].sps == (feed[0][1],)
        assert out[1] == feed[-1]

    def test_transparent_unroll(self):
        feed = ([("s", sp(0.5))]
                + [("s", dt("s", i, float(i + 1))) for i in range(4)]
                + [("s", sp(5.5)), ("s", sp(5.6))]
                + [("s", dt("s", 9, 6.0))])
        assert unroll(coalesce_feed(iter(feed))) == feed

    def test_single_tuple_run_not_wrapped(self):
        feed = [("s", dt("s", 0, 1.0)), ("s", sp(1.5)),
                ("s", dt("s", 1, 2.0))]
        out = list(coalesce_feed(iter(feed)))
        # A lone tuple with no sps is unwrapped; one opened by an sp
        # is an envelope of one.
        assert isinstance(out[0][1], DataTuple)
        assert isinstance(out[1][1], TupleBatch)
        assert out[1][1].sps == (feed[1][1],)
        assert out[1][1].tuples == [feed[2][1]]

    def test_unfollowed_sps_stay_bare(self):
        old, new_a, new_b = sp(1.0), sp(2.0), sp(2.0)
        other = sp(3.0)
        feed = [("s", old), ("s", new_a), ("s", new_b),
                ("s", dt("s", 0, 2.5)),
                # sps at a stream switch, then at the end of the stream
                ("s", other), ("t", dt("t", 1, 3.5)), ("s", sp(4.0))]
        out = list(coalesce_feed(iter(feed)))
        assert out[0] == ("s", old)  # superseded by a newer batch
        assert out[1][1].sps == (new_a, new_b)
        assert out[2] == ("s", other)
        assert out[3] == ("t", feed[5][1])
        assert out[4] == feed[6]
        assert unroll(coalesce_feed(iter(feed))) == feed

    def test_max_batch_keeps_head_on_first_piece(self):
        head = sp(0.5)
        feed = [("s", head)] + [("s", dt("s", i, float(i + 1)))
                                for i in range(5)]
        out = [el for _, el in coalesce_feed(iter(feed), max_batch=2)]
        assert [len(el.sps) if isinstance(el, TupleBatch) else None
                for el in out] == [1, 0, None]
        assert unroll(coalesce_feed(iter(feed), max_batch=2)) == feed

    def test_stream_switch_breaks_run(self):
        feed = [("a", dt("a", 0, 1.0)), ("a", dt("a", 1, 2.0)),
                ("b", dt("b", 2, 3.0)),
                ("a", dt("a", 3, 4.0)), ("a", dt("a", 4, 5.0))]
        out = list(coalesce_feed(iter(feed)))
        kinds = [(sid, type(el).__name__) for sid, el in out]
        assert kinds == [("a", "TupleBatch"), ("b", "DataTuple"),
                         ("a", "TupleBatch")]
        assert unroll(coalesce_feed(iter(feed))) == feed

    def test_max_batch_splits_long_runs(self):
        feed = [("s", dt("s", i, float(i))) for i in range(10)]
        out = list(coalesce_feed(iter(feed), max_batch=4))
        sizes = [len(el) if isinstance(el, TupleBatch) else 1
                 for _, el in out]
        assert sizes == [4, 4, 2]
        assert unroll(coalesce_feed(iter(feed), max_batch=4)) == feed

    def test_empty_and_sp_only_feeds(self):
        assert list(coalesce_feed(iter([]))) == []
        feed = [("s", sp(1.0)), ("s", sp(2.0))]
        assert list(coalesce_feed(iter(feed))) == feed

"""Output checks: engine deliveries against the reference oracle.

A delivered tuple is compared by its oracle signature (stream, tid,
ts, values, full resolved role set), as a multiset per query.  Float
values are matched with a relative tolerance of :data:`REL_TOL`, fixed
from float64 precision: the engine's sliding-window aggregates update
a running sum incrementally while the oracle re-sums the window, so
the last digits of an ``avg`` may differ.  Every other field must be
equal.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

from repro.core.punctuation import SecurityPunctuation
# Resolves a sink's tuples against the sps delivered with them, exactly
# as the differential tester decodes engine output.
from repro.verify.differ import _decode_sink as signatures

#: Relative tolerance for float fields of a signature.
REL_TOL = 1e-9


def _skeleton(sig: tuple) -> tuple:
    sid, tid, ts, values, roles = sig
    return (sid, tid, ts, tuple(k for k, _ in values), roles)


def _close(a: tuple, b: tuple) -> bool:
    for (_, x), (_, y) in zip(a[3], b[3]):
        if isinstance(x, float) and isinstance(y, float):
            if not math.isclose(x, y, rel_tol=REL_TOL):
                return False
        elif x != y:
            return False
    return True


def mismatches(delivered: Counter, expected: Counter) -> int:
    """Size of the multiset difference, both ways, after tolerance."""
    extra = delivered - expected
    missing = expected - delivered
    if not extra and not missing:
        return 0
    pool: dict = defaultdict(list)
    for sig, count in missing.items():
        pool[_skeleton(sig)].extend([sig] * count)
    unmatched = 0
    for sig, count in extra.items():
        candidates = pool.get(_skeleton(sig), [])
        for _ in range(count):
            for index, other in enumerate(candidates):
                if _close(sig, other):
                    del candidates[index]
                    break
            else:
                unmatched += 1
    return unmatched + sum(len(left) for left in pool.values())


def compare(results: dict, expected: dict) -> int:
    """Mismatched signatures summed over queries.

    ``results`` maps query -> delivered elements, ``expected`` maps
    query -> signature Counter.
    """
    return sum(mismatches(signatures(results.get(name, [])), sigs)
               for name, sigs in expected.items())


def _element_hash(e) -> int:
    """Hash over every field a delivered element carries.

    A tuple contributes its stream, id, timestamp and values; an sp its
    timestamp, DDP, SRP, sign and flags, so a changed role set shows
    even when the tuple it governs is unchanged.
    """
    if type(e) is SecurityPunctuation:
        return hash((e.ts, e.ddp.spec(), e.srp.spec(), e.sign, e.immutable,
                     e.provider, e.incremental))
    return hash((e.sid, e.tid, e.ts, tuple(e.values.items())))


def fingerprint(results: dict) -> dict:
    """Checksum of a run's output, to compare repeated runs.

    Per query: element count, sp count and a hash over the content and
    order of every delivered element.  Repeated runs of one workload
    over one input, in one process, must agree.  Computed outside the
    timed region.
    """
    sp_type = SecurityPunctuation
    # Queries share delivered objects; each is hashed once.  Every
    # element stays alive during the call, so ids are unique.
    memo: dict = {}
    out = {}
    for name, elements in results.items():
        h = 0
        for e in elements:
            eh = memo.get(id(e))
            if eh is None:
                eh = memo[id(e)] = _element_hash(e)
            h = hash((h, eh))
        out[name] = (len(elements),
                     sum(type(e) is sp_type for e in elements), h)
    return out


def fingerprint_mismatches(a: dict, b: dict) -> int:
    """Elements by which two checksums differ (at least 1 per query)."""
    bad = 0
    for name in set(a) | set(b):
        x, y = a.get(name, (0, 0, 0)), b.get(name, (0, 0, 0))
        if x != y:
            bad += max(abs(x[0] - y[0]), 1)
    return bad

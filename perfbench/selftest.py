#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, on inputs shrunk by
   :data:`SCALE`: the result object must carry ``correct``/
   ``attempted``/``failed`` and exactly the metrics ``BENCHMARK.json``
   names for that mode, each with its unit, and the run must be
   correct.
2. A deliberately corrupted delivery list (one tuple removed from one
   query's output, on a ``DSMS.run`` workload and on the live session
   workload) must make ``failed_share`` > 0.

Everything runs in this process, through the same functions
``run.py`` uses.  Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import workloads  # noqa: E402

#: Input size factor of the self-test workloads.
SCALE = 0.05
SECONDS = 0.5


def check_emitted(spec: dict, problems: list[str]) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{name} trace={trace}"
            workload = workloads.make(name, 7, SECONDS, SCALE)
            tally = measure.Tally()
            result = measure.measure(workload, SECONDS, bool(trace), tally,
                                     f"selftest-{name}-trace{trace}")
            line = measure.summary(
                tally, measure.with_units(result["metrics"], bool(trace)))
            line = json.loads(json.dumps(line))
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(line)}")
                continue
            if not line["correct"] or line["failed"]:
                problems.append(f"{label}: not correct ({line['failed']}"
                                f" of {line['attempted']} failed)")
            got = {metric: entry.get("unit")
                   for metric, entry in line["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(metric for metric in got
                               if metric in expected[trace]
                               and got[metric] != expected[trace][metric])
                problems.append(f"{label}: missing {missing}, extra "
                                f"{extra}, wrong unit {wrong}")
            for metric, entry in line["metrics"].items():
                if not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"{label}: {metric} has no number")
            print(f"checked {label}: {len(got)} metrics", flush=True)


def check_corruption(problems: list[str]) -> None:
    """A corrupted delivery must surface as failed_share > 0.

    Three cases: a tuple dropped from every ``DSMS.run`` (caught by the
    oracle comparison), one tuple's value changed in every
    ``DSMS.run`` after the first timed one (caught only by the content
    checksum of repeated runs) and a tuple dropped from a session push.
    """
    from repro.engine.dsms import DSMS, QueryResult
    from repro.engine.session import StreamingSession
    from repro.stream.tuples import DataTuple

    def drop_first_tuple(elements):
        for index, element in enumerate(elements):
            if isinstance(element, DataTuple):
                return elements[:index] + elements[index + 1:]
        return elements

    def alter_first_tuple(elements):
        for index, element in enumerate(elements):
            if isinstance(element, DataTuple):
                key, value = next(iter(element.values.items()))
                values = {**element.values,
                          key: value + 1 if isinstance(value, (int, float))
                          else f"{value}!"}
                changed = DataTuple(element.sid, element.tid, values,
                                    element.ts)
                return elements[:index] + [changed] + elements[index + 1:]
        return elements

    original_run = DSMS.run
    original_push = StreamingSession.push
    calls = [0]

    def corrupt_run(self, **kwargs):
        results = original_run(self, **kwargs)
        name = next(iter(results))
        results[name] = QueryResult(
            name, drop_first_tuple(results[name].elements))
        return results

    def corrupt_later_runs(self, **kwargs):
        # Call 1 is the warm-up and call 2 the first timed repetition,
        # whose output goes to the oracle; later ones are corrupted.
        results = original_run(self, **kwargs)
        calls[0] += 1
        if calls[0] > 2:
            for name, result in results.items():
                if any(isinstance(e, DataTuple) for e in result.elements):
                    results[name] = QueryResult(
                        name, alter_first_tuple(result.elements))
                    break
        return results

    def corrupt_push(self, stream_id, element):
        new = original_push(self, stream_id, element)
        name = next(iter(new))
        new[name] = drop_first_tuple(new[name])
        return new

    cases = (("segment_fanout", DSMS, "run", corrupt_run),
             ("sp_dense", DSMS, "run", corrupt_later_runs),
             ("live_health", StreamingSession, "push", corrupt_push))
    for name, owner, attr, fake in cases:
        workload = workloads.make(name, 7, SECONDS, SCALE)
        tally = measure.Tally()
        saved = getattr(owner, attr)
        setattr(owner, attr, fake)
        try:
            measure.measure(workload, SECONDS, False, tally,
                            f"selftest-corrupt-{name}")
        finally:
            setattr(owner, attr, saved)
        share = tally.failed / max(tally.attempted, 1)
        if share <= 0:
            problems.append(f"{fake.__name__} on {name}: corrupted "
                            "delivery not detected")
        print(f"{fake.__name__} on {name}: failed_share {share:.6g}",
              flush=True)


def main() -> int:
    measure.OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    check_emitted(spec, problems)
    check_corruption(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

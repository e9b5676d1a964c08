"""Measurement loops, correctness checks and the result record.

Imported by ``run.py`` once the engine sources are on ``sys.path``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import Counter
from pathlib import Path

import check
import tracing
import workloads
from repro.core.punctuation import SecurityPunctuation
from repro.stream.batch import TupleBatch
from repro.verify.oracle import run_oracle

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
#: Declared metric names and units, per mode.
SPEC = HERE.parent / "BENCHMARK.json"

#: Untimed ``DSMS.run`` calls before sampling starts (imports, lazy
#: predicate compilation and other first-call costs are paid here).
WARMUP_RUNS = 1
#: Elements pushed through a throwaway session before ``live_health``.
LIVE_WARMUP_ELEMENTS = 2000
#: Timed ``DSMS.run`` repetitions in a run are a fixed number: the
#: run's ``--seconds`` divided by the workload's nominal repetition
#: time (``Workload.rep_s``), so the sample size never depends on how
#: fast the program is.  Figures are medians over them.
MIN_REPS = 5
#: Set-ups timed between two garbage collections; a ``DSMS.run``
#: workload times one such block before every repetition, so a run
#: holds hundreds of 0.25-2.5 ms set-ups spread over its length.
SETUP_BLOCK = 12
#: The ``live_health`` open loop pauses every this many pushes to time
#: :data:`LIVE_PAUSE_SETUPS` set-ups, so they spread over the whole
#: run; the schedule restarts after each pause.  The host switches
#: between a fast and a ~1.6x slower state several times a second, and
#: all set-ups of one short burst land in the same state.
LIVE_PAUSE_EVERY = 250
LIVE_PAUSE_SETUPS = 3
#: Elements pushed in the ``live_health`` memory pass.  Session state
#: is bounded by the queries' windows (at most 200 ts units, four
#: reading rounds) and is full after the first ~800 elements; past that
#: the peak grows only by delivered output.  tracemalloc slows the push
#: path ~7x, so the pass does not cover the whole feed.
LIVE_ALLOC_ELEMENTS = 4000
#: Host-speed reference: a fixed piece of pure-Python work that never
#: touches the engine, timed right before every repetition, every
#: block of set-ups and every stretch of ``live_health`` pushes.  The
#: shared host switches between a fast state and one ~1.6x slower, and
#: the share of each drifts over minutes, so wall times of identical
#: code moved by up to 1.8x within one 10-run set.  Each timed span is
#: scaled by ``REF_NOMINAL_S / reference time`` to the seconds it would
#: have taken at the nominal host speed; over two 10-run sets per
#: workload the run-to-run spread of throughput fell from 0.18-0.33 raw
#: to 0.04-0.17 scaled.  Raw wall-clock figures are printed and
#: recorded beside the scaled ones.
REF_ITERATIONS = 60_000
#: Reference time at the nominal host speed: its fast state on the
#: 2-vCPU Xeon, Python 3.11.7 host the benchmark was added on.
REF_NOMINAL_S = 0.015
#: ``DSMS.run(shards=nproc)`` repetitions for ``engine.sharded.*``.
SHARDED_REPS = 3
#: Analyzer-only passes for ``core.analyzer.ingest_eps``.
INGEST_REPS = 3

#: How garbage collection and warm-up are handled; recorded with every
#: result.
GC_POLICY = (
    "inputs generated, then gc.collect() + gc.freeze() so full "
    "collections do not rescan them; gc stays enabled inside every timed "
    "call; gc.collect() before each timed repetition and each group of "
    "set-ups, outside the timed region; "
    f"{WARMUP_RUNS} untimed warm-up DSMS.run, or a warm-up "
    f"session over {LIVE_WARMUP_ELEMENTS} elements for live_health")

SHARDED_KEYS = ("engine.sharded.throughput_eps", "engine.sharded.speedup",
                "engine.sharded.projected_eps", "engine.sharded.shards")


def host_block() -> dict:
    """Where the numbers were taken."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii",
                  errors="replace") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {"nproc": nproc, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "cpu_model": cpu}


def max_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (inputs and
    interpreter included)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux and bytes on macOS.
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def alloc_peak_mb(call):
    """Run ``call()`` under tracemalloc: ``(peak MB, its result)``.

    The peak counts only Python heap blocks allocated during the call,
    not the interpreter or the inputs generated before it, so it is the
    engine's own memory and the same from run to run.
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (1 << 20), result


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p99(values) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98]


class Tally:
    """Elements attempted and failed across one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def error(self, elements: int) -> None:
        """Count ``elements`` as failed because the current call raised."""
        self.failed += elements
        self.errors.append(traceback.format_exc())


def expected_signatures(workload, streams=None) -> dict:
    """Oracle delivery per query over ``streams`` (default: the
    workload's input), as signature multisets."""
    outcome = run_oracle(streams or workload.oracle_streams(),
                         workload.queries)
    return {name: Counter(sigs) for name, sigs in outcome.delivered.items()}


def host_scale() -> float:
    """Time the reference work: factor converting seconds measured now
    into seconds at the nominal host speed."""
    table = {}
    start = time.perf_counter()
    for i in range(REF_ITERATIONS):
        table[i & 1023] = (i, str(i & 7))
    return REF_NOMINAL_S / (time.perf_counter() - start)


def setup_times(workload, n: int) -> list[float]:
    """``n`` timed set-ups, a garbage collection before each block."""
    times = []
    for index in range(n):
        if index % SETUP_BLOCK == 0:
            gc.collect()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


# -- DSMS.run workloads ---------------------------------------------------

def rep_count(workload, seconds: float) -> int:
    """Timed repetitions in a run of ``seconds``."""
    return max(MIN_REPS, round(seconds / workload.rep_s))


def timed_run(workload, tally: Tally, **run_kwargs):
    """Set up, collect garbage, then time one ``DSMS.run``.

    Returns ``(wall_s, results, dsms)``; ``results`` maps query to
    delivered elements, or is ``None`` if the run raised.
    """
    dsms = workload.build()
    gc.collect()
    tally.attempted += workload.elements
    start = time.perf_counter()
    try:
        results = dsms.run(**run_kwargs)
    except Exception:  # noqa: BLE001 - counted as failed; the run goes on
        tally.error(workload.elements)
        return time.perf_counter() - start, None, dsms
    wall = time.perf_counter() - start
    return wall, {n: r.elements for n, r in results.items()}, dsms


class RunSeries:
    """Timed ``DSMS.run`` repetitions of one workload.

    The first output is kept for the oracle check; every later one
    must match its content checksum.
    """

    def __init__(self, workload, tally: Tally):
        self.workload, self.tally = workload, tally
        self.walls: list[float] = []
        self.first = None
        self._checksum = None

    def once(self, **run_kwargs):
        """One timed repetition; returns ``(wall, results, dsms)``."""
        wall, results, dsms = timed_run(self.workload, self.tally,
                                        **run_kwargs)
        if results is not None:
            self.walls.append(wall)
            self.verify(results)
        return wall, results, dsms

    def verify(self, results) -> None:
        """Keep the first output; count later outputs that differ."""
        if self.first is None:
            self.first = results
            self._checksum = check.fingerprint(results)
        else:
            self.tally.failed += check.fingerprint_mismatches(
                self._checksum, check.fingerprint(results))

    def alloc_pass(self) -> float:
        """One more checked run, untimed, under tracemalloc: peak MB."""
        peak, (_, results, _) = alloc_peak_mb(
            lambda: timed_run(self.workload, self.tally))
        if results is not None:
            self.verify(results)
        return peak

    @property
    def eps(self) -> list[float]:
        return [self.workload.elements / wall for wall in self.walls]


def warm_up(workload) -> None:
    for _ in range(WARMUP_RUNS):
        workload.build().run()


def measure_runs(workload, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics of a ``DSMS.run`` workload."""
    warm_up(workload)
    setups: list[float] = []
    scaled_setups: list[float] = []
    timed: list[tuple[float, int]] = []  # (wall, index of scale before)
    scales: list[float] = []
    series = RunSeries(workload, tally)
    for _ in range(rep_count(workload, seconds)):
        scales.append(host_scale())
        block = setup_times(workload, SETUP_BLOCK)
        setups += block
        scaled_setups += [t * scales[-1] for t in block]
        wall, results, _ = series.once()
        if results is not None:
            timed.append((wall, len(scales) - 1))
    scales.append(host_scale())
    # A repetition is scaled by the mean of the host speeds measured
    # right before and right after it.
    scaled_walls = [wall * (scales[i] + scales[i + 1]) / 2
                    for wall, i in timed]
    rss = max_rss_mb()
    alloc = series.alloc_pass()
    if series.first is not None:
        tally.failed += check.compare(series.first,
                                      expected_signatures(workload))
    wall, scaled = median(series.walls), median(scaled_walls)
    return {
        "metrics": {
            "throughput_eps": workload.elements / scaled if scaled else 0.0,
            "setup_s": median(scaled_setups),
            "peak_alloc_mb": alloc,
        },
        "samples": {"timed_runs": len(series.walls),
                    "setup_samples": len(setups),
                    "wall_throughput_eps": (workload.elements / wall
                                            if wall else 0.0),
                    "wall_setup_s": median(setups),
                    "run_wall_p50_s": wall,
                    "host_scale_p50": median(scales),
                    "peak_rss_mb": rss,
                    "throughput_eps_per_run": series.eps},
    }


def trace_runs(workload, seconds: float, tally: Tally, stem: str) -> dict:
    """Per-layer metrics of a ``DSMS.run`` workload.

    Untraced and traced repetitions alternate, so the tracing overhead
    compares like with like; per-layer times are medians over the
    traced repetitions.
    """
    warm_up(workload)
    overhead = tracing.wrapper_overhead()
    plain = RunSeries(workload, tally)
    traced_walls: list[float] = []
    per_rep: list[dict] = []
    recorder = None
    for _ in range(max(2, rep_count(workload, seconds) // 2)):
        plain.once()
        recorder = tracing.SpanRecorder()
        with tracing.traced(recorder):
            wall, results, dsms = timed_run(workload, tally)
        if results is None:
            break
        plain.verify(results)
        traced_walls.append(wall)
        layer = tracing.layer_metrics(recorder, overhead)
        layer.update(operator_counts(dsms.last_report.stages))
        per_rep.append(layer)
    if not per_rep:  # every traced run raised: report empty layers
        per_rep.append({**tracing.layer_metrics(tracing.SpanRecorder()),
                        **operator_counts(())})
    metrics = {key: median([rep[key] for rep in per_rep])
               for key in per_rep[0]}
    if recorder is not None:
        recorder.write_csv(OUT / f"{stem}-spans.csv")
    metrics.update(input_metrics(workload))
    metrics["bench.trace_overhead"] = (
        median(traced_walls) / median(plain.walls) - 1.0
        if plain.walls and traced_walls else 0.0)
    metrics["engine.session.lag_p99_us"] = 0.0
    if workload.name == "segment_fanout" and plain.first is not None:
        metrics.update(sharded_metrics(workload, median(plain.eps),
                                       check.fingerprint(plain.first),
                                       tally))
    else:
        metrics.update(dict.fromkeys(SHARDED_KEYS, 0))
    if plain.first is not None:
        tally.failed += check.compare(plain.first,
                                      expected_signatures(workload))
    return {"metrics": metrics,
            "samples": {"untraced_runs": len(plain.walls),
                        "traced_runs": len(traced_walls),
                        "wrapper_overhead_us": [x * 1e6 for x in overhead]}}


def sharded_metrics(workload, in_process_eps: float, reference,
                    tally: Tally) -> dict:
    """Wall clock of ``DSMS.run(shards=nproc)`` beside its projection."""
    n_shards = host_block()["nproc"]
    walls, projected = [], []
    for _ in range(SHARDED_REPS):
        wall, results, dsms = timed_run(workload, tally, shards=n_shards)
        if results is None:
            continue
        walls.append(wall)
        tally.failed += check.fingerprint_mismatches(
            reference, check.fingerprint(results))
        timing = dsms.last_report.shard_timing
        projected.append(timing["elements_in"]
                         / timing["critical_path_seconds"])
    eps = workload.elements / median(walls) if walls else 0.0
    return {
        "engine.sharded.throughput_eps": eps,
        "engine.sharded.speedup": (eps / in_process_eps
                                   if in_process_eps else 0.0),
        "engine.sharded.projected_eps": median(projected),
        "engine.sharded.shards": n_shards,
    }


# -- live session workload ------------------------------------------------

class LivePass:
    """What one pass over the live feed measured and delivered."""

    def __init__(self, n: int):
        self.latency = [0.0] * n
        self.lag = [0.0] * n
        self.results: dict = {}

    def push_times(self) -> list[float]:
        """Seconds each ``push`` call took."""
        return [done - late for done, late in zip(self.latency, self.lag)]


def open_loop(session, feed, queries, tally: Tally,
              rate: float = workloads.LIVE_RATE_EPS,
              pause=None) -> LivePass:
    """Push ``feed`` at ``rate`` elements per second on a fixed schedule.

    Element ``i`` is due at ``t0 + i / rate`` whether or not earlier
    pushes have returned.  Its latency runs from that due time to the
    return of the push that consumed it, so a stall is also charged to
    everything queued behind it.  ``lag`` is how late each push started.
    An infinite ``rate`` pushes back to back.  ``pause()``, if given,
    runs every :data:`LIVE_PAUSE_EVERY` pushes, when nothing is queued;
    the schedule then restarts, so the pause is charged to no element.
    """
    out = LivePass(len(feed))
    results = out.results = {name: [] for name in queries}
    latency, lag = out.latency, out.lag
    clock = time.perf_counter
    period = 1.0 / rate
    push = session.push
    t0 = clock() + 0.01
    for index, (stream_id, element) in enumerate(feed):
        if pause is not None and index and index % LIVE_PAUSE_EVERY == 0:
            pause()
            t0 = clock() + 0.001 - index * period
        due = t0 + index * period
        now = clock()
        while now < due:  # spin: sleep() overshoots by ~100 us
            now = clock()
        try:
            new = push(stream_id, element)
        except Exception:  # noqa: BLE001 - counted as failed
            new = {}
            tally.error(1)
        end = clock()
        latency[index] = end - due
        lag[index] = now - due
        for name, items in new.items():
            if items:
                results[name].extend(items)
    tally.attempted += len(feed)
    try:
        for name, items in session.close().items():
            results[name].extend(items)
    except Exception:  # noqa: BLE001 - counted as failed
        tally.error(1)
    return out


def live_alloc_pass(workload, feed, tally: Tally) -> float:
    """Peak MB of a set-up and a back-to-back push of the start of the
    feed, under tracemalloc; untimed, its output checked by the oracle."""
    prefix = feed[:LIVE_ALLOC_ELEMENTS]

    def run():
        _, session = workload.setup()
        return open_loop(session, prefix, workload.queries, tally,
                         rate=math.inf)
    peak, out = alloc_peak_mb(run)
    streams: dict = {stream_id: [] for stream_id in workload.streams}
    for stream_id, element in prefix:
        streams[stream_id].append(element)
    tally.failed += check.compare(out.results,
                                  expected_signatures(workload, streams))
    return peak


def live_check(workload, delivered: dict, tally: Tally) -> None:
    """Session output vs the oracle, and ``DSMS.run`` on the same feed."""
    expected = expected_signatures(workload)
    tally.failed += check.compare(delivered, expected)
    try:
        batch = {n: r.elements for n, r in workload.build().run().items()}
    except Exception:  # noqa: BLE001 - counted as failed
        tally.error(workload.elements)
    else:
        tally.failed += check.compare(batch, expected)


def live_warm_up(workload, feed) -> None:
    """Push the start of the feed through a throwaway session."""
    _, session = workload.setup()
    for stream_id, element in feed[:LIVE_WARMUP_ELEMENTS]:
        session.push(stream_id, element)
    session.close()


def measure_live(workload, tally: Tally) -> dict:
    """End-to-end metrics of ``live_health``."""
    feed = workload.feed()
    live_warm_up(workload, feed)
    setups: list[float] = []
    scaled_setups: list[float] = []
    scales: list[float] = []

    def pause(n: int = LIVE_PAUSE_SETUPS) -> None:
        scales.append(host_scale())
        block = setup_times(workload, n)
        setups.extend(block)
        scaled_setups.extend(t * scales[-1] for t in block)

    pause(SETUP_BLOCK)
    _, session = workload.setup()
    gc.collect()
    run = open_loop(session, feed, workload.queries, tally, pause=pause)
    scales.append(host_scale())
    rss = max_rss_mb()
    alloc = live_alloc_pass(workload, feed, tally)
    live_check(workload, run.results, tally)
    # Each stretch of pushes between two pauses is scaled by the mean
    # of the host speeds measured at its start and its end.
    times = run.push_times()
    scaled_push = sum(
        (scales[k] + scales[k + 1]) / 2
        * sum(times[k * LIVE_PAUSE_EVERY:(k + 1) * LIVE_PAUSE_EVERY])
        for k in range(len(scales) - 1))
    return {
        "metrics": {
            # Session capacity: elements per second spent inside push.
            "throughput_eps": len(feed) / scaled_push,
            "setup_s": median(scaled_setups),
            "peak_alloc_mb": alloc,
        },
        "samples": {"offered_rate_eps": workloads.LIVE_RATE_EPS,
                    "wall_throughput_eps": len(feed) / sum(times),
                    "wall_setup_s": median(setups),
                    "host_scale_p50": median(scales),
                    "latency_samples": len(run.latency),
                    "latency_p50_us": median(run.latency) * 1e6,
                    "latency_p99_us": p99(run.latency) * 1e6,
                    "lag_p99_us": p99(run.lag) * 1e6,
                    "setup_samples": len(setups),
                    "peak_rss_mb": rss},
    }


def trace_live(workload, tally: Tally, stem: str) -> dict:
    """Per-layer metrics of ``live_health``: one plain, one traced pass."""
    feed = workload.feed()
    live_warm_up(workload, feed)
    _, session = workload.setup()
    gc.collect()
    plain = open_loop(session, feed, workload.queries, tally)
    overhead = tracing.wrapper_overhead()
    recorder = tracing.SpanRecorder()
    with tracing.traced(recorder):
        _, session = workload.setup()
        gc.collect()
        traced = open_loop(session, feed, workload.queries, tally)
    recorder.write_csv(OUT / f"{stem}-spans.csv")
    metrics = tracing.layer_metrics(recorder, overhead)
    metrics.update(operator_counts(session.report().stages))
    metrics.update(input_metrics(workload))
    metrics["bench.trace_overhead"] = (sum(traced.push_times())
                                       / sum(plain.push_times()) - 1.0)
    metrics["engine.session.lag_p99_us"] = p99(plain.lag) * 1e6
    metrics.update(dict.fromkeys(SHARDED_KEYS, 0))
    tally.failed += check.fingerprint_mismatches(
        check.fingerprint(plain.results), check.fingerprint(traced.results))
    live_check(workload, plain.results, tally)
    return {"metrics": metrics,
            "samples": {"traced_passes": 1,
                        "wrapper_overhead_us": [x * 1e6 for x in overhead]}}


# -- per-layer counts -----------------------------------------------------

def operator_counts(stages) -> dict:
    """Operator-layer counts from ``ExecutionReport.stages``."""
    layer_of = {cls.__name__: layer
                for cls, layer in tracing.OPERATOR_LAYERS.items()}
    keys = ("tuples_in", "tuples_out", "drops", "comparisons", "state_ops")
    acc = {layer: dict.fromkeys(keys, 0) for layer in tracing.OPERATORS}
    for stage in stages:
        layer = layer_of.get(stage.kind)
        if layer is not None:
            for key in keys:
                acc[layer][key] += getattr(stage, key)
    m: dict = {}
    for layer in tracing.OPERATORS:
        for key in ("tuples_in", "tuples_out", "drops"):
            m[f"operators.{layer}.{key}"] = acc[layer][key]
    shield, join = acc["shield"], acc["join"]
    m["operators.shield.pass_ratio"] = (
        shield["tuples_out"] / shield["tuples_in"]
        if shield["tuples_in"] else 0.0)
    m["operators.join.comparisons"] = join["comparisons"]
    m["operators.join.state_ops"] = join["state_ops"]
    m["operators.join.outputs_per_comparison"] = (
        join["tuples_out"] / join["comparisons"]
        if join["comparisons"] else 0.0)
    return m


def input_metrics(workload) -> dict:
    """Analyzer-only ingest rate and input shape, untraced."""
    analyzer = workload.build().analyzer
    walls = []
    for _ in range(INGEST_REPS):
        start = time.perf_counter()
        for _, elements in workload.streams.values():
            for _ in analyzer.analyze_batched(iter(elements)):
                pass
        walls.append(time.perf_counter() - start)
    # A counting pass: sp-batches handed to the analyzer, and the tuple
    # runs the generator yields (bare tuples are runs of one).
    sp_batches = 0
    process_batch = analyzer.process_batch

    def counting(batch):
        nonlocal sp_batches
        sp_batches += 1
        return process_batch(batch)

    analyzer.process_batch = counting
    batches = runs = tuples = 0
    for _, elements in workload.streams.values():
        for item in analyzer.analyze_batched(iter(elements)):
            if type(item) is TupleBatch:
                batches += 1
                runs += 1
                tuples += len(item)
            elif not isinstance(item, SecurityPunctuation):
                runs += 1
                tuples += 1
    sps = [element for _, elements in workload.streams.values()
           for element in elements
           if isinstance(element, SecurityPunctuation)]
    distinct = {(sp.ddp.spec(), sp.srp.spec(), sp.sign) for sp in sps}
    return {
        "core.analyzer.ingest_eps": workload.elements / median(walls),
        "core.analyzer.sps_in": len(sps),
        "core.analyzer.sp_batches": sp_batches,
        "core.analyzer.distinct_sp_share": (len(distinct) / len(sps)
                                            if sps else 0.0),
        "stream.batch.batches": batches,
        "stream.batch.rows_per_batch": tuples / runs if runs else 0.0,
    }


# -- entry ----------------------------------------------------------------

def with_units(metrics: dict, trace: bool) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def measure(workload, seconds: float, trace: bool, tally: Tally,
            stem: str) -> dict:
    """``{"metrics": ..., "samples": ...}`` for one workload and mode."""
    if workload.live:
        return (trace_live(workload, tally, stem) if trace
                else measure_live(workload, tally))
    return (trace_runs(workload, seconds, tally, stem) if trace
            else measure_runs(workload, seconds, tally))


def summary(tally: Tally, metrics: dict) -> dict:
    """The result object printed as the last line of a run."""
    return {"correct": tally.failed == 0,
            "attempted": max(tally.attempted, 1),
            "failed": tally.failed,
            "metrics": metrics}


def main(args) -> int:
    """Run one workload in one mode and print the result."""
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.make(args.workload, args.seed, args.seconds)
    gc.collect()
    gc.freeze()
    tally = Tally()
    try:
        result = measure(workload, args.seconds, bool(args.trace), tally,
                         stem)
    finally:
        gc.unfreeze()
    line = summary(tally, with_units(result["metrics"], bool(args.trace)))
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_block(), "gc": GC_POLICY,
        "elements_per_run": workload.elements,
        "samples": result["samples"],
        "failed_share": line["failed"] / line["attempted"],
        "errors": tally.errors[:3],
        "metrics": line["metrics"],
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=2)
    for error in tally.errors[:3]:
        print(error, file=sys.stderr)
    counts = {k: v for k, v in result["samples"].items()
              if not isinstance(v, list)}
    print(f"host: {json.dumps(record['host'])}")
    print(f"{args.workload} seed {args.seed}: {workload.elements} "
          f"elements per run; samples {json.dumps(counts)}")
    for name, entry in line["metrics"].items():
        print(f"  {name:44s} {entry['value']:>16.6g} {entry['unit']}")
    unbounded = (("wall_throughput_eps", "1/s"), ("wall_setup_s", "s"),
                 ("latency_p50_us", "us"), ("latency_p99_us", "us"))
    for name, unit in unbounded:
        if name in result["samples"]:
            print(f"  {name + ' (no bound)':44s} "
                  f"{result['samples'][name]:>16.6g} {unit}")
    print(f"  {'failed_share':44s} {record['failed_share']:>16.6g} "
          f"({line['failed']} of {line['attempted']} elements)")
    print(json.dumps(line))
    return 0

"""Engine throughput: end-to-end DSMS execution at growing fan-out.

Measures whole-engine element throughput (sources → analyzer → shared
plan → delivery) as the number of concurrently registered queries
grows, comparing the three optimization modes (as-registered,
per-query optimized, workload-optimized), the two execution modes
(element-wise vs segment-batched) and the observability tiers (off /
metrics registry on / full monitor with audit + tracing + dashboard
rendering).

Run standalone to (re)generate ``BENCH_throughput.json`` at the repo
root — the execution-mode and observability-overhead numbers quoted in
``docs/PERFORMANCE.md``::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py

or as the CI perf regression gate (reduced workload, exit 1 if batched
execution falls below its floor over element-wise at
``tuples_per_sp=100`` with 1 or 4 queries, or at ``tuples_per_sp=1``
with 4 queries)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --perf-smoke

or as the observability-overhead gate (exit 1 if default-sampled
causal tracing costs more than 20% of untraced throughput)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --obs-smoke

or as the shard-scaling gate (exit 1 if 4 worker processes project
less than 2.5x one shard's critical-path throughput)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --shard-smoke

or as the audit-overhead gate (exit 1 if an audited run, or an audited
run plus reading the whole trail back, is slower than its budgeted
multiple of the unaudited run)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --audit-smoke

or as the UDF effect-analysis gate (strict-lints the example plan
specs, asserts the proven-pure UDF arm compiles fully vectorized and
the opaque arm does not, and requires the pure arm's batched
throughput to beat the opaque arm's)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --udf-smoke
"""

from __future__ import annotations

import pytest

from repro.algebra.expressions import ScanExpr
from repro.engine.api import OptimizeLevel
from repro.engine.dsms import DSMS
from repro.observability import AuditLog, Observability
from repro.operators.conditions import Comparison, FuncCondition
from repro.workloads.synthetic import (SYNTH_SCHEMA, punctuated_stream,
                                       role_names)

QUERY_COUNTS = (1, 4, 16)
MODES = {"plain": OptimizeLevel.NONE, "optimized": OptimizeLevel.PER_QUERY,
         "workload": OptimizeLevel.WORKLOAD}

#: The observability axis: nothing, sampled causal tracing only,
#: metrics registry only, everything (audit log + tracing + metrics +
#: live dashboard frames).
OBSERVABILITY_TIERS = ("off", "tracing", "registry", "monitor")

#: The audit axis: nothing, the audit log alone, and the audit log with
#: the whole held trail read back after every run (``list(dsms.audit)``
#: — events materialize on read, so that cost is timed, not hidden).
AUDIT_TIERS = ("off", "audit", "audit_read")

#: ``--audit-smoke`` budgets: the largest allowed slowdown (unaudited
#: over audited throughput) at tuples_per_sp=100 with 4 queries.  On a
#: 2-vCPU Xeon host with Python 3.11.7 (6,000 tuples, ~2.8 audit
#: events per element) five gate runs measured 1.43-1.50x for the
#: audit tier and 4.4-4.8x with the trail read back.
AUDIT_BUDGET = 2.0
AUDIT_READ_BUDGET = 6.5

#: ``--perf-smoke`` floors for batched over element-wise throughput at
#: tuples_per_sp=100, by query count: long runs, where batched selects
#: filter through their compiled predicate kernels.  The plain batched
#: path must hold what the removed fused columnar tier delivered: eight
#: runs of this gate's measurement (15 interleaved repeats, 6,000
#: tuples, 2-vCPU Xeon host, Python 3.11.7) put that tier at
#: 8.14-9.60x element-wise with 1 query and 13.52-17.79x with 4, and
#: the floors are those minima rounded up.
SEGMENT_BATCHED_MIN = {1: 8.2, 4: 13.6}

#: ``--perf-smoke`` floor for batched over element-wise throughput at
#: tuples_per_sp=1 with 4 queries (segment envelopes).  On a 2-vCPU Xeon
#: host with Python 3.11.7 (6,000 tuples) five gate runs measured
#: 1.54-1.61x; before envelopes the ratio was 0.91x.
SP_DENSE_BATCHED_MIN = 1.3


def _make_observability(tier: str) -> Observability:
    if tier == "off":
        return Observability.disabled()
    if tier == "tracing":
        # Default head-sampling rate; drops/denials are kept anyway.
        return Observability.with_tracing()
    if tier == "registry":
        return Observability.with_metrics()
    if tier in ("audit", "audit_read"):
        return Observability(audit=AuditLog())
    return Observability.in_memory()


def _after_run(tier: str, dsms: DSMS) -> None:
    """Per-run work a tier includes in its timing."""
    if tier == "monitor":
        _render_monitor_frame(dsms)
    elif tier == "audit_read":
        list(dsms.audit)


def build_dsms(n_queries: int, elements, *,
               observability: Observability | None = None,
               threshold: float = 100.0) -> DSMS:
    dsms = (DSMS() if observability is None
            else DSMS(observability=observability))
    dsms.register_stream(SYNTH_SCHEMA, elements)
    base = ScanExpr("synthetic").select(Comparison("x", ">", threshold))
    for index, role in enumerate(role_names(n_queries, prefix="qr")):
        dsms.register_query(f"q{index}", base, roles={role, "q_role"})
    return dsms


# -- UDF axis: provable vs opaque arms with identical semantics --------------

def _udf_pure(t):
    """The analyzer's provable fragment: reads {x}, pure, deterministic."""
    return t.get("x", 0.0) > 100.0


#: Dispatch table the opaque arm routes through.  Same predicate, but a
#: mutable-global indirection the bytecode scan cannot resolve, so its
#: determinism proof stays UNKNOWN and the compiler keeps the row stage
#: (fail-closed — exactly what this axis measures the cost of).
_UDF_DISPATCH = {"x": _udf_pure}


def _udf_opaque(t):
    """Same predicate as :func:`_udf_pure` behind unprovable dispatch."""
    return _UDF_DISPATCH["x"](t)


def build_udf_dsms(n_queries: int, elements, fn, label: str) -> DSMS:
    """A DSMS whose query predicate is a declared-read-set UDF."""
    dsms = DSMS()
    dsms.register_stream(SYNTH_SCHEMA, elements)
    base = ScanExpr("synthetic").select(
        FuncCondition(fn, ("x",), label=label))
    for index, role in enumerate(role_names(n_queries, prefix="qr")):
        dsms.register_query(f"q{index}", base, roles={role, "q_role"})
    return dsms


@pytest.fixture(scope="module")
def elements(bench_tuples):
    return list(punctuated_stream(
        bench_tuples, tuples_per_sp=10, policy_size=3,
        accessible_fraction=0.6, seed=61))


#: The execution-mode axis: batching per id.
EXECUTION_MODES = {"unbatched": False, "batched": True}


@pytest.mark.parametrize("n_queries", QUERY_COUNTS)
@pytest.mark.parametrize("execution", sorted(EXECUTION_MODES))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_engine_throughput(benchmark, elements, mode, execution, n_queries):
    optimize = MODES[mode]
    batching = EXECUTION_MODES[execution]
    dsms = build_dsms(n_queries, elements)

    def once():
        return dsms.run(optimize=optimize, batching=batching)

    results = benchmark(once)
    total_out = sum(len(r.tuples) for r in results.values())
    benchmark.extra_info["n_queries"] = n_queries
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["execution"] = execution
    benchmark.extra_info["tuples_delivered"] = total_out
    benchmark.extra_info["elements_in"] = (
        dsms.last_report.elements_in if dsms.last_report else 0)


@pytest.mark.parametrize("tier", OBSERVABILITY_TIERS)
def test_observability_overhead(benchmark, elements, tier):
    """Throughput cost of each observability tier (batched, 4 queries)."""
    dsms = build_dsms(4, elements, observability=_make_observability(tier))

    def once():
        results = dsms.run(batching=True)
        if tier == "monitor":
            _render_monitor_frame(dsms)
        return results

    results = benchmark(once)
    benchmark.extra_info["tier"] = tier
    benchmark.extra_info["tuples_delivered"] = sum(
        len(r.tuples) for r in results.values())


def _render_monitor_frame(dsms: DSMS) -> None:
    """One dashboard frame into a throwaway buffer (monitor tier)."""
    from repro.observability.health import HealthMonitor
    from repro.observability.monitor import MonitorView, run_monitor

    instruments = dsms.observability.instruments
    assert instruments is not None
    report = dsms.last_report
    view = MonitorView(
        instruments,
        stages=(lambda: report.stages) if report else None,
        health=HealthMonitor(instruments,
                             tracer=dsms.observability.tracer))
    frames: list[str] = []
    run_monitor(view, frames=1, interval=0, clear=False,
                write=frames.append)


# -- standalone batched-vs-unbatched measurement -----------------------------

def _measure(n_queries: int, tuples_per_sp: int, n_tuples: int,
             batching: bool, repeats: int = 3, *,
             tier: str = "off") -> dict:
    """Best-of-``repeats`` element throughput for one configuration."""
    import time

    elements = list(punctuated_stream(
        n_tuples, tuples_per_sp=tuples_per_sp, policy_size=3,
        accessible_fraction=0.6, seed=61))
    dsms = build_dsms(n_queries, elements,
                      observability=_make_observability(tier))
    best = float("inf")
    elements_in = 0
    for _ in range(repeats):
        start = time.perf_counter()
        dsms.run(batching=batching)
        if tier == "monitor":
            _render_monitor_frame(dsms)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        elements_in = dsms.last_report.elements_in
    return {
        "elements_in": elements_in,
        "best_seconds": round(best, 6),
        "elements_per_second": round(elements_in / best, 1),
    }


def _measure_tiers(n_queries: int, tuples_per_sp: int, n_tuples: int,
                   tiers, *, inner: int = 4, rounds: int = 10) -> dict:
    """Interleaved amortized CPU-time best-of for observability tiers.

    Single-run wall-clock timing cannot resolve few-percent overheads
    on a shared box: scheduler noise alone moves ~6ms runs by ±20%.
    Each sample therefore times ``inner`` back-to-back runs on the
    process CPU clock (``time.process_time`` — immune to sleeps and
    other tenants) and takes the per-run mean; tiers are interleaved
    every round so they sample the same thermal/load windows, and the
    minimum over rounds estimates the noise-free cost.
    """
    import time

    elements = list(punctuated_stream(
        n_tuples, tuples_per_sp=tuples_per_sp, policy_size=3,
        accessible_fraction=0.6, seed=61))
    engines = {tier: build_dsms(n_queries, elements,
                                observability=_make_observability(tier))
               for tier in tiers}
    for dsms in engines.values():
        dsms.run(batching=True)  # warm caches and plan compilation
    best = {tier: float("inf") for tier in tiers}
    elements_in = {tier: 0 for tier in tiers}
    for _ in range(rounds):
        for tier, dsms in engines.items():
            start = time.process_time()
            for _ in range(inner):
                dsms.run(batching=True)
                _after_run(tier, dsms)
            best[tier] = min(best[tier],
                             (time.process_time() - start) / inner)
            elements_in[tier] = dsms.last_report.elements_in
    out = {
        tier: {
            "elements_in": elements_in[tier],
            "best_cpu_seconds": round(best[tier], 6),
            "elements_per_second": round(elements_in[tier] / best[tier], 1),
        }
        for tier in tiers
    }
    base = out["off"]["elements_per_second"]
    for tier in tiers:
        eps = out[tier]["elements_per_second"]
        out[tier]["overhead_vs_off"] = round(
            (base - eps) / base if base else 0.0, 4)
        out[tier]["slowdown_vs_off"] = round(base / eps if eps else 0.0,
                                             3)
    return out


def _measure_modes(n_queries: int, tuples_per_sp: int, n_tuples: int,
                   repeats: int = 9) -> dict:
    """Interleaved best-of measurement of the two execution modes.

    One repetition runs unbatched and batched back to back and only
    then repeats — so every mode samples the same thermal /
    load windows.  Sequential per-mode best-of systematically favors
    whichever configuration happened to run while the box was quiet.
    """
    import time

    elements = list(punctuated_stream(
        n_tuples, tuples_per_sp=tuples_per_sp, policy_size=3,
        accessible_fraction=0.6, seed=61))
    engines = {key: build_dsms(n_queries, elements)
               for key in EXECUTION_MODES}
    best = {key: float("inf") for key in EXECUTION_MODES}
    elements_in = {key: 0 for key in EXECUTION_MODES}
    for _ in range(repeats):
        for key, batching in EXECUTION_MODES.items():
            dsms = engines[key]
            start = time.perf_counter()
            dsms.run(batching=batching)
            elapsed = time.perf_counter() - start
            best[key] = min(best[key], elapsed)
            elements_in[key] = dsms.last_report.elements_in
    return {
        key: {
            "elements_in": elements_in[key],
            "best_seconds": round(best[key], 6),
            "elements_per_second": round(elements_in[key] / best[key], 1),
        }
        for key in EXECUTION_MODES
    }


#: Shard counts measured on the scaling axis.
SHARD_COUNTS = (1, 2, 4)

#: Estimator note published with the shard-scaling numbers.
SHARD_ESTIMATOR = (
    "projected critical-path throughput: elements_in / (partition + "
    "collect + merge + suffix + max worker CPU), all on process-CPU "
    "clocks, best over interleaved rounds.  Worker CPU times accrue "
    "in parallel on a multi-core host while the coordinator phases "
    "are serial, so the critical path is what a dedicated-core "
    "deployment executes end to end — wall clock on a shared "
    "single-core box cannot show a multi-process speedup.")


def _measure_sharded(n_queries: int, tuples_per_sp: int, n_tuples: int,
                     *, threshold: float = 100.0,
                     shard_counts=SHARD_COUNTS, rounds: int = 4) -> dict:
    """Projected multi-core scaling of the partitioned executor.

    Every ``DSMS.run(shards=N)`` records a ``shard_timing`` breakdown
    on process-CPU clocks; see :data:`SHARD_ESTIMATOR` for how the
    critical path is assembled from it.  Shard counts are interleaved
    every round (same rationale as ``_measure_tiers``) and the best
    round per count is kept.
    """
    elements = list(punctuated_stream(
        n_tuples, tuples_per_sp=tuples_per_sp, policy_size=3,
        accessible_fraction=0.6, seed=61))
    engines = {n: build_dsms(n_queries, elements, threshold=threshold)
               for n in shard_counts}
    best: dict = {n: None for n in shard_counts}
    for _ in range(rounds):
        for n, dsms in engines.items():
            dsms.run(shards=n)
            timing = dsms.last_report.shard_timing
            if (best[n] is None
                    or timing["critical_path_seconds"]
                    < best[n]["critical_path_seconds"]):
                best[n] = dict(timing)
    out: dict = {}
    for n in shard_counts:
        timing = best[n]
        critical = timing["critical_path_seconds"]
        serial = (timing["partition_seconds"]
                  + timing["collect_seconds"]
                  + timing["merge_seconds"]
                  + timing["suffix_cpu_seconds"])
        out[f"shards{n}"] = {
            "elements_in": timing["elements_in"],
            "critical_path_seconds": round(critical, 6),
            "serial_seconds": round(serial, 6),
            "max_worker_cpu_seconds": round(
                timing["max_worker_cpu_seconds"], 6),
            "projected_elements_per_second": round(
                timing["elements_in"] / critical, 1),
        }
    base = out[f"shards{shard_counts[0]}"][
        "projected_elements_per_second"]
    for n in shard_counts:
        eps = out[f"shards{n}"]["projected_elements_per_second"]
        out[f"shards{n}"]["speedup_vs_one_shard"] = round(
            eps / base if base else 0.0, 2)
    return out


def main(out_path: str = "BENCH_throughput.json",
         n_tuples: int = 20_000) -> dict:
    import json

    report: dict = {
        "benchmark": "element_wise_vs_batched_throughput",
        "workload": {
            "n_tuples": n_tuples,
            "policy_size": 3,
            "accessible_fraction": 0.6,
            "seed": 61,
            "query": "select(x > 100) + per-query security shield",
        },
        "configs": [],
    }
    for tuples_per_sp in (1, 10, 100):
        for n_queries in (1, 4):
            row = {"tuples_per_sp": tuples_per_sp, "n_queries": n_queries}
            # sp-dense rows need more samples: the mode deltas there
            # are a few percent, below a noisy box's run-to-run spread.
            row.update(_measure_modes(
                n_queries, tuples_per_sp, n_tuples,
                repeats=15 if tuples_per_sp == 1 else 9))
            base = row["unbatched"]["elements_per_second"]
            row["speedup"] = round(
                row["batched"]["elements_per_second"] / base, 2)
            report["configs"].append(row)
            print(f"tuples_per_sp={tuples_per_sp:>3} n_queries={n_queries}: "
                  f"unbatched={row['unbatched']['elements_per_second']:>9,.0f}"
                  f" batched={row['batched']['elements_per_second']:>9,.0f}"
                  f" elem/s  speedup={row['speedup']:.2f}x")

    # -- observability overhead axis (batched, 4 queries) ------------------
    # Measured at tuples_per_sp=100: the long-run high-throughput regime,
    # where per-decision observability cost is most visible relative to
    # the engine's own work.  CPU-time estimator — see _measure_tiers.
    observability: dict = {
        "workload": {"tuples_per_sp": 100, "n_queries": 4,
                     "batching": True,
                     "estimator": "min over interleaved rounds of mean "
                                  "process CPU time per run"},
        "tiers": _measure_tiers(4, 100, n_tuples, OBSERVABILITY_TIERS),
    }
    for tier in OBSERVABILITY_TIERS:
        entry = observability["tiers"][tier]
        print(f"observability={tier:>8}: "
              f"{entry['elements_per_second']:>9,.0f} elem/s  "
              f"overhead={entry['overhead_vs_off']:+.1%}")
    # Worst case for the always-kept denial provenance: sp-dense
    # segments (1 sp / 10 tuples) emit ~10x the drop records per
    # element, so tail-based keep dominates the tracing cost there.
    observability["sp_dense_tracing"] = {
        "workload": {"tuples_per_sp": 10, "n_queries": 4,
                     "batching": True},
        "tiers": _measure_tiers(4, 10, n_tuples, ("off", "tracing")),
    }
    dense = observability["sp_dense_tracing"]["tiers"]["tracing"]
    print(f"sp-dense tracing (1 sp / 10 tuples): "
          f"{dense['elements_per_second']:>9,.0f} elem/s  "
          f"overhead={dense['overhead_vs_off']:+.1%}")
    report["observability"] = observability

    # -- audit axis (batched, 4 queries, tuples_per_sp=100) ---------------
    audit = _measure_tiers(4, 100, n_tuples, AUDIT_TIERS)
    report["audit"] = {
        "workload": observability["workload"],
        "tiers": audit,
        "max_slowdown": {"audit": AUDIT_BUDGET,
                         "audit_read": AUDIT_READ_BUDGET},
    }
    for tier in AUDIT_TIERS[1:]:
        print(f"audit tier={tier:>10}: "
              f"{audit[tier]['elements_per_second']:>9,.0f} elem/s  "
              f"slowdown={audit[tier]['slowdown_vs_off']:.2f}x")

    # -- shard-scaling axis (partitioned multi-core executor) --------------
    # Two regimes at tuples_per_sp=100.  The showcase is high query
    # fan-out with a selective predicate — many per-role queries over
    # one stream is where a single process saturates first, and little
    # output ships back.  The delivery-heavy row keeps the canonical
    # select(x > 100): most tuples are delivered to every sink, so
    # serial result collection bounds the speedup — the regime where
    # sharding does NOT pay (see docs/PERFORMANCE.md).
    sharding: dict = {
        "estimator": SHARD_ESTIMATOR,
        "fanout": {
            "workload": {"tuples_per_sp": 100, "n_queries": 32,
                         "n_tuples": 5 * n_tuples,
                         "query": "select(x > 900) + per-query shield"},
            "scaling": _measure_sharded(32, 100, 5 * n_tuples,
                                        threshold=900.0),
        },
        "delivery_heavy": {
            "workload": {"tuples_per_sp": 100, "n_queries": 16,
                         "n_tuples": 2 * n_tuples,
                         "query": "select(x > 100) + per-query shield"},
            "scaling": _measure_sharded(16, 100, 2 * n_tuples,
                                        threshold=100.0),
        },
    }
    for regime in ("fanout", "delivery_heavy"):
        scaling = sharding[regime]["scaling"]
        line = "  ".join(
            f"{n}sh={scaling[f'shards{n}']['projected_elements_per_second']:,.0f}"
            f" ({scaling[f'shards{n}']['speedup_vs_one_shard']:.2f}x)"
            for n in SHARD_COUNTS)
        print(f"sharding {regime:>14}: {line} elem/s projected")
    report["sharding"] = sharding

    # -- UDF effect-analysis axis (proven-pure vs opaque predicate) --------
    # Same workload shape as the canonical select(x > 100), but the
    # predicate is a FuncCondition: the pure arm is in the analyzer's
    # provable fragment (read-set {x}, purity/determinism PROVEN) so
    # the compiler hands batched Select a bulk kernel for it; the
    # opaque arm routes the identical predicate through a mutable
    # dispatch table, its proof stays UNKNOWN, and the compiled
    # predicate keeps it as a row stage — fail-closed, and this is its
    # price.
    pure_vec, opaque_vec = _udf_vectorization()
    udf_modes = _measure_udf(1, 100, n_tuples)
    udf_axis: dict = {
        "workload": {"tuples_per_sp": 100, "n_queries": 1,
                     "query": "select(udf) + per-query shield"},
        "pure_fully_vectorized": pure_vec,
        "opaque_fully_vectorized": opaque_vec,
        "modes": udf_modes,
        "pure_vs_opaque_batched": round(
            udf_modes["pure_batched"]["elements_per_second"]
            / udf_modes["opaque_batched"]["elements_per_second"], 2),
    }
    print(f"udf axis: pure batched="
          f"{udf_modes['pure_batched']['elements_per_second']:,.0f} "
          f"opaque batched="
          f"{udf_modes['opaque_batched']['elements_per_second']:,.0f}"
          f" elem/s  proven-pure speedup="
          f"{udf_axis['pure_vs_opaque_batched']:.2f}x")
    report["udf"] = udf_axis
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path}")
    return report


#: UDF-axis arms: the callable per id (both run batched).
_UDF_ARMS = {"pure_batched": _udf_pure, "opaque_batched": _udf_opaque}


def _measure_udf(n_queries: int, tuples_per_sp: int, n_tuples: int,
                 repeats: int = 9) -> dict:
    """Interleaved best-of over the UDF arms.

    ``pure_batched`` runs a *proven-pure* UDF predicate through its
    bulk kernel; ``opaque_batched`` shows the fail-closed row-stage
    fallback an unprovable UDF pays on the same path.  Arms interleave
    per repetition so they sample the same thermal/load windows (see
    :func:`_measure_modes`).
    """
    import time

    elements = list(punctuated_stream(
        n_tuples, tuples_per_sp=tuples_per_sp, policy_size=3,
        accessible_fraction=0.6, seed=61))
    engines = {key: build_udf_dsms(n_queries, elements, fn,
                                   key.split("_")[0])
               for key, fn in _UDF_ARMS.items()}
    best = {key: float("inf") for key in _UDF_ARMS}
    elements_in = {key: 0 for key in _UDF_ARMS}
    for _ in range(repeats):
        for key in _UDF_ARMS:
            dsms = engines[key]
            start = time.perf_counter()
            dsms.run(batching=True)
            elapsed = time.perf_counter() - start
            best[key] = min(best[key], elapsed)
            elements_in[key] = dsms.last_report.elements_in
    return {
        key: {
            "elements_in": elements_in[key],
            "best_seconds": round(best[key], 6),
            "elements_per_second": round(elements_in[key] / best[key], 1),
        }
        for key in _UDF_ARMS
    }


def _udf_vectorization() -> "tuple[bool, bool]":
    """(pure arm fully vectorized?, opaque arm fully vectorized?)."""
    from repro.operators.compiler import compile_condition

    pure = compile_condition(FuncCondition(_udf_pure, ("x",), label="pure"))
    opaque = compile_condition(
        FuncCondition(_udf_opaque, ("x",), label="opaque"))
    return pure.fully_vectorized, opaque.fully_vectorized


def udf_smoke(n_tuples: int = 6_000) -> int:
    """CI gate for the UDF effect-analysis axis.

    Structure first: every example plan spec must lint clean under the
    strict policy (any analyzer error fails the gate), the provable
    UDF arm must compile fully vectorized, and the opaque arm must
    *not* (fail-closed).  Then the perf gate: at ``tuples_per_sp=100``
    the batched proven-pure UDF select must beat the batched opaque one
    (the same predicate behind unprovable dispatch) — the analyzer's
    proofs must buy the fast path, not merely permit it.  Returns a
    process exit code (0 ok, 1 regression).
    """
    from pathlib import Path

    from repro.analysis import lint_file

    plans = sorted((Path(__file__).resolve().parent.parent
                    / "examples" / "plans").glob("*.json"))
    for plan in plans:
        errors = lint_file(str(plan)).errors
        if errors:
            print(f"udf-smoke: {plan.name} fails strict lint:")
            for diagnostic in errors:
                print(f"  {diagnostic}")
            return 1
    print(f"udf-smoke: {len(plans)} example plan(s) lint clean")

    pure_vec, opaque_vec = _udf_vectorization()
    if not pure_vec:
        print("UDF REGRESSION: proven-pure UDF predicate no longer "
              "compiles fully vectorized")
        return 1
    if opaque_vec:
        print("UDF SOUNDNESS REGRESSION: opaque UDF predicate compiled "
              "to a bulk kernel without a purity proof")
        return 1
    print("udf-smoke: pure arm vectorized, opaque arm row-stage (ok)")

    modes = _measure_udf(1, 100, n_tuples, repeats=7)
    p_eps = modes["pure_batched"]["elements_per_second"]
    o_eps = modes["opaque_batched"]["elements_per_second"]
    ratio = p_eps / o_eps if o_eps else 0.0
    print(f"udf-smoke tuples_per_sp=100: pure batched={p_eps:,.0f} "
          f"opaque batched={o_eps:,.0f} elem/s  ratio={ratio:.2f}x")
    if p_eps <= o_eps:
        print("UDF PERF REGRESSION: proven-pure UDF select no faster "
              "than the opaque one")
        return 1
    print("udf-smoke OK")
    return 0


def perf_smoke(n_tuples: int = 6_000) -> int:
    """CI regression gate for batched execution (reduced workload).

    At ``tuples_per_sp=100`` — long segment runs, where batched selects
    filter through their compiled predicate kernels — batched
    throughput must hold :data:`SEGMENT_BATCHED_MIN` times element-wise
    with 1 and with 4 queries.  At ``tuples_per_sp=1`` with 4 queries
    it must hold :data:`SP_DENSE_BATCHED_MIN` times element-wise.
    Returns a process exit code (0 ok, 1 regression) so CI can run
    ``--perf-smoke`` directly.
    """
    for n_queries, floor in SEGMENT_BATCHED_MIN.items():
        modes = _measure_modes(n_queries, 100, n_tuples, repeats=15)
        ratio = (modes["batched"]["elements_per_second"]
                 / modes["unbatched"]["elements_per_second"])
        print(f"perf-smoke tuples_per_sp=100 n_queries={n_queries}: "
              f"unbatched={modes['unbatched']['elements_per_second']:,.0f}"
              f" batched={modes['batched']['elements_per_second']:,.0f}"
              f" elem/s  ratio={ratio:.2f}x (floor {floor}x)")
        if ratio < floor:
            print(f"PERF REGRESSION: batched execution below {floor}x "
                  f"element-wise at sp:tuple 1/100 with {n_queries} "
                  "queries")
            return 1
    # The paper's weakest point (Fig 7a, sp:tuple 1/1) with a shared
    # plan: each sp rides in the one-tuple envelope it opens and is
    # resolved once for every shield, so batching must beat
    # element-wise execution there too.
    dense = _measure_modes(4, 1, n_tuples, repeats=9)
    d_ratio = (dense["batched"]["elements_per_second"]
               / dense["unbatched"]["elements_per_second"])
    print(f"perf-smoke tuples_per_sp=1 n_queries=4: "
          f"unbatched={dense['unbatched']['elements_per_second']:,.0f} "
          f"batched={dense['batched']['elements_per_second']:,.0f}"
          f" elem/s  ratio={d_ratio:.2f}x")
    if d_ratio < SP_DENSE_BATCHED_MIN:
        print(f"PERF REGRESSION: batched execution below "
              f"{SP_DENSE_BATCHED_MIN}x element-wise at sp:tuple 1/1")
        return 1
    print("perf-smoke OK")
    return 0


def shard_smoke(n_tuples: int = 100_000,
                min_speedup: float = 2.5) -> int:
    """CI gate on the shard-scaling axis.

    Four workers must project at least ``min_speedup`` times one
    shard's throughput on the fan-out workload at ``tuples_per_sp=100``
    (critical-path estimator — see :data:`SHARD_ESTIMATOR`; the
    projection uses per-process CPU clocks, so it is stable on
    oversubscribed CI boxes).  Returns a process exit code.
    """
    scaling = _measure_sharded(32, 100, n_tuples, threshold=900.0,
                               shard_counts=(1, 4), rounds=3)
    speedup = scaling["shards4"]["speedup_vs_one_shard"]
    one = scaling["shards1"]["projected_elements_per_second"]
    four = scaling["shards4"]["projected_elements_per_second"]
    print(f"shard-smoke tuples_per_sp=100 n_queries=32: "
          f"1 shard={one:,.0f}  4 shards={four:,.0f} elem/s projected"
          f"  speedup={speedup:.2f}x (gate {min_speedup:.1f}x)")
    if speedup < min_speedup:
        print("SHARD SCALING REGRESSION: 4 workers below the "
              f"{min_speedup:.1f}x projected-speedup gate")
        return 1
    print("shard-smoke OK")
    return 0


def obs_smoke(n_tuples: int = 6_000, threshold: float = 0.20) -> int:
    """CI gate on causal-tracing overhead (reduced workload).

    Interleaved amortized CPU-time comparison (see ``_measure_tiers``)
    of the ``off`` and ``tracing`` observability tiers at
    ``tuples_per_sp=100`` — the long-run high-throughput regime.  The
    default head-sampled tracer must cost less than ``threshold`` of
    untraced throughput — the paper-facing budget is 15%; the gate
    allows 20% for noisy CI boxes.  Returns a process exit code
    (0 ok, 1 over budget).
    """
    tiers = _measure_tiers(4, 100, n_tuples, ("off", "tracing"),
                           inner=8, rounds=8)
    off_eps = tiers["off"]["elements_per_second"]
    traced_eps = tiers["tracing"]["elements_per_second"]
    overhead = tiers["tracing"]["overhead_vs_off"]
    print(f"obs-smoke tuples_per_sp=100: off={off_eps:,.0f} "
          f"tracing={traced_eps:,.0f} elem/s  overhead={overhead:+.1%} "
          f"(budget {threshold:.0%})")
    if overhead > threshold:
        print("OBSERVABILITY REGRESSION: sampled causal tracing over "
              "its overhead budget")
        return 1
    print("obs-smoke OK")
    return 0


def audit_smoke(n_tuples: int = 6_000) -> int:
    """CI gate on audit-log overhead (reduced workload).

    Interleaved amortized CPU-time comparison (see ``_measure_tiers``)
    at ``tuples_per_sp=100`` with 4 queries: the audited run may be at
    most :data:`AUDIT_BUDGET` times slower than the unaudited run, and
    the audited run plus ``list(dsms.audit)`` at most
    :data:`AUDIT_READ_BUDGET` times.  Returns a process exit code.
    """
    tiers = _measure_tiers(4, 100, n_tuples, AUDIT_TIERS,
                           inner=8, rounds=8)
    failed = False
    for tier, budget in (("audit", AUDIT_BUDGET),
                         ("audit_read", AUDIT_READ_BUDGET)):
        slowdown = tiers[tier]["slowdown_vs_off"]
        print(f"audit-smoke {tier:>10}: "
              f"{tiers[tier]['elements_per_second']:,.0f} elem/s vs "
              f"off={tiers['off']['elements_per_second']:,.0f}  "
              f"slowdown={slowdown:.2f}x (budget {budget:.1f}x)")
        if slowdown > budget:
            print(f"AUDIT REGRESSION: {tier} over its overhead budget")
            failed = True
    if failed:
        return 1
    print("audit-smoke OK")
    return 0


if __name__ == "__main__":
    import sys

    if "--perf-smoke" in sys.argv:
        raise SystemExit(perf_smoke())
    if "--obs-smoke" in sys.argv:
        raise SystemExit(obs_smoke())
    if "--audit-smoke" in sys.argv:
        raise SystemExit(audit_smoke())
    if "--shard-smoke" in sys.argv:
        raise SystemExit(shard_smoke())
    if "--udf-smoke" in sys.argv:
        raise SystemExit(udf_smoke())
    main()

"""Perf-trend record and regression gate.

This benchmark measures the repo's headline serving and kernel figures
— warm-hit latency quantiles (from the serving telemetry histograms,
not a side stopwatch), replay throughput, and the bitmap counting-kernel
speedup — and commits them as a
``BENCH_10.json`` trend record at the repo root
(:mod:`repro.bench.trend`).  PR 10 adds the multi-tenant query
server's load figure: a 10k-query, 8-client-thread HTTP replay of
interleaved tenant refinement sessions against an in-process
:mod:`repro.serve.server`, with end-to-end p50/p99/throughput — and
hard assertions that the concurrency machinery actually engaged
(single-flight dedup hits > 0, a coalesced batch wider than 1).

The gate then compares the fresh record against the newest prior
``BENCH_*.json``: any shared metric that moves the wrong way by more
than 20% fails the run.  Metrics new to this record (the ``server_*``
line) have no prior — they pass through and become the baseline the
*next* benchmark PR is judged against.
"""

import statistics
import time
from itertools import combinations
from pathlib import Path

from repro.bench.trend import TrendRecord, gate
from repro.datagen.workloads import fig8a_workload, quickstart_workload
from repro.mining.backends import BitmapBackend, HybridBackend
from repro.serve import QueryServer, QueryService, start_server
from repro.serve.replay import replay, session_requests, summarize

REPO_ROOT = Path(__file__).resolve().parent.parent
TREND_PATH = REPO_ROOT / "BENCH_10.json"
TREND_LABEL = "PR10-concurrent-server"

REPLAY_QUERIES = 10_000
REPLAY_TRANSACTIONS = 600
KERNEL_TRANSACTIONS = 6_000
KERNEL_REPS = 3
SERVER_QUERIES = 10_000
SERVER_THREADS = 8


def _warm_replay_metrics():
    """Warm-hit p50/p99 and qps on a 10k-query replay, read from the
    service's own telemetry — the trend gates the instrumented figures
    users actually see in ``repro stats``, not a parallel stopwatch."""
    workload = quickstart_workload(n_transactions=REPLAY_TRANSACTIONS)
    cfq = workload.cfq()
    service = QueryService()
    cold = service.execute(workload.db, cfq)
    assert cold.cache_info["source"] == "cold"

    start = time.perf_counter()
    for __ in range(REPLAY_QUERIES):
        warm = service.execute(workload.db, cfq)
    wall = time.perf_counter() - start
    assert warm.cache_info["source"] == "result-cache"

    latency = service.telemetry.outcome_latencies()["warm-memory"]
    assert latency["count"] == REPLAY_QUERIES
    return {
        "warm_hit_p50_seconds": latency["p50"],
        "warm_hit_p99_seconds": latency["p99"],
        "replay_qps": REPLAY_QUERIES / wall,
    }


def _bitmap_count_speedup():
    """Median counting-only speedup of the bitmap kernel over the serial
    hybrid on one warm, counting-bound level-2 batch (the
    ``test_backend_ablation`` guard at trend scale)."""
    workload = fig8a_workload(
        50.0, n_transactions=KERNEL_TRANSACTIONS, n_items=600
    )
    transactions = workload.db.transactions
    min_count = workload.db.min_count(0.010)
    universe = sorted({item for t in transactions for item in t})
    hybrid = HybridBackend()
    singles = hybrid.count(transactions, [(i,) for i in universe], 1)
    frequent = [item for (item,), s in singles.items() if s >= min_count]
    candidates = list(combinations(frequent, 2))

    medians = {}
    reference = None
    for name, backend in (("hybrid", hybrid), ("bitmap", BitmapBackend())):
        backend.count(transactions, candidates, 2)  # warm-up / matrix pack
        timings = []
        for __ in range(KERNEL_REPS):
            start = time.perf_counter()
            support = backend.count(transactions, candidates, 2)
            timings.append(time.perf_counter() - start)
        if reference is None:
            reference = support
        else:
            assert support == reference
        medians[name] = statistics.median(timings)
    return medians["hybrid"] / medians["bitmap"]


def _server_replay_metrics():
    """End-to-end load figure for the multi-tenant query server: 10k
    requests over 8 persistent client connections, interleaved tenant
    refinement sessions (``min_step=1`` — step 0's megabyte answers
    measure payload shuffling, not serving).  The report must show the
    sharing machinery engaged, not just that the server survived."""
    workload = quickstart_workload(n_transactions=REPLAY_TRANSACTIONS)
    core = QueryServer(
        QueryService(telemetry=True), workload.db, workload.domains
    )
    requests = session_requests(
        workload, SERVER_QUERIES, steps=4, min_step=1
    )
    with start_server(core, port=0, workers=SERVER_THREADS) as handle:
        start = time.perf_counter()
        outcomes = replay(handle.url, requests, threads=SERVER_THREADS)
        report = summarize(outcomes, time.perf_counter() - start)

    assert report.n_ok == SERVER_QUERIES, report.as_dict()
    assert report.dedup_responses > 0, "single-flight never deduped"
    assert report.coalesce_max_width > 1, "no batch ever coalesced"
    return report


def test_trend_record_and_gate():
    record = TrendRecord(label=TREND_LABEL)
    record.meta["replay_queries"] = REPLAY_QUERIES
    record.meta["replay_transactions"] = REPLAY_TRANSACTIONS

    replay = _warm_replay_metrics()
    record.add("warm_hit_p50_seconds", replay["warm_hit_p50_seconds"],
               unit="s", direction="lower")
    record.add("warm_hit_p99_seconds", replay["warm_hit_p99_seconds"],
               unit="s", direction="lower")
    record.add("replay_qps", replay["replay_qps"],
               unit="1/s", direction="higher")
    # The kernel speedup is a ratio of an interpreter-bound loop to a
    # memory-bandwidth-bound kernel; across container placements the
    # same commit has measured anywhere from ~5.4x to ~9.1x, so the
    # metric declares a wide noise band (a *real* kernel regression
    # shows up as the ratio collapsing toward 1, far past this).
    record.add("bitmap_count_speedup", _bitmap_count_speedup(),
               direction="higher", noise=0.5)

    server = _server_replay_metrics()
    record.meta["server_queries"] = SERVER_QUERIES
    record.meta["server_threads"] = SERVER_THREADS
    record.meta["server_replay"] = server.as_dict()
    record.add("server_p50_seconds", server.p50, unit="s",
               direction="lower")
    record.add("server_p99_seconds", server.p99, unit="s",
               direction="lower")
    record.add("server_qps", server.qps, unit="1/s", direction="higher")

    record.write(str(TREND_PATH))
    print(f"\ntrend record written to {TREND_PATH}:")
    for name, metric in sorted(record.metrics.items()):
        unit = f" {metric.unit}" if metric.unit else ""
        print(f"  {name} = {metric.value:g}{unit} ({metric.direction} "
              "is better)")

    regressions, prior_path = gate(str(TREND_PATH))
    if prior_path is None:
        print("no prior BENCH_*.json — first record, gate soft-passes")
        return
    assert not regressions, "\n".join(
        [f"regressed vs {prior_path}:"]
        + [f"  {r.describe()}" for r in regressions]
    )
    print(f"gate vs {prior_path}: all shared metrics within 20%")

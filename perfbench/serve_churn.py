"""Workload ``serve-churn``: serving while the dataset changes.

One in-process caller drives ``QueryServer.apply_delta`` and
``QueryServer.handle_query`` over a 20k-transaction Quest dataset.
Set-up builds the server and warms the frequency skeleton with
``QueryService.prepare``.  Each step applies one delta, alternately an
append and a delete of 1% of the transactions, then asks every session
query once on the new version.  Those reads miss the result and
document caches (the version is new) and are served from the refreshed
skeleton, so the engine runs without counting passes.  There is one
caller, so the coalescing window always closes on a group of one.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, List, Tuple

import inputs as inputs_mod
import oracle
from measure import Outcome, best_p50_ms, median_ms, peak_rss_mb, quantile_ms, ratio

#: Nominal seconds of one round (an append and a delete, each followed
#: by the whole session) on a 2-vCPU machine.
ROUND_SECONDS = 2.6
SETUP_REPEATS = 3
TENANT = "analyst"


def build_server(raw: inputs_mod.ChurnInputs):
    """The program's set-up: database, catalog, domains, service,
    server, and the skeleton warmed for the session's queries."""
    from repro import Domain, ItemCatalog, TransactionDatabase
    from repro.core.cfq_parser import parse_cfq
    from repro.serve.server import QueryServer
    from repro.serve.service import QueryService

    db = TransactionDatabase(raw.transactions)
    domain = Domain.items(ItemCatalog({"Price": raw.prices, "Type": raw.types}))
    domains = {"S": domain, "T": domain}
    # The service and server settings are those `repro serve` uses.
    service = QueryService(max_entries=64, telemetry=True)
    server = QueryServer(service, db, domains)
    service.prepare(db, [parse_cfq(q.text(), domains) for q in raw.queries])
    return db, server


def run(seed: int, rounds: int, recorder=None) -> Outcome:
    raw = inputs_mod.churn_inputs(seed, n_steps=2 * rounds)
    texts = [query.text() for query in raw.queries]

    setups: List[float] = []
    for __ in range(SETUP_REPEATS):
        if recorder is not None:
            recorder.begin()
        start = time.perf_counter()
        db, server = build_server(raw)
        setups.append(time.perf_counter() - start)
        if recorder is not None:
            recorder.end()
    if recorder is not None:
        build_ms = recorder.medians_ms()["skeleton.build_ms"]
        recorder.ops.clear()
        recorder.counts.clear()

    gc.collect()
    reads: List[float] = []
    by_query: Dict[int, List[float]] = {}
    writes: List[float] = []
    answers: List[List[Tuple[int, Dict]]] = []  # per version: (query, answer document)
    outcome = Outcome()
    sources: Dict[str, int] = {}
    counters = {"sets_counted": 0, "pair_checks": 0}
    probed = 0
    phase_start = time.perf_counter()
    for kind, payload in raw.steps:
        if recorder is not None:
            recorder.begin()
        start = time.perf_counter()
        new_db, delta = db.append(payload) if kind == "append" else db.delete(payload)
        report = server.apply_delta(new_db, delta)
        writes.append(time.perf_counter() - start)
        if recorder is not None:
            recorder.end()
        db = new_db
        probed += sum(stats.probed for stats in report.refreshes)
        version: List[Tuple[int, Dict]] = []
        for index, text in enumerate(texts):
            if recorder is not None:
                recorder.begin()
            start = time.perf_counter()
            status, body = server.handle_query({"query": text, "tenant": TENANT})
            reads.append(time.perf_counter() - start)
            by_query.setdefault(index, []).append(reads[-1])
            if recorder is not None:
                recorder.end()
            if status != 200 or "pairs" not in body.get("answer", {}):
                outcome.record_error(
                    f"{kind} v{len(answers) + 1} {raw.queries[index].name}",
                    f"HTTP {status}: {body.get('error') or body['answer'].get('status')}",
                )
                continue
            serving = body["serving"]
            sources[serving["source"]] = sources.get(serving["source"], 0) + 1
            for name in counters:
                counters[name] += serving["counters"][name]
            version.append((index, body["answer"]))
        answers.append(version)
    phase_seconds = time.perf_counter() - phase_start
    rss = peak_rss_mb()
    outcome.attempted = len(reads) + len(writes)

    # The oracle replays the same deltas on its own copy of the data.
    bitsets = oracle.Bitsets()
    slots = [bitsets.add(t) for t in raw.transactions]
    universe = sorted(raw.prices)
    weakest = min(q.minsup["S"] for q in raw.queries)
    for step, ((kind, payload), version) in enumerate(zip(raw.steps, answers), start=1):
        if kind == "append":
            slots.extend(bitsets.add(t) for t in payload)
        else:
            dropped = set(payload)
            for tid in payload:
                bitsets.remove(slots[tid])
            slots = [slot for tid, slot in enumerate(slots) if tid not in dropped]
        enumerations = oracle.Enumerations(bitsets)
        enumerations.prime(universe, oracle.min_count(weakest, len(bitsets)))
        for index, document in version:
            query = raw.queries[index]
            expected = oracle.answer(
                bitsets, query.domains, query.minsup, query.onevar, query.twovar,
                query.prices, query.types, enumerate_sets=enumerations,
            )
            outcome.record_check(
                f"{kind} v{step} {query.name}",
                oracle.check(expected, document["frequent_valid"], document["pairs"]),
            )

    outcome.end_to_end = {
        "setup_s": statistics.median(setups),
        "p50_ms": best_p50_ms(by_query),
        "peak_rss_mb": rss,
    }
    outcome.per_layer = {
        "p99_ms": quantile_ms(reads, 0.99),
        "ops_per_s": outcome.attempted / phase_seconds,
        "write_p50_ms": median_ms(writes),
    }
    if recorder is not None:
        outcome.per_layer.update(recorder.medians_ms())
        outcome.per_layer["skeleton.build_ms"] = build_ms
        frequent = recorder.counts.get("mining.frequent_found", 0)
        outcome.per_layer.update({
            "serve.source.skeleton": sources.get("skeleton", 0),
            "serve.source.cold": sources.get("cold", 0),
            "skeleton.probed": probed,
            "mining.sets_counted": counters["sets_counted"],
            "mining.frequent_found": frequent,
            "mining.frequent_per_counted": ratio(frequent, counters["sets_counted"]),
            "core.pair_checks": counters["pair_checks"],
        })
    return outcome

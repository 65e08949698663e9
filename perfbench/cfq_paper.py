"""Workload ``cfq-paper``: the paper's own queries, cold, in process.

One caller runs each query through ``CFQOptimizer(cfq).execute(db)``
followed by ``pairs()``, with the library's default backend and no
cache: Figure 8(a) at five price overlaps and Figure 8(b) at four type
overlaps over 100k transactions x 1000 items, and Section 7.3's
``sum(S.Price) <= sum(T.Price)`` at T price means 400 and 600 over 100k
transactions.  The cheap and the expensive queries are always the same
11, in the same order.  A round is two passes over them, so each query
has a second chance to run at full speed (see ``measure.best_p50_ms``).
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, List, Tuple

import inputs as inputs_mod
import oracle
from measure import Outcome, best_p50_ms, peak_rss_mb, quantile_ms, ratio

#: Nominal seconds of one round (two passes over the 11 queries) on a
#: 2-vCPU machine; ``--seconds`` is turned into a whole number of rounds
#: with it.
ROUND_SECONDS = 25.0
PASSES_PER_ROUND = 2
SETUP_REPEATS = 5


def build_program_inputs(raw: inputs_mod.Inputs):
    """The program's set-up: databases, catalogs, domains and CFQs."""
    from repro import CFQ, Domain, ItemCatalog, TransactionDatabase

    databases = {name: TransactionDatabase(txns) for name, txns in raw.datasets.items()}
    cfqs = []
    for query in raw.queries:
        attributes = {"Price": query.prices}
        if query.types:
            attributes["Type"] = query.types
        catalog = ItemCatalog(attributes)
        if query.domains["S"] == query.domains["T"]:
            shared = Domain.items(catalog, subset=query.domains["S"])
            domains = {"S": shared, "T": shared}
        else:
            domains = {
                var: Domain.items(catalog, name=f"Item{var}", subset=items)
                for var, items in query.domains.items()
            }
        cfqs.append(CFQ(domains=domains, minsup=dict(query.minsup),
                        constraints=list(query.text_constraints)))
    return databases, cfqs


def run(seed: int, rounds: int, recorder=None) -> Outcome:
    from repro import CFQOptimizer

    raw = inputs_mod.paper_inputs(seed)

    setups: List[float] = []
    for __ in range(SETUP_REPEATS):
        start = time.perf_counter()
        databases, cfqs = build_program_inputs(raw)
        setups.append(time.perf_counter() - start)

    gc.collect()
    latencies: List[float] = []
    by_query: Dict[int, List[float]] = {}
    answers: List[Tuple[int, Dict, List]] = []
    counters: Dict[str, int] = {"sets_counted": 0, "subset_tests": 0, "scans": 0, "pair_checks": 0}
    phase_start = time.perf_counter()
    for __ in range(rounds * PASSES_PER_ROUND):
        for index, (query, cfq) in enumerate(zip(raw.queries, cfqs)):
            db = databases[query.dataset]
            if recorder is not None:
                recorder.begin()
            start = time.perf_counter()
            result = CFQOptimizer(cfq).execute(db)
            pairs = result.pairs()
            latencies.append(time.perf_counter() - start)
            by_query.setdefault(index, []).append(latencies[-1])
            if recorder is not None:
                recorder.end()
            answers.append(
                (index, {var: result.frequent_valid(var) for var in ("S", "T")}, pairs)
            )
            snapshot = result.counters.as_dict()
            for name in counters:
                counters[name] += snapshot[name]
            del result  # before the next query, so its peak is not added to this one
    phase_seconds = time.perf_counter() - phase_start
    rss = peak_rss_mb()

    outcome = Outcome(attempted=len(answers))
    bitsets = {name: oracle.Bitsets(txns) for name, txns in raw.datasets.items()}
    enumerations = {name: oracle.Enumerations(bits) for name, bits in bitsets.items()}
    # One enumeration of the whole Figure 8 item universe serves all nine
    # Figure 8 queries (their domains are subsets of it at one threshold).
    fig8_threshold = oracle.min_count(inputs_mod.FIG8_MINSUP, len(bitsets["fig8"]))
    enumerations["fig8"].prime(range(inputs_mod.FIG8_ITEMS), fig8_threshold)
    expected = {}
    for index, fv, pairs in answers:
        query = raw.queries[index]
        if index not in expected:
            expected[index] = oracle.answer(
                bitsets[query.dataset], query.domains, query.minsup, query.onevar,
                query.twovar, query.prices, query.types,
                enumerate_sets=enumerations[query.dataset],
            )
        reported = {var: sets.items() for var, sets in fv.items()}
        outcome.record_check(query.name, oracle.check(expected[index], reported, pairs))

    outcome.end_to_end = {
        "setup_s": statistics.median(setups),
        "p50_ms": best_p50_ms(by_query),
        "peak_rss_mb": rss,
    }
    outcome.per_layer = {
        "p99_ms": quantile_ms(latencies, 0.99),
        "ops_per_s": len(latencies) / phase_seconds,
    }
    if recorder is not None:
        outcome.per_layer.update(recorder.medians_ms())
        frequent = recorder.counts.get("mining.frequent_found", 0)
        outcome.per_layer.update({
            "mining.sets_counted": counters["sets_counted"],
            "mining.subset_tests": counters["subset_tests"],
            "mining.scans": counters["scans"],
            "mining.frequent_found": frequent,
            "mining.frequent_per_counted": ratio(frequent, counters["sets_counted"]),
            "core.pair_checks": counters["pair_checks"],
        })
    return outcome

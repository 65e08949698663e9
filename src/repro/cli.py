"""Command-line interface: ``python -m repro``.

Subcommands:

``query``
    Run a CFQ (in the paper's ``{(S, T) | ...}`` notation) against a
    generated market-basket workload and print the answer and plan.
    ``--cache-dir`` serves it through the fingerprinted result cache,
    persisted on disk so a repeated identical invocation is warm.
``batch``
    Run several CFQs over one workload through the serving layer's
    shared-scan batch executor and print a per-query source/timing table.
``experiments``
    Regenerate the paper's Section 7 tables (same code as the benchmark
    suite), optionally at smoke scale.
``classify``
    Classify one constraint: 1-var properties or the Figure 1 verdicts.
``stats``
    Render a telemetry snapshot (``--telemetry-out``) or a run report
    (``--trace-out`` / ``--report-out``) as a human summary, Prometheus
    text exposition, or Chrome trace-event JSON.
``serve``
    Run the multi-tenant HTTP/JSON query server (single-flight dedup,
    shared-scan coalescing, per-tenant rate limits and budgets from
    ``--tenants tenants.json``); see ``docs/server.md``.
``replay``
    Load-replay a server (an in-process one when ``--url`` is omitted)
    with interleaved tenant sessions and print latency/throughput and
    sharing statistics; ``--verify-cold`` re-checks every served
    answer against a cold single-threaded run.

Examples::

    python -m repro query '{(S, T) | max(S.Price) <= min(T.Price)}'
    python -m repro query '{(S, T) | freq(S, 0.03) & S.Type = {snacks}}' --pairs 5
    python -m repro batch '{(S, T) | S.Type = T.Type}' \
        '{(S, T) | max(S.Price) <= min(T.Price)}'
    python -m repro experiments --scale smoke --only fig8a
    python -m repro classify 'sum(S.Price) <= sum(T.Price)'
    python -m repro stats telemetry.json --format prometheus
    python -m repro serve --port 8399 --tenants tenants.json
    python -m repro replay --queries 200 --threads 8 --verify-cold
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.constraints.ast import is_onevar, is_twovar
from repro.constraints.onevar import OneVarView
from repro.constraints.parser import parse_constraint
from repro.constraints.properties import classify_onevar
from repro.constraints.twovar import TwoVarView
from repro.core.cfq_parser import parse_cfq
from repro.core.classify import classify_twovar
from repro.core.optimizer import CFQOptimizer
from repro.datagen.workloads import quickstart_workload
from repro.errors import ExecutionError, ReproError
from repro.mining.backends import (
    BACKENDS,
    ParallelBackend,
    backend_scope,
    make_backend,
)
from repro.obs.logs import LEVELS, configure_logging
from repro.obs.report import build_run_report
from repro.obs.trace import Tracer
from repro.runtime.guard import RunGuard

#: Exit code for a run cut short by a guard budget or SIGINT/SIGTERM —
#: distinct from 0 (complete) and 2 (error) so schedulers can tell a
#: well-labeled partial result from a failure.
EXIT_INTERRUPTED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constrained frequent set queries with 2-var constraints "
        "(SIGMOD 1999 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="run a CFQ on a generated workload")
    query.add_argument("cfq", help="query text, e.g. '{(S, T) | S.Type = T.Type}'")
    query.add_argument("--minsup", type=float, default=0.02,
                       help="default relative support threshold")
    query.add_argument("--transactions", type=int, default=1500,
                       help="size of the generated market-basket database")
    query.add_argument("--seed", type=int, default=7)
    query.add_argument("--pairs", type=int, default=10,
                       help="how many valid pairs to print")
    query.add_argument("--explain", action="store_true",
                       help="print the execution plan and operation counts")
    query.add_argument("--baseline", action="store_true",
                       help="also run Apriori+ and report the speedup")
    query.add_argument("--backend", default="bitmap", metavar="BACKEND",
                       help="support-counting backend: one of "
                       f"{', '.join(sorted(BACKENDS))}, or "
                       "'parallel:<workers>[:<kernel>]' — e.g. "
                       "'parallel:4:bitmap' shards the vectorized bitmap "
                       "kernel (default: bitmap, over the database's "
                       "cached bitmap index)")
    query.add_argument("--workers", type=int, default=None,
                       help="worker processes for '--backend parallel' "
                       "(default: up to 4, bounded by the visible CPUs)")
    query.add_argument("--trace-out", metavar="PATH", default=None,
                       help="trace the run and write the versioned JSON "
                       "run report (spans, metrics, pruning table) to PATH")
    query.add_argument("--profile", action="store_true",
                       help="run under cProfile and embed the top hotspots "
                       "in the run report (implies tracing)")
    query.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                       help="wall-clock budget; a run that exceeds it stops "
                       "cooperatively and reports a partial result "
                       f"(exit code {EXIT_INTERRUPTED})")
    query.add_argument("--max-memory-mb", type=float, default=None, metavar="MB",
                       help="RSS watermark sampled between candidate batches; "
                       "exceeding it interrupts the run with a partial result")
    query.add_argument("--max-candidates", type=int, default=None, metavar="N",
                       help="per-level candidate budget; a level generating "
                       "more candidates interrupts the run")
    query.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="write a crash-safe checkpoint after each completed "
                       "level into DIR")
    query.add_argument("--resume", action="store_true",
                       help="resume from the checkpoint in --checkpoint-dir "
                       "(validated against the query and dataset)")
    query.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="serve through the fingerprinted result cache, "
                       "persisting artifacts in DIR: a repeated identical "
                       "invocation is answered from cache (incompatible "
                       "with --checkpoint-dir/--resume)")
    query.add_argument("--fault-plan", metavar="PATH", default=None,
                       help="JSON fault-injection plan installed for the "
                       "whole run (testing hook; see docs/fault-tolerance.md)."
                       " Faults degrade the serving tiers, never the answer")
    query.add_argument("--telemetry-out", metavar="PATH", default=None,
                       help="write the serving telemetry snapshot (per-"
                       "outcome latency histograms, cache gauges, event "
                       "journal) to PATH; requires --cache-dir (telemetry "
                       "lives on the serving layer)")

    batch = sub.add_parser(
        "batch",
        help="run several CFQs over one workload with shared scans",
    )
    batch.add_argument("cfqs", nargs="+", metavar="CFQ",
                       help="query texts, e.g. '{(S, T) | S.Type = T.Type}'")
    batch.add_argument("--minsup", type=float, default=0.02,
                       help="default relative support threshold")
    batch.add_argument("--transactions", type=int, default=1500,
                       help="size of the generated market-basket database")
    batch.add_argument("--seed", type=int, default=7)
    batch.add_argument("--pairs", type=int, default=3,
                       help="how many valid pairs to print per query")
    batch.add_argument("--backend", default="bitmap", metavar="BACKEND",
                       help="support-counting backend (as in 'query')")
    batch.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="also persist full result artifacts in DIR")
    batch.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget for the whole batch")
    batch.add_argument("--churn", action="append", default=None,
                       metavar="OP:N",
                       help="after the batch, mutate the dataset and re-run "
                       "it: 'append:N' adds N generated transactions, "
                       "'delete:N' removes N random ones; repeatable — each "
                       "flag is one churn step, served through incremental "
                       "skeleton maintenance (delta recount, not a re-mine)")
    batch.add_argument("--verify-cold", action="store_true",
                       help="after every churn step, re-run each query cold "
                       "on the mutated dataset and fail (exit 2) unless the "
                       "incrementally served answers are identical")
    batch.add_argument("--report-out", metavar="PATH", default=None,
                       help="write a versioned JSON run report for the first "
                       "query's final answer, including the churn "
                       "maintenance 'delta' block")
    batch.add_argument("--fault-plan", metavar="PATH", default=None,
                       help="JSON fault-injection plan installed for the "
                       "whole batch (testing hook; see "
                       "docs/fault-tolerance.md)")
    batch.add_argument("--telemetry-out", metavar="PATH", default=None,
                       help="write the serving telemetry snapshot (per-"
                       "outcome latency histograms, cache gauges, event "
                       "journal) to PATH")
    batch.add_argument("--journal-out", metavar="PATH", default=None,
                       help="stream the serving event journal to PATH as "
                       "rotating JSONL while the batch runs")

    experiments = sub.add_parser(
        "experiments", help="regenerate the paper's Section 7 tables"
    )
    experiments.add_argument("--scale", choices=("full", "smoke"), default="smoke")
    experiments.add_argument(
        "--only",
        choices=("fig8a", "fig8b", "jmax", "ccc", "ablations", "backends",
                 "serving"),
        default=None,
        help="run a single experiment family",
    )
    experiments.add_argument(
        "--report-dir", metavar="DIR", default=None,
        help="also write one run-report JSON per strategy run into DIR",
    )
    experiments.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-strategy-run wall-clock budget; tripped runs appear as "
        "PARTIAL notes under the tables instead of aborting them",
    )

    for command in (query, batch, experiments):
        command.add_argument(
            "--log-level", choices=LEVELS, default=None,
            help="enable repro.* logging on stderr at this level",
        )

    classify = sub.add_parser("classify", help="classify a constraint")
    classify.add_argument("constraint", help="constraint text")

    stats = sub.add_parser(
        "stats",
        help="render a telemetry snapshot or run report",
    )
    stats.add_argument("file", help="a --telemetry-out snapshot or a "
                       "--trace-out/--report-out run report (JSON)")
    stats.add_argument("--format", choices=("text", "prometheus",
                                            "chrome-trace"),
                       default="text", dest="format_",
                       help="text summary (default), Prometheus text "
                       "exposition of the metrics, or Chrome trace-event "
                       "JSON of the span tree (run reports only)")
    stats.add_argument("--out", metavar="PATH", default=None,
                       help="write the rendering to PATH instead of stdout")

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant HTTP/JSON query server",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8399,
                       help="listen port; 0 picks a free one (default 8399)")
    serve.add_argument("--tenants", metavar="PATH", default=None,
                       help="tenants.json admission table "
                       "({'tenants': {name: {rate, burst, deadline_seconds, "
                       "...}}}); omitted = one permissive shared profile")
    serve.add_argument("--transactions", type=int, default=1500,
                       help="synthetic dataset size (default 1500)")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--minsup", type=float, default=0.02,
                       help="default support threshold for requests that "
                       "set none (default 0.02)")
    serve.add_argument("--window-ms", type=float, default=4.0,
                       help="coalescing admission window in milliseconds; "
                       "0 disables coalescing (default 4)")
    serve.add_argument("--max-width", type=int, default=16,
                       help="coalesced batch size cap (default 16)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="bound on concurrently admitted requests; "
                       "beyond it arrivals are shed with 503 (default 64)")
    serve.add_argument("--http-workers", type=int, default=8,
                       help="HTTP worker-thread pool size (default 8)")
    serve.add_argument("--cache-entries", type=int, default=64,
                       help="memory result-cache capacity (default 64)")
    serve.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persist results under DIR (the warm disk tier)")
    serve.add_argument("--backend", default="bitmap", metavar="BACKEND",
                       help=f"counting backend ({', '.join(sorted(BACKENDS))}; "
                       "default bitmap)")
    serve.add_argument("--journal-out", metavar="PATH", default=None,
                       help="append serving events to PATH as JSON lines")

    replay = sub.add_parser(
        "replay",
        help="replay a threaded query workload against a server",
    )
    replay.add_argument("--url", default=None, metavar="URL",
                        help="server to drive; omitted = start an "
                        "in-process server on a free port first")
    replay.add_argument("--queries", type=int, default=200,
                        help="number of requests to send (default 200)")
    replay.add_argument("--threads", type=int, default=8,
                        help="client threads (default 8)")
    replay.add_argument("--steps", type=int, default=4,
                        help="refinement-session length the workload "
                        "cycles over (default 4)")
    replay.add_argument("--relax", type=float, default=0.5,
                        help="session opening-threshold relaxation "
                        "(default 0.5; 1.0 = no relaxation)")
    replay.add_argument("--min-step", type=int, default=0,
                        help="skip the session's first N (broadest) "
                        "queries (default 0)")
    replay.add_argument("--transactions", type=int, default=1500,
                        help="synthetic dataset size (default 1500); must "
                        "match the server's when --url is given")
    replay.add_argument("--seed", type=int, default=7)
    replay.add_argument("--window-ms", type=float, default=4.0,
                        help="in-process server's coalescing window "
                        "(ignored with --url; default 4)")
    replay.add_argument("--verify-cold", action="store_true",
                        help="after the replay, re-execute every unique "
                        "query cold and require bit-identical answers "
                        "(exit 2 on any mismatch)")
    replay.add_argument("--report-out", metavar="PATH", default=None,
                        help="write the replay report JSON to PATH")
    return parser


def _resolve_backend(name: str, workers: Optional[int]):
    """Build the counting backend the query flags describe.

    Malformed names and ``parallel:<workers>`` specs raise
    :class:`~repro.errors.ExecutionError`, which ``main`` renders as a
    clean ``error: ...`` / exit-code-2 instead of a traceback.
    """
    if workers is not None:
        if name != "parallel":
            raise ExecutionError(
                f"--workers only applies to '--backend parallel', not {name!r}"
            )
        return ParallelBackend(workers=workers)
    return make_backend(name)


def _cmd_query(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_dir:
        raise ExecutionError("--resume requires --checkpoint-dir")
    if args.cache_dir and (args.checkpoint_dir or args.resume):
        raise ExecutionError(
            "--cache-dir cannot be combined with --checkpoint-dir/--resume: "
            "checkpointed runs bypass the result cache by design"
        )
    if args.telemetry_out and not args.cache_dir:
        raise ExecutionError(
            "--telemetry-out requires --cache-dir: telemetry lives on the "
            "serving layer, and only cached runs go through it"
        )
    backend = _resolve_backend(args.backend, args.workers)
    service = None
    tracer = Tracer() if (args.trace_out or args.profile) else None
    workload = quickstart_workload(n_transactions=args.transactions,
                                   seed=args.seed)
    cfq = parse_cfq(args.cfq, workload.domains, default_minsup=args.minsup)
    print(f"workload: {workload.db!r}")
    print(f"query:    {cfq}")
    # The guard is always live for interactive runs so Ctrl-C / SIGTERM
    # unwind into a labeled partial result instead of a traceback; the
    # budget fields stay None unless the flags set them.
    guard = RunGuard(
        deadline_seconds=args.deadline,
        max_memory_mb=args.max_memory_mb,
        max_candidates=args.max_candidates,
    )
    profile = None
    # Hold the backend's resources (the parallel worker pool) open across
    # the whole command; the engine's nested scope then reuses them.
    with backend_scope(backend), guard.signals():
        if args.profile:
            import cProfile

            profile = cProfile.Profile()
            profile.enable()
        try:
            if args.cache_dir:
                from repro.serve import QueryService

                service = QueryService(cache_dir=args.cache_dir)
                result = service.execute(
                    workload.db, cfq,
                    backend=backend, tracer=tracer, guard=guard,
                )
            else:
                result = CFQOptimizer(cfq).execute(
                    workload.db,
                    backend=backend,
                    tracer=tracer,
                    guard=guard,
                    checkpoint_dir=args.checkpoint_dir,
                    resume=args.resume,
                )
        finally:
            if profile is not None:
                profile.disable()
    if service is not None and tracer is not None:
        service.telemetry.merge_run(tracer.metrics)
    if args.cache_dir and result.cache_info is not None:
        source = result.cache_info.get("source")
        if source == "result-cache":
            tier = result.cache_info.get("tier", "memory")
            print(f"cache: hit (result-cache, {tier} tier)")
        elif source == "skeleton":
            print("cache: hit (skeleton oracle)")
        else:
            print("cache: miss (cold run stored)")
    if result.is_partial:
        trip = result.interruption
        print(f"run interrupted: {trip.summary() if trip else 'unknown reason'}")
        print("reporting partial results "
              "(frequent sets verified so far; see --explain)")
    if args.trace_out or args.profile:
        report = build_run_report(
            result,
            tracer=tracer,
            meta={
                "command": "query",
                "transactions": args.transactions,
                "seed": args.seed,
                "minsup": args.minsup,
                "deadline": args.deadline,
                "max_memory_mb": args.max_memory_mb,
                "max_candidates": args.max_candidates,
                "resumed": bool(args.resume),
            },
            profile=profile,
            telemetry=(
                service.telemetry.snapshot(service.stats)
                if service is not None else None
            ),
        )
        if args.trace_out:
            report.write(args.trace_out)
            print(f"run report written to {args.trace_out}")
        if profile is not None and report.profile:
            print("top hotspots (cumulative seconds):")
            for entry in report.profile["hotspots"][:5]:
                print(f"  {entry['cumulative_seconds']:>10.4f}  "
                      f"{entry['function']} ({entry['file']}:{entry['line']})")
    for var in cfq.variables:
        print(f"frequent valid {var}-sets: {len(result.frequent_valid(var))}")
    if len(cfq.variables) == 2:
        pairs = result.pairs(limit=args.pairs)
        print(f"first {len(pairs)} valid pairs:")
        for s0, t0 in pairs:
            print(f"  S={s0}  T={t0}")
    if args.baseline:
        if result.is_partial:
            print("baseline comparison skipped: partial runs have no "
                  "meaningful op-cost speedup")
        else:
            from repro.mining.aprioriplus import apriori_plus

            baseline = apriori_plus(workload.db, cfq, backend=backend)
            speedup = baseline.counters.cost() / result.counters.cost()
            print(f"op-cost speedup over Apriori+: {speedup:.2f}x")
    if args.explain:
        # explain() includes pool lifecycle / failure / retry / fallback
        # stats when a parallel backend ran (see ParallelStats.summary).
        print(result.explain())
    if args.telemetry_out and service is not None:
        service.telemetry.write(args.telemetry_out, stats=service.stats)
        print(f"telemetry snapshot written to {args.telemetry_out}")
    return EXIT_INTERRUPTED if result.is_partial else 0


def _parse_churn(spec: str):
    """``'append:N'`` / ``'delete:N'`` → ``(op, n)``; anything else is an
    :class:`~repro.errors.ExecutionError` (clean exit 2, no traceback)."""
    op, sep, count = spec.partition(":")
    if not sep or op not in ("append", "delete"):
        raise ExecutionError(
            f"--churn expects 'append:N' or 'delete:N', got {spec!r}"
        )
    try:
        n = int(count)
    except ValueError:
        n = 0
    if n <= 0:
        raise ExecutionError(f"--churn {spec!r}: N must be a positive integer")
    return op, n


def _churn_transactions(db, n: int, rng) -> List[tuple]:
    """``n`` synthetic transactions drawn from the database's own item
    universe and length distribution, so appended rows look like the
    workload instead of shifting every support toward zero."""
    universe = sorted({item for t in db.transactions for item in t})
    lengths = [len(t) for t in db.transactions if t] or [1]
    return [
        tuple(sorted(rng.sample(universe, min(rng.choice(lengths),
                                              len(universe)))))
        for _ in range(n)
    ]


def _print_batch_items(report, pairs_limit: int) -> bool:
    """Per-query source/timing/answer lines; returns True if any query
    reported a partial result."""
    any_partial = False
    for index, item in enumerate(report.items, start=1):
        result = item.result
        status = "" if not result.is_partial else " [PARTIAL]"
        any_partial = any_partial or result.is_partial
        print(f"  [{index}] {item.cfq}")
        print(f"      source {item.source}, "
              f"{item.wall_seconds:.4f}s{status}")
        for var in item.cfq.variables:
            print(f"      frequent valid {var}-sets: "
                  f"{len(result.frequent_valid(var))}")
        if len(item.cfq.variables) == 2 and not result.is_partial:
            for s0, t0 in result.pairs(limit=pairs_limit):
                print(f"      S={s0}  T={t0}")
    return any_partial


def _answers_match(served, cold) -> bool:
    """Order-sensitive answer comparison (the serving layer's bit-identity
    contract: frequent sets with supports in insertion order, plus the
    pair list)."""
    if [
        list(served.frequent_valid(var).items())
        for var in served.cfq.variables
    ] != [
        list(cold.frequent_valid(var).items())
        for var in cold.cfq.variables
    ]:
        return False
    if len(served.cfq.variables) == 2:
        return served.pairs() == cold.pairs()
    return True


def _cmd_batch(args: argparse.Namespace) -> int:
    import random

    from repro.serve import QueryService

    churn_ops = [_parse_churn(spec) for spec in (args.churn or [])]
    backend = _resolve_backend(args.backend, None)
    workload = quickstart_workload(n_transactions=args.transactions,
                                   seed=args.seed)
    db = workload.db
    cfqs = [
        parse_cfq(text, workload.domains, default_minsup=args.minsup)
        for text in args.cfqs
    ]
    print(f"workload: {db!r}")
    guard = RunGuard(deadline_seconds=args.deadline)
    service = QueryService(
        cache_dir=args.cache_dir, journal_path=args.journal_out
    )
    rng = random.Random(args.seed)
    delta_reports = []
    with backend_scope(backend), guard.signals():
        report = service.execute_batch(db, cfqs, backend=backend, guard=guard)
        print(f"batch of {len(report.items)} queries "
              f"(skeleton build {report.skeleton_build_seconds:.3f}s, "
              f"{service.stats.skeleton_builds} skeleton(s) mined)")
        any_partial = _print_batch_items(report, args.pairs)

        for step, (op, n) in enumerate(churn_ops, start=1):
            if op == "append":
                db, delta = db.append(_churn_transactions(db, n, rng))
            else:
                population = range(len(db))
                tids = rng.sample(population, min(n, max(len(db) - 1, 0)))
                db, delta = db.delete(tids)
            maintenance = service.apply_delta(db, delta, guard=guard)
            delta_reports.append(maintenance)
            probed = sum(r.probed for r in maintenance.refreshes)
            print(f"churn[{step}] {op}:{n} -> {len(db)} transactions "
                  f"({delta.churn_fraction:.1%} churn); "
                  f"{maintenance.skeletons_refreshed} skeleton(s) refreshed, "
                  f"{maintenance.skeletons_dropped} dropped, "
                  f"{probed} candidate(s) probed, "
                  f"{maintenance.results_invalidated} result(s) invalidated "
                  f"in {maintenance.wall_seconds:.4f}s")
            report = service.execute_batch(
                db, cfqs, backend=backend, guard=guard
            )
            any_partial = _print_batch_items(report, args.pairs) or any_partial
            if args.verify_cold:
                for item in report.items:
                    cold = CFQOptimizer(item.cfq).execute(db)
                    if not _answers_match(item.result, cold):
                        raise ExecutionError(
                            f"--verify-cold: churn step {step} served an "
                            f"answer for {item.cfq} that differs from a "
                            "cold run over the mutated dataset"
                        )
                print(f"churn[{step}] verify-cold: "
                      f"{len(report.items)} answer(s) identical to cold runs")
    print(f"cache stats: {service.stats.summary()}")
    if args.report_out:
        doc = build_run_report(
            report.items[0].result,
            meta={
                "command": "batch",
                "queries": [str(c) for c in cfqs],
                "transactions": args.transactions,
                "seed": args.seed,
                "minsup": args.minsup,
                "churn": args.churn or [],
            },
            delta=(
                {"steps": [m.as_dict() for m in delta_reports]}
                if delta_reports else None
            ),
            telemetry=service.telemetry.snapshot(service.stats),
        )
        doc.write(args.report_out)
        print(f"run report written to {args.report_out}")
    if args.telemetry_out:
        service.telemetry.write(args.telemetry_out, stats=service.stats)
        print(f"telemetry snapshot written to {args.telemetry_out}")
    if args.journal_out:
        service.telemetry.journal.close()
        print(f"event journal written to {args.journal_out}")
    return EXIT_INTERRUPTED if any_partial else 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench import experiments as exp

    families = {
        "fig8a": (exp.fig8a_speedups, exp.fig8a_level_table, exp.fig8a_range_table),
        "fig8b": (exp.fig8b_speedups, exp.fig8b_range_table),
        "jmax": (exp.jmax_table,),
        "ccc": (exp.ccc_experiment,),
        "ablations": (exp.ablation_table,),
        "backends": (exp.backend_table,),
        "serving": (exp.serving_repeated_table, exp.serving_refinement_table),
    }
    selected = (
        families[args.only]
        if args.only
        else tuple(fn for group in families.values() for fn in group)
    )
    kwargs = {}
    if args.report_dir:
        import os

        os.makedirs(args.report_dir, exist_ok=True)
        kwargs["report_dir"] = args.report_dir
    if args.deadline is not None:
        kwargs["deadline"] = args.deadline
    for experiment in selected:
        print(experiment(scale=args.scale, **kwargs).render())
        print()
    if args.report_dir:
        print(f"run reports written under {args.report_dir}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    constraint = parse_constraint(args.constraint)
    print(f"constraint: {constraint}")
    if is_onevar(constraint):
        view = OneVarView.of(constraint)
        props = classify_onevar(view, non_negative=True)
        print("kind: 1-variable")
        print(f"anti-monotone: {props.anti_monotone}")
        print(f"monotone:      {props.monotone}")
        print(f"succinct:      {props.succinct}")
        if view.shape and getattr(view.shape, "func", None) == "sum":
            print("(sum verdicts assume a non-negative attribute domain)")
    elif is_twovar(constraint):
        view2 = TwoVarView.of(constraint)
        props2 = classify_twovar(view2)
        print("kind: 2-variable")
        print(f"anti-monotone:  {props2.anti_monotone}")
        print(f"quasi-succinct: {props2.quasi_succinct}")
        if props2.needs_induction:
            print("handled via: induced weaker constraint (Figure 4) and/or "
                  "iterative J^k_max pruning (Section 5.2)")
        else:
            print("handled via: reduction to 1-var succinct constraints "
                  "(Figures 2-3)")
    else:
        print("kind: constant (no set variables)")
    return 0


def _render_telemetry_text(document) -> List[str]:
    """Human summary of a ``repro.serve.telemetry`` snapshot."""
    from repro.db.stats import CacheStats

    lines = [
        f"serving telemetry (uptime {document.get('uptime_seconds', 0):.1f}s, "
        f"{document.get('runs_merged', 0)} run registr(ies) merged)"
    ]
    outcomes = document.get("outcomes", {})
    if outcomes:
        lines.append("per-outcome latency (seconds):")
        lines.append(
            f"  {'outcome':<15} {'count':>7} {'p50':>10} {'p95':>10} "
            f"{'p99':>10} {'max':>10}"
        )
        for outcome, summary in sorted(outcomes.items()):
            lines.append(
                f"  {outcome:<15} {summary['count']:>7} "
                f"{summary['p50']:>10.6f} {summary['p95']:>10.6f} "
                f"{summary['p99']:>10.6f} {summary['max']:>10.6f}"
            )
    else:
        lines.append("no servings recorded")
    if document.get("cache"):
        lines.append(
            f"cache: {CacheStats.from_dict(document['cache']).summary()}"
        )
    journal = document.get("journal", {})
    counts = journal.get("counts", {})
    if counts:
        rendered = ", ".join(f"{kind} {n}" for kind, n in counts.items())
        lines.append(
            f"journal: seq {journal.get('seq', 0)}, "
            f"{journal.get('dropped', 0)} dropped from window; {rendered}"
        )
    return lines


def _render_report_text(document) -> List[str]:
    """Human summary of a ``repro.run_report`` document."""
    lines = [
        f"run report v{document['version']} "
        f"(query: {document['meta'].get('query', '?')})"
    ]
    answers = document.get("answers", {})
    if answers.get("frequent_valid"):
        for var, n in sorted(answers["frequent_valid"].items()):
            lines.append(f"  frequent valid {var}-sets: {n}")
    if answers.get("status"):
        lines.append(f"  status: {answers['status']}")
    spans = document.get("trace", {}).get("spans", [])
    if spans:
        total = sum(s.get("wall_seconds", 0.0) for s in spans)
        lines.append(f"  trace: {len(spans)} root span(s), {total:.4f}s wall")
    if document.get("cache"):
        lines.append(f"  served from: {document['cache'].get('source', '?')}")
    if document.get("telemetry"):
        lines.append("")
        lines.extend(_render_telemetry_text(document["telemetry"]))
    return lines


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import render_chrome_trace, render_prometheus
    from repro.obs.report import RUN_REPORT_SCHEMA
    from repro.serve.telemetry import TELEMETRY_SCHEMA

    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ExecutionError(f"cannot read {args.file}: {exc}")
    schema = document.get("schema") if isinstance(document, dict) else None
    if schema not in (TELEMETRY_SCHEMA, RUN_REPORT_SCHEMA):
        raise ExecutionError(
            f"{args.file}: unrecognized schema {schema!r}; expected a "
            f"{TELEMETRY_SCHEMA!r} snapshot (--telemetry-out) or a "
            f"{RUN_REPORT_SCHEMA!r} run report (--trace-out/--report-out)"
        )
    if args.format_ == "text":
        if schema == TELEMETRY_SCHEMA:
            output = "\n".join(_render_telemetry_text(document)) + "\n"
        else:
            output = "\n".join(_render_report_text(document)) + "\n"
    elif args.format_ == "prometheus":
        output = render_prometheus(document.get("metrics", {}))
    else:  # chrome-trace
        if schema == TELEMETRY_SCHEMA:
            raise ExecutionError(
                "--format chrome-trace needs a run report (telemetry "
                "snapshots carry no span tree); pass a --trace-out file"
            )
        output = json.dumps(
            render_chrome_trace(document.get("trace", {})), indent=2
        ) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output)
        print(f"written to {args.out}")
    else:
        sys.stdout.write(output)
    return 0


def _build_server(
    transactions: int,
    seed: int,
    minsup: float = 0.02,
    tenants_path: Optional[str] = None,
    window_seconds: float = 0.004,
    max_width: int = 16,
    queue_limit: int = 64,
    cache_entries: int = 64,
    cache_dir: Optional[str] = None,
    backend_name: str = "bitmap",
    journal_path: Optional[str] = None,
):
    """A QueryServer over the quickstart workload (serve/replay share it).

    The server gets the backend *spec*, so every execution resolves a
    backend of its own: concurrent handler threads never share one
    backend's matrix cache or pass statistics.  The spec is resolved
    once here only to reject a bad name at start-up.
    """
    from repro.serve.admission import TenantRegistry
    from repro.serve.server import QueryServer
    from repro.serve.service import QueryService

    make_backend(backend_name)
    workload = quickstart_workload(n_transactions=transactions, seed=seed)
    service = QueryService(
        max_entries=cache_entries,
        cache_dir=cache_dir,
        telemetry=True,
        journal_path=journal_path,
    )
    tenants = (
        TenantRegistry.load(tenants_path)
        if tenants_path
        else TenantRegistry.open_registry()
    )
    core = QueryServer(
        service,
        workload.db,
        workload.domains,
        tenants=tenants,
        window_seconds=window_seconds,
        max_width=max_width,
        queue_limit=queue_limit,
        default_minsup=minsup,
        backend=backend_name,
    )
    return workload, core


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import start_server

    workload, core = _build_server(
        transactions=args.transactions,
        seed=args.seed,
        minsup=args.minsup,
        tenants_path=args.tenants,
        window_seconds=args.window_ms / 1000.0,
        max_width=args.max_width,
        queue_limit=args.queue_limit,
        cache_entries=args.cache_entries,
        cache_dir=args.cache_dir,
        backend_name=args.backend,
        journal_path=args.journal_out,
    )
    handle = start_server(
        core, host=args.host, port=args.port, workers=args.http_workers
    )
    print(f"serving workload {workload.name!r} "
          f"({len(workload.db)} transactions) at {handle.url}")
    print("endpoints: POST /query   GET /healthz   GET /stats")
    print("Ctrl-C to stop")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down")
        handle.shutdown()
        return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.serve import replay as replay_mod
    from repro.serve.server import start_server

    workload, core = _build_server(
        transactions=args.transactions,
        seed=args.seed,
        window_seconds=args.window_ms / 1000.0,
    )
    requests = replay_mod.session_requests(
        workload, n_requests=args.queries, steps=args.steps,
        relax=args.relax, min_step=args.min_step,
    )
    handle = None
    url = args.url
    if url is None:
        handle = start_server(core, port=0)
        url = handle.url
        print(f"replaying against in-process server at {url}")
    try:
        start = time.perf_counter()
        outcomes = replay_mod.replay(url, requests, threads=args.threads)
        report = replay_mod.summarize(
            outcomes, wall_seconds=time.perf_counter() - start
        )
        if args.verify_cold:
            report.verify = replay_mod.verify_cold(
                outcomes, workload.db, workload.domains,
                default_minsup=workload.minsup,
            )
    finally:
        if handle is not None:
            handle.shutdown()
    document = report.as_dict()
    print(json.dumps(document, indent=2))
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as out:
            json.dump(document, out, indent=2)
            out.write("\n")
        print(f"report written to {args.report_out}")
    if report.n_errors:
        print(f"error: {report.n_errors} request(s) failed", file=sys.stderr)
        return 2
    if args.verify_cold and not report.verify["ok"]:
        print(
            f"error: {len(report.verify['mismatches'])} served answer(s) "
            "diverged from the cold oracle",
            file=sys.stderr,
        )
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "log_level", None):
        configure_logging(args.log_level)
    handlers = {
        "query": _cmd_query,
        "batch": _cmd_batch,
        "experiments": _cmd_experiments,
        "classify": _cmd_classify,
        "stats": _cmd_stats,
        "serve": _cmd_serve,
        "replay": _cmd_replay,
    }
    try:
        plan_path = getattr(args, "fault_plan", None)
        if plan_path:
            from repro.runtime import faults

            plan = faults.FaultPlan.from_file(plan_path)
            with faults.installed(plan):
                code = handlers[args.command](args)
            if plan.fired:
                # A degraded-but-complete run keeps exit code 0: the
                # answers are proven bit-identical to a fault-free run,
                # and the degradation is narrated here + in telemetry.
                print(f"fault plan: {len(plan.fired)} fault(s) fired "
                      f"({', '.join(sorted({s for s, _, _ in plan.fired}))}); "
                      "service degraded but answers are fault-free-identical")
            return code
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

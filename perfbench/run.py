#!/usr/bin/env python3
"""The repository's benchmark: one named workload, one seed, one run.

    python3 perfbench/run.py --workload cfq-paper --seed 1 --seconds 20 --trace 0

Run from the repository root.  It builds nothing: the program is the
pure-Python package under ``src/``.  The last line of standard output
is one JSON object::

    {"correct": true, "attempted": 13, "failed": 0,
     "metrics": {"p50_ms": {"value": 812.4, "unit": "ms"}, ...}}

``--trace 0`` prints the end-to-end metrics, measured with no timers
installed.  ``--trace 1`` installs per-layer timers (``layers.py``) and
prints the per-layer metrics instead.  ``--seconds`` sets how much
fixed work a run does: a whole number of the workload's rounds, never
as many operations as fit in a time box.  A human summary goes to
standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Numeric thread pools stay at one thread; the benchmark's own
# concurrency (two HTTP workers, two client connections) matches the
# machine's two vCPUs.  Set before numpy is first imported.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cfq-paper", "serve-hit", "serve-churn")

#: name -> unit, for every metric a run can print.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "p99_ms": "ms",
    "ops_per_s": "1/s",
    "write_p50_ms": "ms",
    "server.handle_ms": "ms",
    "server.transport_ms": "ms",
    "server.admission_ms": "ms",
    "server.render_ms": "ms",
    "server.window_wait_ms": "ms",
    "server.doc_cache_hit_ratio": "ratio",
    "server.doc_cache_hits": "count",
    "server.requests": "count",
    "core.parse_ms": "ms",
    "serve.fingerprint_ms": "ms",
    "serve.lookup_ms": "ms",
    "serve.store_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.source.skeleton": "count",
    "serve.source.cold": "count",
    "serve.apply_delta_ms": "ms",
    "skeleton.refresh_ms": "ms",
    "skeleton.probed": "count",
    "skeleton.oracle_ms": "ms",
    "skeleton.build_ms": "ms",
    "db.project_ms": "ms",
    "db.append_ms": "ms",
    "db.delete_ms": "ms",
    "db.digest_ms": "ms",
    "core.plan_ms": "ms",
    "core.reduce_ms": "ms",
    "core.jmax_ms": "ms",
    "core.pairs_ms": "ms",
    "core.pair_checks": "count",
    "mining.candidates_ms": "ms",
    "mining.absorb_ms": "ms",
    "mining.count_l1_ms": "ms",
    "mining.count_ms": "ms",
    "mining.sets_counted": "count",
    "mining.subset_tests": "count",
    "mining.scans": "count",
    "mining.frequent_found": "count",
    "mining.frequent_per_counted": "ratio",
    "trace.p50_ms": "ms",
}


def _rounds(seconds: int, round_seconds: float) -> int:
    return max(1, int(round(seconds / round_seconds)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing "
              "(run from a checkout of the repository)", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    recorder = None
    if args.trace:
        import layers

        recorder = layers.Recorder()
    if args.workload == "cfq-paper":
        import cfq_paper as workload
    elif args.workload == "serve-hit":
        import serve_hit as workload
    else:
        import serve_churn as workload
    if recorder is not None and args.workload != "serve-hit":
        # serve-hit installs its timers in the server child instead.
        layers.install(recorder)

    outcome = workload.run(
        args.seed, _rounds(args.seconds, workload.ROUND_SECONDS), recorder=recorder
    )

    for line in outcome.problems[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    for line in outcome.errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, value in {**outcome.end_to_end, **outcome.per_layer}.items():
        print(f"{args.workload} seed={args.seed} {name} = {value:.6g}", file=sys.stderr)

    if recorder is None:
        metrics = {name: outcome.end_to_end[name] for name in END_TO_END}
        units = END_TO_END
    else:
        per_layer = dict.fromkeys(PER_LAYER, 0.0)
        per_layer.update(outcome.per_layer)
        per_layer["trace.p50_ms"] = outcome.end_to_end["p50_ms"]
        metrics = {name: per_layer[name] for name in PER_LAYER}
        units = PER_LAYER
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

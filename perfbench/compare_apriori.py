"""The optimizer against Apriori+ on the cfq-paper queries.

    python3 perfbench/compare_apriori.py --seed 1

For each cfq-paper query, over the same inputs ``run.py`` builds for
``--workload cfq-paper --seed N`` (plus Section 7.3's T price means 800
and 1000, which the workload leaves out): the mining wall time (step (i) of the
paper, pair formation excluded for both strategies as in its Section
6.2) and the sets support-counted, for ``CFQOptimizer(cfq).execute``
and for ``apriori_plus``, with both ratios beside the speedup the paper
reports.  The README's reference table comes from this script.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import inputs  # noqa: E402
from cfq_paper import build_program_inputs  # noqa: E402

#: The paper's reported speedups over Apriori+ (Figures 8(a), 8(b) with
#: 1-var and 2-var constraints, and the Section 7.3 table).
PAPER = {
    "fig8a-16.6": "~4x", "fig8a-33.3": "(between)", "fig8a-50": "~1.84x",
    "fig8a-66.7": "(between)", "fig8a-83.4": ">1.5x",
    "fig8b-20": "~20x", "fig8b-40": "~6x", "fig8b-60": "(smaller)", "fig8b-80": "(smaller)",
    "jmax-400": "3.14x", "jmax-600": "1.91x", "jmax-800": "1.36x", "jmax-1000": "1.11x",
}


def main() -> int:
    from repro import CFQOptimizer, apriori_plus

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    raw = inputs.paper_inputs(args.seed, jmax_means=inputs.JMAX_MEANS)
    databases, cfqs = build_program_inputs(raw)
    print("| query | optimizer s | Apriori+ s | wall-clock speedup | sets counted (opt / A+) "
          "| op-count speedup | paper |")
    print("|---|---|---|---|---|---|---|")
    for query, cfq in zip(raw.queries, cfqs):
        db = databases[query.dataset]
        start = time.perf_counter()
        optimized = CFQOptimizer(cfq).execute(db)
        opt_seconds = time.perf_counter() - start
        start = time.perf_counter()
        baseline = apriori_plus(db, cfq)
        base_seconds = time.perf_counter() - start
        opt_sets = optimized.counters.total_counted
        base_sets = baseline.counters.total_counted
        print(
            f"| {query.name} | {opt_seconds:.2f} | {base_seconds:.2f} "
            f"| {base_seconds / opt_seconds:.2f}x | {opt_sets} / {base_sets} "
            f"| {base_sets / opt_sets:.2f}x | {PAPER[query.name]} |",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

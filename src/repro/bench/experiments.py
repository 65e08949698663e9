"""One function per table/figure of the paper's Section 7.

Every function returns an :class:`ExperimentResult` whose ``rows`` carry
the reproduced numbers and whose ``paper`` field records what the paper
reported, so benchmarks can print both side by side and tests can assert
the qualitative *shape* (who wins, monotonicity, crossovers) without
pinning fragile absolute values.

All experiments are seeded and deterministic.  ``scale`` trades fidelity
for speed: ``"full"`` is the benchmark default; ``"smoke"`` shrinks the
databases for use inside the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import emit_report, run_strategy
from repro.bench.report import render_table
from repro.core.ccc import audit_ccc
from repro.datagen.workloads import (
    cascade_workload,
    fig8a_workload,
    fig8b_workload,
    jmax_workload,
)
from repro.mining.backends import make_backend

_SCALES = {
    "full": {"n_transactions": 4000, "n_items": 600},
    "smoke": {"n_transactions": 800, "n_items": 200},
}


@dataclass
class ExperimentResult:
    """A reproduced table: headers, measured rows, and the paper's rows."""

    experiment: str
    headers: Sequence[str]
    rows: List[List[object]]
    paper: str = ""
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Table text plus the paper's reference numbers."""
        parts = [render_table(self.headers, self.rows, title=self.experiment)]
        if self.paper:
            parts.append(f"paper reported: {self.paper}")
        parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)

    def column(self, name: str) -> List:
        """One column of the measured rows, by header name."""
        index = list(self.headers).index(name)
        return [row[index] for row in self.rows]


def _scale_kwargs(scale: str) -> Dict[str, int]:
    try:
        return dict(_SCALES[scale])
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; use one of {sorted(_SCALES)}")


def _strategy(
    name: str,
    db,
    cfq,
    *,
    report_dir: Optional[str] = None,
    experiment: Optional[str] = None,
    deadline: Optional[float] = None,
    notes: Optional[List[str]] = None,
    **options,
):
    """:func:`run_strategy` plus optional run-report emission.

    When ``report_dir`` is set, the run is traced and one
    :class:`~repro.obs.report.RunReport` JSON is written per strategy run
    (the same document the CLI's ``--trace-out`` produces).  When a
    ``deadline`` trips the run guard, the partial run is recorded in
    ``notes`` (rendered under the table) instead of aborting the table.
    """
    run = run_strategy(name, db, cfq, trace=report_dir is not None,
                       deadline=deadline, **options)
    if run.is_partial and notes is not None:
        trip = run.trip
        detail = trip.summary() if trip is not None else "interrupted"
        notes.append(f"{name}{f' [{experiment}]' if experiment else ''}: "
                     f"PARTIAL — {detail}")
    if report_dir:
        emit_report(run, report_dir, experiment=experiment)
    return run


# ----------------------------------------------------------------------
# Figure 8(a): quasi-succinctness, 2-var constraint only (Section 7.1)
# ----------------------------------------------------------------------
FIG8A_OVERLAPS = (16.6, 33.3, 50.0, 66.7, 83.4)


def fig8a_speedups(
    overlaps: Sequence[float] = FIG8A_OVERLAPS,
    scale: str = "full",
    report_dir: Optional[str] = None,
    deadline: Optional[float] = None,
) -> ExperimentResult:
    """Speedup of exploiting quasi-succinctness vs Apriori+, by overlap."""
    rows: List[List[object]] = []
    notes: List[str] = []
    for overlap in overlaps:
        workload = fig8a_workload(overlap, **_scale_kwargs(scale))
        cfq = workload.cfq()
        tag = f"fig8a-{overlap:g}"
        optimized = _strategy("quasi-succinct", workload.db, cfq,
                              report_dir=report_dir, experiment=tag,
                              deadline=deadline, notes=notes)
        baseline = _strategy("apriori+", workload.db, cfq, kind="apriori_plus",
                             report_dir=report_dir, experiment=tag,
                             deadline=deadline, notes=notes)
        rows.append(
            [
                overlap,
                round(optimized.speedup_over(baseline), 2),
                optimized.counters.total_counted,
                baseline.counters.total_counted,
            ]
        )
    return ExperimentResult(
        experiment="Figure 8(a): max(S.Price) <= min(T.Price), speedup vs Apriori+",
        headers=["overlap_pct", "speedup", "sets_counted_opt", "sets_counted_base"],
        rows=rows,
        paper="~4x at 16.6% overlap, decreasing to >1.5x at 83.4%",
        notes=notes,
    )


def fig8a_level_table(
    overlap: float = 16.6,
    scale: str = "full",
    report_dir: Optional[str] = None,
    deadline: Optional[float] = None,
) -> ExperimentResult:
    """The Section 7.1 per-level a/b table (valid/total frequent sets)."""
    workload = fig8a_workload(overlap, **_scale_kwargs(scale))
    cfq = workload.cfq()
    tag = f"fig8a-levels-{overlap:g}"
    notes: List[str] = []
    optimized = _strategy("quasi-succinct", workload.db, cfq,
                          report_dir=report_dir, experiment=tag,
                          deadline=deadline, notes=notes)
    baseline = _strategy("apriori+", workload.db, cfq, kind="apriori_plus",
                         report_dir=report_dir, experiment=tag,
                         deadline=deadline, notes=notes)
    rows: List[List[object]] = []
    for var in cfq.variables:
        opt_levels = optimized.result.raw.result_for(var).frequent
        base_levels = baseline.result.lattices[var].frequent
        deepest = max([k for k, v in base_levels.items() if v], default=0)
        entries = [
            f"{len(opt_levels.get(k, {}))}/{len(base_levels.get(k, {}))}"
            for k in range(1, deepest + 1)
        ]
        rows.append([f"for {var}"] + entries + [""] * (8 - len(entries)))
    return ExperimentResult(
        experiment=f"Section 7.1 level table at {overlap}% overlap "
        f"(valid/total frequent sets per level)",
        headers=["var"] + [f"L{k}" for k in range(1, 9)],
        rows=rows,
        paper="S: 425/425 153/372 54/179 21/122 6/48 1/8; "
        "T: 402/402 112/414 8/181 0/123 0/48 0/8",
        notes=notes,
    )


FIG8A_RANGES = ((300.0, 1000.0), (400.0, 1000.0), (500.0, 1000.0))


def fig8a_range_table(
    overlap: float = 50.0,
    ranges: Sequence[Tuple[float, float]] = FIG8A_RANGES,
    scale: str = "full",
    report_dir: Optional[str] = None,
    deadline: Optional[float] = None,
) -> ExperimentResult:
    """Section 7.1's range table: speedup at 50% overlap for widening
    S.Price ranges."""
    rows: List[List[object]] = []
    notes: List[str] = []
    for s_range in ranges:
        workload = fig8a_workload(overlap, s_price_range=s_range, **_scale_kwargs(scale))
        cfq = workload.cfq()
        tag = f"fig8a-range-{s_range[0]:g}-{s_range[1]:g}"
        optimized = _strategy("quasi-succinct", workload.db, cfq,
                              report_dir=report_dir, experiment=tag,
                              deadline=deadline, notes=notes)
        baseline = _strategy("apriori+", workload.db, cfq, kind="apriori_plus",
                             report_dir=report_dir, experiment=tag,
                             deadline=deadline, notes=notes)
        rows.append(
            [f"[{s_range[0]:g},{s_range[1]:g}]",
             round(optimized.speedup_over(baseline), 2)]
        )
    return ExperimentResult(
        experiment=f"Section 7.1 range table ({overlap:g}% overlap)",
        headers=["S.Price range", "speedup"],
        rows=rows,
        paper="[300,1000]: 1.52x, [400,1000]: 1.84x, [500,1000]: 2.07x "
        "(wider range => less selective => smaller speedup)",
        notes=notes,
    )


# ----------------------------------------------------------------------
# Figure 8(b): 2-var on top of 1-var constraints (Section 7.2)
# ----------------------------------------------------------------------
FIG8B_OVERLAPS = (20.0, 40.0, 60.0, 80.0)


def fig8b_speedups(
    overlaps: Sequence[float] = FIG8B_OVERLAPS,
    scale: str = "full",
    report_dir: Optional[str] = None,
    deadline: Optional[float] = None,
) -> ExperimentResult:
    """Three strategies vs Type overlap: Apriori+, CAP (1-var only), and
    the full optimizer (1-var + quasi-succinct 2-var)."""
    rows: List[List[object]] = []
    notes: List[str] = []
    for overlap in overlaps:
        workload = fig8b_workload(overlap, **_scale_kwargs(scale))
        cfq = workload.cfq()
        tag = f"fig8b-{overlap:g}"
        baseline = _strategy("apriori+", workload.db, cfq, kind="apriori_plus",
                             report_dir=report_dir, experiment=tag,
                             deadline=deadline, notes=notes)
        cap_only = _strategy(
            "cap-1var", workload.db, cfq, use_reduction=False, use_jmax=False,
            report_dir=report_dir, experiment=tag,
            deadline=deadline, notes=notes,
        )
        full = _strategy("optimizer", workload.db, cfq,
                         report_dir=report_dir, experiment=tag,
                         deadline=deadline, notes=notes)
        rows.append(
            [
                overlap,
                round(cap_only.speedup_over(baseline), 2),
                round(full.speedup_over(baseline), 2),
                round(cap_only.cost / full.cost, 2),
            ]
        )
    return ExperimentResult(
        experiment="Figure 8(b): T.Price/S.Price ranges + S.Type = T.Type",
        headers=["overlap_pct", "speedup_1var_only", "speedup_1var_2var", "ratio"],
        rows=rows,
        paper="1-var only: flat ~1.5x; 1-var + 2-var: ~20x at 20% overlap, "
        "~6x at 40%, decreasing with overlap",
        notes=notes,
    )


FIG8B_RANGES = (
    ((100.0, 1000.0), (0.0, 900.0)),
    ((400.0, 1000.0), (0.0, 600.0)),
    ((800.0, 1000.0), (0.0, 200.0)),
)


def fig8b_range_table(
    overlap: float = 40.0,
    ranges: Sequence[Tuple[Tuple[float, float], Tuple[float, float]]] = FIG8B_RANGES,
    scale: str = "full",
    report_dir: Optional[str] = None,
    deadline: Optional[float] = None,
) -> ExperimentResult:
    """Section 7.2's range table: both speedups and their ratio as the
    1-var ranges widen."""
    rows: List[List[object]] = []
    notes: List[str] = []
    for (s_range, t_range) in ranges:
        workload = fig8b_workload(
            overlap,
            s_price_min=s_range[0],
            t_price_max=t_range[1],
            **_scale_kwargs(scale),
        )
        cfq = workload.cfq()
        tag = f"fig8b-range-{s_range[0]:g}-{t_range[1]:g}"
        baseline = _strategy("apriori+", workload.db, cfq, kind="apriori_plus",
                             report_dir=report_dir, experiment=tag,
                             deadline=deadline, notes=notes)
        cap_only = _strategy(
            "cap-1var", workload.db, cfq, use_reduction=False, use_jmax=False,
            report_dir=report_dir, experiment=tag,
            deadline=deadline, notes=notes,
        )
        full = _strategy("optimizer", workload.db, cfq,
                         report_dir=report_dir, experiment=tag,
                         deadline=deadline, notes=notes)
        speed_1 = cap_only.speedup_over(baseline)
        speed_2 = full.speedup_over(baseline)
        rows.append(
            [
                f"[{s_range[0]:g},1000]",
                f"[0,{t_range[1]:g}]",
                round(speed_1, 2),
                round(speed_2, 2),
                round(speed_2 / speed_1, 2),
            ]
        )
    return ExperimentResult(
        experiment=f"Section 7.2 range table ({overlap:g}% Type overlap)",
        headers=["S.Price", "T.Price", "speedup_1var", "speedup_1and2var", "ratio"],
        rows=rows,
        paper="[100,1000]/[0,900]: 1.2x vs 5x (4.17); [400,1000]/[0,600]: "
        "1.5x vs 6x (4.0); [800,1000]/[0,200]: 20x vs 37.5x (1.875)",
        notes=notes,
    )


# ----------------------------------------------------------------------
# Section 7.3: sum(S.Price) <= sum(T.Price) with Jmax
# ----------------------------------------------------------------------
JMAX_MEANS = (400.0, 600.0, 800.0, 1000.0)


def jmax_table(
    means: Sequence[float] = JMAX_MEANS,
    scale: str = "full",
    report_dir: Optional[str] = None,
    deadline: Optional[float] = None,
) -> ExperimentResult:
    """Speedup of iterative Jmax pruning vs Apriori+ by mean T price."""
    rows: List[List[object]] = []
    notes: List[str] = []
    for mean in means:
        workload = jmax_workload(mean) if scale == "full" else jmax_workload(
            mean, n_transactions=300, core_size=10
        )
        cfq = workload.cfq()
        tag = f"jmax-{mean:g}"
        optimized = _strategy("jmax", workload.db, cfq,
                              report_dir=report_dir, experiment=tag,
                              deadline=deadline, notes=notes)
        baseline = _strategy("apriori+", workload.db, cfq, kind="apriori_plus",
                             report_dir=report_dir, experiment=tag,
                             deadline=deadline, notes=notes)
        histories = optimized.result.raw.bound_histories
        final_bound = (
            round(list(histories.values())[0][-1][1]) if histories else None
        )
        rows.append(
            [
                mean,
                round(optimized.speedup_over(baseline), 2),
                optimized.counters.counted_for("S"),
                baseline.counters.counted_for("S"),
                final_bound,
            ]
        )
    return ExperimentResult(
        experiment="Section 7.3: sum(S.Price) <= sum(T.Price), Jmax pruning",
        headers=["t_price_mean", "speedup", "s_sets_counted", "s_sets_base",
                 "final_bound"],
        rows=rows,
        paper="mean 400: 3.14x, 600: 1.91x, 800: 1.36x, 1000: 1.11x "
        "(less selective => smaller speedup)",
        notes=notes,
    )


# ----------------------------------------------------------------------
# ccc audit and ablations
# ----------------------------------------------------------------------
def ccc_experiment(
    scale: str = "smoke",
    report_dir: Optional[str] = None,
    deadline: Optional[float] = None,
) -> ExperimentResult:
    """Audit Theorem 4 / Corollary 2 on a quasi-succinct query, plus the
    FM and Apriori+ contrast.

    ``deadline`` is accepted for CLI uniformity but unused: the audit is
    a single small fixed-size run.
    """
    from repro.datagen.workloads import quickstart_workload

    workload = quickstart_workload(n_transactions=400)
    cfq = workload.cfq()
    result, report = audit_ccc(workload.db, cfq)
    rows = [
        [
            "optimizer",
            report.condition1_mgf,
            report.condition1_complete,
            report.condition2,
            report.ccc_optimal,
        ]
    ]
    return ExperimentResult(
        experiment="ccc-optimality audit (Definition 6)",
        headers=["strategy", "cond1_only_valid", "cond1_complete", "cond2",
                 "ccc_optimal"],
        rows=rows,
        paper="Corollary 2: the optimizer's strategy is ccc-optimal for "
        "1-var succinct + 2-var quasi-succinct constraints",
    )


def ablation_table(
    scale: str = "full",
    report_dir: Optional[str] = None,
    deadline: Optional[float] = None,
) -> ExperimentResult:
    """Design-choice ablations: reduction, Jmax, dovetailing."""
    rows: List[List[object]] = []
    notes: List[str] = []

    workload = fig8a_workload(33.3, **_scale_kwargs(scale))
    cfq = workload.cfq()
    baseline = _strategy("apriori+", workload.db, cfq, kind="apriori_plus",
                         report_dir=report_dir, experiment="ablation-reduction",
                         deadline=deadline, notes=notes)
    with_reduction = _strategy("reduction on", workload.db, cfq,
                               report_dir=report_dir,
                               experiment="ablation-reduction",
                               deadline=deadline, notes=notes)
    without_reduction = _strategy(
        "reduction off", workload.db, cfq, use_reduction=False,
        report_dir=report_dir, experiment="ablation-reduction",
        deadline=deadline, notes=notes,
    )
    rows.append(
        [
            "fig8a @33.3%",
            "quasi-succinct reduction",
            round(with_reduction.speedup_over(baseline), 2),
            round(without_reduction.speedup_over(baseline), 2),
        ]
    )

    jmax_wl = jmax_workload(600.0)
    jmax_cfq = jmax_wl.cfq()
    jmax_base = _strategy("apriori+", jmax_wl.db, jmax_cfq, kind="apriori_plus",
                          report_dir=report_dir, experiment="ablation-jmax",
                          deadline=deadline, notes=notes)
    jmax_on = _strategy("jmax on", jmax_wl.db, jmax_cfq,
                        report_dir=report_dir, experiment="ablation-jmax",
                        deadline=deadline, notes=notes)
    jmax_off = _strategy("jmax off", jmax_wl.db, jmax_cfq, use_jmax=False,
                         report_dir=report_dir, experiment="ablation-jmax",
                         deadline=deadline, notes=notes)
    rows.append(
        [
            "jmax @mean 600",
            "iterative Jmax pruning",
            round(jmax_on.speedup_over(jmax_base), 2),
            round(jmax_off.speedup_over(jmax_base), 2),
        ]
    )

    dovetailed = _strategy("dovetail", jmax_wl.db, jmax_cfq,
                           report_dir=report_dir, experiment="ablation-dovetail",
                           deadline=deadline, notes=notes)
    sequential = _strategy("sequential", jmax_wl.db, jmax_cfq, dovetail=False,
                           report_dir=report_dir, experiment="ablation-dovetail",
                           deadline=deadline, notes=notes)
    rows.append(
        [
            "jmax @mean 600 (scans)",
            "dovetailed shared scans",
            dovetailed.counters.scans,
            sequential.counters.scans,
        ]
    )

    cascade = cascade_workload(
        n_transactions=_scale_kwargs(scale)["n_transactions"]
    )
    cascade_cfq = cascade.cfq()
    cascade_base = _strategy(
        "apriori+", cascade.db, cascade_cfq, kind="apriori_plus",
        report_dir=report_dir, experiment="ablation-cascade",
        deadline=deadline, notes=notes,
    )
    one_round = _strategy(
        "1 round", cascade.db, cascade_cfq, reduction_rounds=1,
        report_dir=report_dir, experiment="ablation-cascade",
        deadline=deadline, notes=notes,
    )
    fixpoint = _strategy(
        "fixpoint", cascade.db, cascade_cfq, reduction_rounds=4,
        report_dir=report_dir, experiment="ablation-cascade",
        deadline=deadline, notes=notes,
    )
    rows.append(
        [
            "cascade",
            "iterated reduction (extension)",
            round(fixpoint.speedup_over(cascade_base), 2),
            round(one_round.speedup_over(cascade_base), 2),
        ]
    )
    return ExperimentResult(
        experiment="Ablations (speedup vs Apriori+ with feature on / off; "
        "last row compares scan counts)",
        headers=["workload", "feature", "on", "off"],
        rows=rows,
        paper="Section 5.2 argues dovetailing shares scans; Sections 4-5 "
        "attribute the speedups to reduction and iterative pruning; "
        "iterated reduction is this reproduction's extension",
        notes=notes,
    )


class _CountTimer:
    """Transparent backend proxy accumulating ``count()`` wall time.

    Whole-run wall time mixes counting with candidate generation,
    constraint checking, and pair formation, which caps the apparent
    speedup of a fast kernel; the ablation therefore also reports
    counting time alone, measured here.  The proxy forwards the full
    backend protocol (``count``, ``open``/``close`` lifecycle, ``name``,
    ``stats``), so it is indistinguishable from the wrapped backend to
    the drivers.
    """

    def __init__(self, backend):
        self._backend = backend
        self.count_seconds = 0.0

    def count(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self._backend.count(*args, **kwargs)
        finally:
            self.count_seconds += time.perf_counter() - start

    def __getattr__(self, attr):
        return getattr(self._backend, attr)


def backend_table(
    scale: str = "full",
    parallel_workers: int = 4,
    report_dir: Optional[str] = None,
    deadline: Optional[float] = None,
) -> ExperimentResult:
    """Counting-backend comparison on the Figure 8(a) quest-generator
    workload: the hybrid enumerate/scan kernel vs the original Apriori
    hash tree vs vertical TID-lists vs the vectorized uint64 bitmap
    kernel vs transaction-sharded parallel counting (over the hybrid and
    bitmap kernels).  Every row counts projected transaction lists (the
    timing proxy is not a ``BitmapBackend``, so even the bitmap row
    skips the database index), which keeps the kernels comparable.
    All produce identical answers; the table reports
    elementary probe counts, whole-run wall time, counting-only wall
    time (every ``backend.count`` call, measured through a transparent
    proxy), and both speedups over the serial hybrid baseline.
    Counting-only speedup is the honest kernel comparison — whole-run
    time is bounded below by the non-counting pipeline, which the kernel
    cannot touch.  The parallel runs execute inside one
    ``backend_scope``, so the pool is forked once for the whole run;
    pool lifecycle/failure stats and bitmap matrix-cache stats are
    appended as notes."""
    from repro.mining.backends import ParallelBackend, backend_scope

    workload = fig8a_workload(50.0, **_scale_kwargs(scale))
    cfq = workload.cfq()
    specs = [
        ("hybrid", "hybrid"),
        ("hashtree", "hashtree"),
        ("vertical", "vertical"),
        ("bitmap", "bitmap"),
        (
            f"parallel[{parallel_workers}]",
            ParallelBackend(workers=parallel_workers, shard_threshold=0),
        ),
        (
            f"parallel[{parallel_workers}]+bitmap",
            ParallelBackend(workers=parallel_workers, shard_threshold=0,
                            kernel="bitmap"),
        ),
    ]
    rows: List[List[object]] = []
    notes: List[str] = []
    reference = None
    hybrid_wall = None
    hybrid_count = None
    for name, backend in specs:
        timer = _CountTimer(make_backend(backend))
        with backend_scope(timer):
            run = _strategy(name, workload.db, cfq, backend=timer,
                            report_dir=report_dir, experiment="backends",
                            deadline=deadline, notes=notes)
        sizes = dict(run.frequent_sizes)
        if reference is None:
            reference = sizes
            hybrid_wall = run.wall_seconds
            hybrid_count = timer.count_seconds
        if not run.is_partial:
            assert sizes == reference, "backends must agree on the answer"
        speedup = hybrid_wall / run.wall_seconds if run.wall_seconds else 0.0
        count_speedup = (
            hybrid_count / timer.count_seconds if timer.count_seconds else 0.0
        )
        rows.append(
            [
                name,
                run.counters.subset_tests,
                round(run.wall_seconds, 3),
                round(speedup, 2),
                round(timer.count_seconds, 4),
                round(count_speedup, 2),
                sum(sizes.values()),
            ]
        )
        stats = getattr(timer, "stats", None)
        if stats is not None and getattr(stats, "levels", None):
            notes.append(f"{name}: {stats.summary()}")
    return ExperimentResult(
        experiment="Counting-backend ablation (Figure 8(a) workload, 50% overlap)",
        headers=[
            "backend",
            "probe_count",
            "wall_seconds",
            "speedup_vs_hybrid",
            "count_seconds",
            "count_speedup",
            "frequent_valid_sets",
        ],
        rows=rows,
        paper="the paper's C implementation used the Apriori hash tree [2]; "
        "this compares it against the hybrid, vertical, vectorized "
        "bitmap, and transaction-sharded parallel layouts",
        notes=notes,
    )


# ----------------------------------------------------------------------
# Serving layer: repeated queries and interactive refinement
# ----------------------------------------------------------------------
def serving_repeated_table(
    scale: str = "full",
    report_dir: Optional[str] = None,
    deadline: Optional[float] = None,
) -> ExperimentResult:
    """Repeated-query serving: identical queries, cold vs warm wall time.

    Each query is executed twice through one
    :class:`~repro.serve.QueryService` — the first run is cold (mined,
    then stored in the fingerprinted result cache), the second is warm
    (rebuilt from the cached artifact).  Answers and operation counters
    are bit-identical either way (the serving differential suite proves
    it), so the table reports wall time only.
    """
    from repro.datagen.workloads import quickstart_workload
    from repro.serve import QueryService

    n_transactions = 1500 if scale == "full" else 500
    workload = quickstart_workload(n_transactions=n_transactions)
    queries = [
        ("full query", workload.cfq()),
        ("types only", workload.cfq(constraints=workload.constraints[:2])),
        ("tight minsup", workload.cfq(minsup=0.04)),
    ]
    service = QueryService()
    rows: List[List[object]] = []
    notes: List[str] = []
    for label, cfq in queries:
        tag = f"serving-repeated-{label.replace(' ', '-')}"
        cold = _strategy(f"{label} (cold)", workload.db, cfq,
                         service=service, report_dir=report_dir,
                         experiment=tag, deadline=deadline, notes=notes)
        warm = _strategy(f"{label} (warm)", workload.db, cfq,
                         service=service, report_dir=report_dir,
                         experiment=tag, deadline=deadline, notes=notes)
        source = (warm.result.cache_info or {}).get("source", "cold")
        rows.append(
            [
                label,
                round(cold.wall_seconds, 4),
                round(warm.wall_seconds, 4),
                round(cold.wall_seconds / warm.wall_seconds, 1)
                if warm.wall_seconds else float("inf"),
                source,
            ]
        )
    notes.append(f"cache: {service.stats.summary()}")
    return ExperimentResult(
        experiment="Serving: repeated queries (cold vs warm wall time)",
        headers=["query", "cold_seconds", "warm_seconds", "speedup", "source"],
        rows=rows,
        paper="(no paper counterpart: the serving layer is this "
        "reproduction's extension; answers are bit-identical cold or warm)",
        notes=notes,
    )


def serving_refinement_table(
    scale: str = "full",
    report_dir: Optional[str] = None,
    deadline: Optional[float] = None,
) -> ExperimentResult:
    """Interactive refinement served as a shared-scan batch.

    The session of :func:`~repro.datagen.workloads.refinement_queries`
    (broad scan tightening toward the workload query) is answered two
    ways: every step mined cold and independently, and the whole session
    as one batch — one frequency skeleton mined at the opening (weakest)
    threshold, every step served from it.
    """
    from repro.datagen.workloads import quickstart_workload, refinement_queries
    from repro.serve import QueryService

    n_transactions = 1500 if scale == "full" else 500
    workload = quickstart_workload(n_transactions=n_transactions)
    session = refinement_queries(workload)
    notes: List[str] = []
    cold_runs = [
        _strategy(f"step {i} (cold)", workload.db, cfq,
                  report_dir=report_dir,
                  experiment=f"serving-refine-{i}",
                  deadline=deadline, notes=notes)
        for i, cfq in enumerate(session, start=1)
    ]
    service = QueryService()
    batch = service.execute_batch(workload.db, session)
    rows: List[List[object]] = []
    for i, (cold, item) in enumerate(zip(cold_runs, batch.items), start=1):
        rows.append(
            [
                i,
                str(item.cfq)[:46],
                round(cold.wall_seconds, 4),
                round(item.wall_seconds, 4),
                item.source,
            ]
        )
    cold_total = sum(run.wall_seconds for run in cold_runs)
    batch_total = (
        sum(item.wall_seconds for item in batch.items)
        + batch.skeleton_build_seconds
    )
    notes.append(
        f"session totals: cold {cold_total:.4f}s vs batch {batch_total:.4f}s "
        f"(incl. skeleton build {batch.skeleton_build_seconds:.4f}s); "
        f"cache: {service.stats.summary()}"
    )
    return ExperimentResult(
        experiment="Serving: interactive refinement (per-step cold runs vs "
        "one shared-scan batch)",
        headers=["step", "query", "cold_seconds", "batch_seconds", "source"],
        rows=rows,
        paper="(no paper counterpart: batch shared-scan serving generalizes "
        "the Section 5.2 dovetailing idea across queries)",
        notes=notes,
    )

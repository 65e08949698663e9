"""Strategy runners with uniform instrumentation.

A :class:`StrategyRun` captures everything a comparison needs: the
deterministic operation-count cost (the primary metric, mirroring the
paper's CPU+I/O total — see DESIGN.md), wall-clock time, and the answer
sizes (used to assert that all strategies agree).  With ``trace=True``
a run also carries a full observability trace, and :func:`emit_report`
exports it as the same versioned run-report JSON the CLI's
``--trace-out`` writes, so benchmark rows are reproducible artifacts.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.optimizer import CFQOptimizer
from repro.core.query import CFQ
from repro.db.stats import OpCounters
from repro.db.transactions import TransactionDatabase
from repro.errors import RunInterrupted
from repro.mining.aprioriplus import AprioriPlusResult, apriori_plus
from repro.obs.report import RunReport, build_run_report
from repro.obs.trace import Tracer
from repro.runtime.guard import RunGuard


@dataclass
class StrategyRun:
    """Outcome of running one strategy on one workload."""

    name: str
    cost: float
    wall_seconds: float
    counters: OpCounters
    frequent_sizes: Dict[str, int]
    result: object = field(repr=False, default=None)
    tracer: object = field(repr=False, default=None)
    #: ``"complete"`` or ``"partial"`` (run guard tripped mid-mine).
    status: str = "complete"
    #: The :class:`~repro.runtime.guard.GuardTrip` for partial runs.
    trip: object = field(repr=False, default=None)

    @property
    def is_partial(self) -> bool:
        return self.status == "partial"

    def speedup_over(self, baseline: "StrategyRun") -> float:
        """Baseline cost divided by this run's cost."""
        return baseline.cost / self.cost if self.cost else float("inf")


def run_strategy(
    name: str,
    db: TransactionDatabase,
    cfq: CFQ,
    *,
    kind: str = "optimizer",
    trace: bool = False,
    deadline: Optional[float] = None,
    guard: Optional[RunGuard] = None,
    service=None,
    **options,
) -> StrategyRun:
    """Run one strategy (``optimizer`` with options, or ``apriori_plus``).

    Only the mining phase is timed and costed — the paper's measurements
    cover step (i), finding the frequent valid sets; pair formation is
    excluded for every strategy alike (Section 6.2).  ``trace=True``
    attaches a :class:`~repro.obs.trace.Tracer` to the run (supports and
    counters are unaffected — see ``tests/test_obs_differential.py``).

    ``deadline`` (seconds) builds a fresh :class:`RunGuard` for this run;
    alternatively pass an explicit ``guard``.  A tripped guard yields a
    ``status="partial"`` run instead of raising, so benchmark tables can
    include interrupted rows uniformly.

    ``service`` routes an ``optimizer`` run through a
    :class:`~repro.serve.QueryService` (result cache, then skeleton
    oracle, then cold) — the serving-workload benchmarks use this to
    measure cold-vs-warm wall time under identical instrumentation.

    Every strategy counts with the ``hybrid`` backend unless ``backend``
    names another: ``cost`` weights ``subset_tests``, whose unit is the
    counting kernel's, so the paper-figure tables compare strategies in
    one unit.
    """
    if guard is None and deadline is not None:
        guard = RunGuard(deadline_seconds=deadline)
    options.setdefault("backend", "hybrid")
    counters = OpCounters()
    tracer = Tracer() if trace else None
    status, trip = "complete", None
    start = time.perf_counter()
    if kind == "apriori_plus":
        try:
            result = apriori_plus(
                db, cfq, counters=counters, tracer=tracer, guard=guard,
                backend=options["backend"],
            )
        except RunInterrupted as exc:
            result = AprioriPlusResult(
                cfq=cfq, counters=counters, lattices=exc.partial or {}
            )
            status, trip = "partial", exc.trip
        frequent_sizes = {var: len(result.frequent(var)) for var in cfq.variables}
    elif kind == "optimizer":
        if service is not None:
            result = service.execute(
                db, cfq, counters=counters, tracer=tracer, guard=guard,
                **options,
            )
        else:
            result = CFQOptimizer(cfq).execute(
                db, counters=counters, tracer=tracer, guard=guard, **options
            )
        status = getattr(result, "status", "complete")
        trip = getattr(result, "interruption", None)
        frequent_sizes = {
            var: len(result.frequent_valid(var)) for var in cfq.variables
        }
    else:
        raise ValueError(f"unknown strategy kind {kind!r}")
    wall = time.perf_counter() - start
    return StrategyRun(
        name=name,
        cost=counters.cost(),
        wall_seconds=wall,
        counters=counters,
        frequent_sizes=frequent_sizes,
        result=result,
        tracer=tracer,
        status=status,
        trip=trip,
    )


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "run"


def emit_report(
    run: StrategyRun,
    report_dir: str,
    experiment: Optional[str] = None,
) -> str:
    """Write one run-report JSON for a finished :class:`StrategyRun`.

    The document matches the CLI's ``--trace-out`` schema
    (:class:`~repro.obs.report.RunReport`); the filename combines the
    experiment and strategy names.  Returns the written path.
    """
    result = run.result
    meta = {
        "strategy": run.name,
        "cost": run.cost,
        "wall_seconds": round(run.wall_seconds, 6),
        "status": run.status,
    }
    if experiment:
        meta["experiment"] = experiment
    if hasattr(result, "raw"):
        report = build_run_report(result, tracer=run.tracer, meta=meta)
    else:
        # Apriori+ has no dovetail result; emit counters + trace only.
        tracer = run.tracer
        report = RunReport(
            meta=meta,
            trace=tracer.to_dict() if tracer is not None else {"spans": []},
            metrics=(
                tracer.metrics.as_dict() if tracer is not None
                else {"counters": {}, "gauges": {}, "histograms": {}}
            ),
            op_counters={"cost": run.counters.cost(),
                         **{k: v for k, v in run.counters.as_dict().items()
                            if not isinstance(v, dict)}},
            answers={"frequent": dict(run.frequent_sizes),
                     "status": run.status},
            interruption=run.trip.as_dict() if run.trip is not None else None,
        )
    os.makedirs(report_dir, exist_ok=True)
    stem = _slug(f"{experiment}-{run.name}" if experiment else run.name)
    return report.write(os.path.join(report_dir, f"{stem}.json"))


def compare_strategies(
    db: TransactionDatabase,
    cfq: CFQ,
    strategies: Sequence[Dict],
) -> List[StrategyRun]:
    """Run several strategies on the same query.

    Each entry of ``strategies`` is a dict of :func:`run_strategy`
    keyword arguments including ``name`` (and optionally ``kind`` and
    optimizer options).
    """
    runs = []
    for spec in strategies:
        spec = dict(spec)
        name = spec.pop("name")
        runs.append(run_strategy(name, db, cfq, **spec))
    return runs

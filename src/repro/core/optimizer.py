"""The CFQ query optimizer (Section 6, Figure 7).

Given a CFQ, the optimizer produces an
:class:`~repro.core.plan.ExecutionPlan`:

1. split the constraint set ``C = C1 ∪ C2`` (purely syntactic);
2. split ``C2 = Cqs ∪ Cnqs`` by quasi-succinctness (Figure 1);
3. induce a weaker quasi-succinct constraint from each member of
   ``Cnqs`` (Figure 4) and schedule the ``J^k_max`` iterative pruning for
   the sum/avg sides (Section 5.2);
4. schedule every member of (the possibly enlarged) ``Cqs`` for reduction
   to 1-var succinct constraints after level 1 (Figures 2/3);
5. hand ``C1`` plus the reduced constraints to CAP, via the dovetailed
   dual-lattice engine;
6. form the final valid pairs, re-verifying the original constraints.

The strategy is ccc-optimal for the class of 1-var succinct and 2-var
quasi-succinct constraints (Theorem 4 and Corollary 2); the audit in
:mod:`repro.core.ccc` verifies the two conditions of Definition 6 on
concrete runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.constraints.twovar import AggAggShape, TwoVarView
from repro.core.classify import classify_twovar
from repro.core.induction import induce_weaker
from repro.core.pairs import form_valid_pairs, rules_from_pairs, valid_sets_existential
from repro.core.plan import ExecutionPlan, JmaxPlan, ReductionPlan, VarPlan
from repro.core.query import CFQ
from repro.db.stats import OpCounters
from repro.db.transactions import TransactionDatabase
from repro.errors import RunInterrupted
from repro.mining.dovetail import DovetailEngine, DovetailResult
from repro.obs.trace import resolve_tracer
from repro.runtime.checkpoint import CheckpointManager, run_fingerprint
from repro.runtime.guard import resolve_guard
from repro.itemsets import Itemset


@dataclass
class CFQResult:
    """The answer to a CFQ plus full instrumentation.

    ``status`` is ``"complete"`` for a run that finished, ``"partial"``
    for one cut short by a :class:`~repro.runtime.guard.RunGuard` budget
    or a signal — then ``interruption`` carries the
    :class:`~repro.runtime.guard.GuardTrip` and the per-variable results
    cover only the levels completed before the trip (see
    ``docs/run-lifecycle.md`` for the exact partial-result contract).
    ``guard`` is the guard the run carried, if any; its telemetry feeds
    :meth:`explain` and the run report's ``budget`` block.
    """

    cfq: CFQ
    plan: ExecutionPlan
    counters: OpCounters
    raw: DovetailResult
    backend: object = None
    trace: object = None
    status: str = "complete"
    interruption: object = None
    guard: object = None
    #: How the serving layer answered this query, when a cache was in
    #: play: ``{"source": "result-cache" | "skeleton" | "cold", ...}``
    #: plus fingerprints, timings, and a cache-stats snapshot.  ``None``
    #: for plain uncached runs.
    cache_info: Optional[Dict] = None

    @property
    def is_partial(self) -> bool:
        return self.status == "partial"

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def frequent_valid(self, var: str) -> Dict[Itemset, int]:
        """The frequent sets of ``var`` surviving all pushed pruning.

        For induced (weaker) constraints this may include sets invalid for
        the original constraint; :meth:`valid_sets` and :meth:`pairs`
        apply the exact verification (footnote 4 of the paper).
        """
        return self.raw.result_for(var).all_sets()

    def valid_sets(self, var: str) -> Dict[Itemset, int]:
        """Frequent sets of ``var`` participating in at least one valid pair
        (for single-variable queries: the frequent valid sets directly)."""
        variables = self.cfq.variables
        if len(variables) == 1:
            return self.frequent_valid(var)
        other = variables[0] if variables[1] == var else variables[1]
        return valid_sets_existential(
            self.frequent_valid(var),
            self.frequent_valid(other),
            self.cfq.parsed,
            var,
            other,
            self.cfq.domains,
            self.counters,
        )

    def pairs(self, limit: Optional[int] = None) -> List[Tuple[Itemset, Itemset]]:
        """The frequent valid pairs — the answer to the CFQ."""
        variables = self.cfq.variables
        if len(variables) != 2:
            raise ValueError("pairs() requires a 2-variable CFQ")
        s_var, t_var = variables
        return form_valid_pairs(
            self.frequent_valid(s_var),
            self.frequent_valid(t_var),
            self.cfq.parsed,
            self.cfq.domains,
            s_var=s_var,
            t_var=t_var,
            counters=self.counters,
            limit=limit,
        )

    def rules(self, db: TransactionDatabase, min_confidence: float = 0.0):
        """Phase-2 association rules from the valid pairs."""
        return rules_from_pairs(self.pairs(), db, min_confidence)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(self) -> str:
        """The executed plan, bound histories, per-level pruning table
        and operation counts."""
        from repro.obs.report import pruning_summary, render_pruning_table

        lines = [self.plan.explain()]
        if self.is_partial:
            trip = self.interruption
            lines.append(
                f"  status: PARTIAL — interrupted by {trip.summary()}"
                if trip is not None
                else "  status: PARTIAL"
            )
            lines.append(
                "  partial results cover completed levels only; deeper "
                "sets were never counted"
            )
        for key, history in self.raw.bound_histories.items():
            rendered = ", ".join(f"W^{k}={bound:.6g}" for k, bound in history)
            lines.append(f"  bound series {key}: {rendered}")
        for note in self.raw.disabled_jmax:
            lines.append(f"  note: {note}")
        pruning = pruning_summary(self.raw)
        if pruning:
            lines.append(render_pruning_table(pruning))
        lines.append("  operation counts:")
        for name, value in self.counters.as_dict().items():
            lines.append(f"    {name}: {value}")
        stats = getattr(self.backend, "stats", None)
        if stats is not None and getattr(stats, "levels", None):
            label = getattr(stats, "explain_label", "parallel counting")
            lines.append(f"  {label}: {stats.summary()}")
        if self.cache_info:
            info = self.cache_info
            source = info.get("source", "unknown")
            if info.get("tier"):
                source = f"{source} ({info['tier']} tier)"
            lines.append(f"  cache: source {source}")
            for label, key in (
                ("dataset", "dataset_fingerprint"),
                ("query", "query_fingerprint"),
            ):
                if info.get(key):
                    lines.append(f"    {label} fingerprint: {info[key][:16]}...")
            if info.get("cold_wall_seconds") is not None:
                lines.append(
                    f"    cold wall seconds: {info['cold_wall_seconds']:.6f}"
                )
            if info.get("warm_wall_seconds") is not None:
                lines.append(
                    f"    warm wall seconds: {info['warm_wall_seconds']:.6f}"
                )
            stats_block = info.get("stats")
            if stats_block:
                rendered = ", ".join(
                    f"{name}={value}" for name, value in stats_block.items()
                )
                lines.append(f"    stats: {rendered}")
        if self.guard is not None and getattr(self.guard, "enabled", False):
            telemetry = self.guard.telemetry()
            budgets = {
                name: value
                for name, value in telemetry["budgets"].items()
                if value is not None
            }
            consumed = telemetry["consumed"]
            lines.append("  run budgets:")
            if budgets:
                for name, value in budgets.items():
                    lines.append(f"    {name}: {value}")
            else:
                lines.append("    (none configured; guard active for "
                             "cancellation only)")
            lines.append(
                f"    consumed: {consumed['elapsed_seconds']:.3f}s elapsed"
                + (
                    f", peak rss {consumed['peak_rss_mb']:.0f}MB"
                    if consumed["peak_rss_mb"] is not None
                    else ""
                )
                + f", {consumed['checks']} cooperative checks"
            )
        return "\n".join(lines)


class CFQOptimizer:
    """Builds and executes ccc-conscious strategies for CFQs."""

    def __init__(self, cfq: CFQ):
        self.cfq = cfq

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, db: TransactionDatabase, tracer=None) -> ExecutionPlan:
        """Construct the Figure 7 strategy for this query."""
        tracer = resolve_tracer(tracer)
        cfq = self.cfq
        with tracer.span("optimizer.plan", query=str(cfq)):
            var_plans = {
                var: VarPlan(
                    var=var,
                    domain=cfq.domains[var],
                    min_count=db.min_count(cfq.minsup_for(var)),
                    base_constraints=cfq.onevar_for(var),
                )
                for var in cfq.variables
            }
            plan = ExecutionPlan(var_plans=var_plans)
            for constraint in cfq.twovar:
                view = TwoVarView.of(constraint)
                self._plan_twovar(view, plan, tracer)
            for note in plan.notes:
                tracer.event("plan.note", note=note)
        return plan

    def _plan_twovar(self, view: TwoVarView, plan: ExecutionPlan, tracer=None) -> None:
        tracer = resolve_tracer(tracer)
        with tracer.span("plan.classify", constraint=str(view)) as classify_span:
            properties = classify_twovar(view)
            classify_span.set(
                recognized=view.shape is not None,
                quasi_succinct=bool(properties.quasi_succinct),
            )
        if view.shape is None:
            plan.notes.append(
                f"{view}: unrecognized 2-var form; verified at pair formation only"
            )
            return
        if properties.quasi_succinct:
            with tracer.span("plan.reduce", constraint=str(view), induced=False):
                plan.reductions.append(ReductionPlan(view))
            return
        shape = view.shape
        if not isinstance(shape, AggAggShape):
            plan.notes.append(
                f"{view}: non-quasi-succinct non-aggregate form; pair-time only"
            )
            return
        if not self._sides_non_negative(shape):
            plan.notes.append(
                f"{view}: aggregated domain may be negative; the Section 5 "
                f"machinery is invalid there, so the constraint is verified "
                f"at pair formation only"
            )
            return
        with tracer.span("plan.induce", constraint=str(view)) as induce_span:
            induced = induce_weaker(view)
            induce_span.set(
                weaker=str(induced.weaker) if induced.weaker is not None else None,
                pruned_var=induced.pruned_var,
            )
        if induced.weaker is not None:
            with tracer.span("plan.reduce", constraint=str(induced.weaker),
                             induced=True):
                plan.reductions.append(
                    ReductionPlan(induced.weaker, induced_from=view.constraint)
                )
        oriented = shape if shape.op.is_le_like or shape.op.value in ("=",) else (
            shape.oriented(shape.right_var)
        )
        if induced.pruned_var is not None and oriented.right_func in ("sum", "avg"):
            with tracer.span(
                "plan.jmax",
                constraint=str(view),
                bound_var=oriented.right_var,
                bound_kind=oriented.right_func,
                pruned_var=induced.pruned_var,
            ):
                plan.jmax.append(
                    JmaxPlan(
                        bound_var=oriented.right_var,
                        bound_attr=oriented.right_attr,
                        bound_kind=oriented.right_func,
                        pruned_var=induced.pruned_var,
                        pruned_func=induced.pruned_func,
                        pruned_attr=induced.pruned_attr,
                        strict=induced.strict,
                        source=str(view),
                    )
                )
        if induced.weaker is None and induced.pruned_var is None:
            plan.notes.append(
                f"{view}: nothing to induce (Figure 4 does not apply); "
                f"pair-time verification only"
            )

    def _sides_non_negative(self, shape: AggAggShape) -> bool:
        for var, attr in (
            (shape.left_var, shape.left_attr),
            (shape.right_var, shape.right_attr),
        ):
            domain = self.cfq.domains[var]
            if attr is None:
                values = [domain.element_value(e) for e in domain.elements]
                if not all(isinstance(v, (int, float)) and v >= 0 for v in values):
                    return False
            elif not domain.catalog.non_negative_attribute(attr):
                return False
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        db: TransactionDatabase,
        counters: Optional[OpCounters] = None,
        dovetail: bool = True,
        use_reduction: bool = True,
        use_jmax: bool = True,
        keep_candidates: bool = False,
        backend=None,
        reduction_rounds: int = 1,
        tracer=None,
        guard=None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        cache=None,
        support_oracle=None,
    ) -> CFQResult:
        """Plan and run the query; the keyword flags drive the ablations.

        ``guard`` is an optional :class:`~repro.runtime.guard.RunGuard`:
        when one of its budgets trips (or cancellation was requested) the
        run unwinds and a ``status="partial"`` result is returned instead
        of raising — the completed levels, the trip, and the guard
        telemetry are all on the result.  ``checkpoint_dir`` enables
        crash-safe checkpointing after every completed level;
        ``resume=True`` additionally replays a stored checkpoint (the
        fingerprint must match this query, database, and option set).

        ``cache`` is a duck-typed result-cache hook (the serving layer's
        :class:`~repro.serve.QueryService` supplies one): an object with
        ``lookup(db, cfq, options)`` returning ``None`` or a hit carrying
        ``raw``/``counters_snapshot``/``info``, and ``store(db, cfq,
        options, result, elapsed_seconds)``.  A hit skips mining entirely
        (the caller's ``counters`` are overwritten with the cold run's
        snapshot, exactly as checkpoint resume does); a miss stores the
        completed result.  Runs that checkpoint, resume, or keep
        candidate logs bypass the cache, and partial (guard-tripped)
        results are never stored.  ``support_oracle`` substitutes cached
        skeleton supports for database passes (see
        :class:`~repro.mining.dovetail.DovetailEngine`); such a run is
        still served a hit, but is never stored, because its scans,
        subset tests and tuples read are not a cold run's.
        """
        tracer = resolve_tracer(tracer)
        guard = resolve_guard(guard)
        cache_options = {
            "dovetail": dovetail,
            "use_reduction": use_reduction,
            "use_jmax": use_jmax,
            "reduction_rounds": reduction_rounds,
        }
        cacheable = (
            cache is not None
            and checkpoint_dir is None
            and not resume
            and not keep_candidates
        )
        if cacheable:
            hit = cache.lookup(db, self.cfq, cache_options)
            if hit is not None:
                plan = self.plan(db, tracer=tracer)
                if counters is None:
                    counters = OpCounters()
                counters.restore(hit.counters_snapshot)
                raw = hit.raw
                raw.counters = counters
                tracer.event("cache.hit", query=str(self.cfq))
                return CFQResult(
                    cfq=self.cfq,
                    plan=plan,
                    counters=counters,
                    raw=raw,
                    backend=None,
                    trace=tracer if tracer.enabled else None,
                    status="complete",
                    cache_info=dict(getattr(hit, "info", None) or {}),
                )
        checkpointer = None
        if checkpoint_dir is not None:
            fingerprint = run_fingerprint(
                str(self.cfq), db,
                {
                    "dovetail": dovetail,
                    "use_reduction": use_reduction,
                    "use_jmax": use_jmax,
                    "reduction_rounds": reduction_rounds,
                    "max_level": self.cfq.max_level,
                },
            )
            checkpointer = CheckpointManager(checkpoint_dir, fingerprint)
        elif resume:
            raise ValueError("resume=True requires a checkpoint_dir")
        status = "complete"
        interruption = None
        with tracer.span("optimizer.execute", query=str(self.cfq)):
            plan = self.plan(db, tracer=tracer)
            engine = DovetailEngine(
                db,
                plan,
                counters=counters,
                dovetail=dovetail,
                use_reduction=use_reduction,
                use_jmax=use_jmax,
                max_level=self.cfq.max_level,
                keep_candidates=keep_candidates,
                backend=backend,
                reduction_rounds=reduction_rounds,
                tracer=tracer,
                guard=guard,
                checkpointer=checkpointer,
                resume=resume,
                support_oracle=support_oracle,
            )
            start = time.perf_counter()
            try:
                raw = engine.run()
            except RunInterrupted as exc:
                # Graceful degradation: package whatever completed as a
                # well-labeled partial result instead of re-raising.
                status = "partial"
                interruption = exc.trip
                raw = engine.partial_result()
                tracer.event(
                    "run.interrupted",
                    reason=getattr(exc.trip, "reason", None),
                    detail=str(exc),
                )
            elapsed = time.perf_counter() - start
        result = CFQResult(
            cfq=self.cfq,
            plan=plan,
            counters=engine.counters,
            raw=raw,
            backend=engine.backend,
            trace=tracer if tracer.enabled else None,
            status=status,
            interruption=interruption,
            guard=guard if guard.enabled else None,
        )
        if cacheable and support_oracle is None and status == "complete":
            result.cache_info = cache.store(
                db, self.cfq, cache_options, result, elapsed
            )
        return result


def mine_cfq(
    db: TransactionDatabase,
    cfq: CFQ,
    counters: Optional[OpCounters] = None,
    **options,
) -> CFQResult:
    """One-call entry point: optimize and execute a CFQ."""
    return CFQOptimizer(cfq).execute(db, counters=counters, **options)

"""The dovetailed dual-lattice engine (Sections 4–6).

This engine executes an :class:`~repro.core.plan.ExecutionPlan`:

1. **Level 1** — counts all (filter-passing) singletons for both
   variables in one shared scan.
2. **Reduction hook** — reduces each quasi-succinct (or induced weaker)
   2-var constraint into 1-var succinct constraints using the two L1s
   (Figures 2/3) and installs them into the lattices, *before* any level-2
   candidate is generated.
3. **Jmax hook** — starts a :class:`~repro.core.jmax.BoundSeries` per
   non-quasi-succinct sum/avg constraint and installs a dynamic pruning
   condition on the lesser side; the bound tightens after every level of
   the greater side's lattice.
4. **Dovetailed levels** — both lattices advance level by level, their
   candidates counted against a single shared database pass (the I/O
   argument of Section 5.2).  ``dovetail=False`` runs the lattices
   sequentially instead (each paying its own scans), for the ablation.

The engine is strategy-agnostic: with no constraints in the plan it is
plain dual Apriori; with only 1-var constraints it is CAP per variable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.constraints.pruners import (
    AntiMonotoneCheck,
    CompiledPruning,
    PostFilter,
    RequiredBucket,
    element_value_map,
)
from repro.core.jmax import BoundSeries
from repro.core.plan import ExecutionPlan, JmaxPlan
from repro.core.reduction import reduce_twovar
from repro.db.stats import OpCounters, ParallelStats
from repro.db.transactions import TransactionDatabase
from repro.errors import ExecutionError
from repro.mining.backends import backend_scope, make_backend
from repro.mining.cap import compile_constraints
from repro.mining.lattice import (
    ConstrainedLattice,
    LatticeResult,
    counting_source,
)
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import resolve_tracer
from repro.runtime.checkpoint import Checkpoint, CountEvent
from repro.runtime.guard import resolve_guard

logger = get_logger(__name__)


@dataclass
class DovetailResult:
    """The engine's output: per-variable results plus instrumentation."""

    lattices: Dict[str, LatticeResult]
    counters: OpCounters
    bound_histories: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)
    disabled_jmax: List[str] = field(default_factory=list)
    candidate_logs: Dict[str, Dict[int, List[Tuple[int, ...]]]] = field(
        default_factory=dict
    )

    def result_for(self, var: str) -> LatticeResult:
        """One variable's lattice result."""
        return self.lattices[var]


class DovetailEngine:
    """Executes an :class:`ExecutionPlan` against a transaction database."""

    def __init__(
        self,
        db: TransactionDatabase,
        plan: ExecutionPlan,
        counters: Optional[OpCounters] = None,
        dovetail: bool = True,
        use_reduction: bool = True,
        use_jmax: bool = True,
        max_level: Optional[int] = None,
        keep_candidates: bool = False,
        backend=None,
        reduction_rounds: int = 1,
        tracer=None,
        guard=None,
        checkpointer=None,
        resume: bool = False,
        support_oracle=None,
    ):
        if reduction_rounds < 1:
            raise ExecutionError("reduction_rounds must be >= 1")
        self.db = db
        self.plan = plan
        self.counters = counters if counters is not None else OpCounters()
        self.dovetail = dovetail
        self.use_reduction = use_reduction
        self.use_jmax = use_jmax
        self.max_level = max_level
        self.keep_candidates = keep_candidates
        # Resolve the backend ONCE and share the instance across both
        # lattices: stateful backends (the parallel worker pool, the
        # vertical TID-list cache) must be per-run, not per-lattice.
        # Unnamed means bitmap, counting against the database's index.
        self.backend = make_backend("bitmap" if backend is None else backend)
        self.reduction_rounds = reduction_rounds
        self.tracer = resolve_tracer(tracer)
        self.guard = resolve_guard(guard)
        #: Optional :class:`~repro.runtime.checkpoint.CheckpointManager`;
        #: when set, a checkpoint is saved after every completed level
        #: boundary, and ``resume=True`` replays its stored supports
        #: (see ``docs/run-lifecycle.md``).
        self.checkpointer = checkpointer
        self.resume = resume
        #: Optional support oracle (``lookup(var, candidates) -> {itemset:
        #: support}``, e.g. :class:`repro.serve.skeleton.SupportOracle`):
        #: when set, counting passes read supports from it instead of the
        #: database — same mechanism as checkpoint replay, with a cached
        #: frequency skeleton standing in for the stored count events.
        #: The candidate-set ledger is still metered (the sets *are*
        #: decided), but no scans or subset tests happen, and the
        #: lattices are built without projected transactions.
        self.support_oracle = support_oracle
        self._series: List[Tuple[JmaxPlan, BoundSeries]] = []
        self._bound_side_done: Dict[str, bool] = {}
        self._lattices: Dict[str, ConstrainedLattice] = {}
        self._disabled_notes: List[str] = []
        # Checkpoint/replay state: the ordered log of counting passes
        # completed so far, the queue of stored passes still to replay,
        # and the counters snapshot to restore once replay drains.
        self._events: List[CountEvent] = []
        self._replay: deque = deque()
        self._replay_snapshot: Optional[dict] = None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> DovetailResult:
        """Execute the plan and return per-variable results.

        The whole run executes inside one :func:`backend_scope`, so a
        resource-holding backend (the parallel worker pool) is acquired
        once and reused across every dovetailed level of both lattices.
        """
        with self.tracer.span(
            "dovetail.run",
            dovetail=self.dovetail,
            use_reduction=self.use_reduction,
            use_jmax=self.use_jmax,
            backend=getattr(
                self.backend, "name", type(self.backend).__name__
            ),
            variables=sorted(self.plan.var_plans),
        ):
            with backend_scope(self.backend):
                return self._run()

    def _run(self) -> DovetailResult:
        logger.debug(
            "dovetail run: %d variable(s), dovetail=%s, reduction=%s, jmax=%s",
            len(self.plan.var_plans), self.dovetail, self.use_reduction,
            self.use_jmax,
        )
        self.guard.start()
        self.guard.check("run start")
        if self.checkpointer is not None and self.resume:
            loaded = self.checkpointer.load_for_resume()
            if loaded is not None:
                self._replay = deque(loaded.events)
                self._replay_snapshot = dict(loaded.counters)
        lattices = self._build_lattices()
        self._lattices = lattices

        self._run_level1(lattices)
        if self.use_reduction:
            self._apply_reductions(lattices)
        disabled = self._setup_jmax(lattices) if self.use_jmax else [
            f"{p.pruned_var}: jmax disabled by engine option" for p in self.plan.jmax
        ]
        self._disabled_notes = disabled
        for note in disabled:
            logger.info("jmax series disabled: %s", note)

        self._level_boundary(lattices)
        if self.dovetail:
            self._run_dovetailed(lattices)
        else:
            self._run_sequential(lattices)

        if self._replay:
            raise ExecutionError(
                f"checkpoint replay did not converge: {len(self._replay)} "
                "stored counting pass(es) were never consumed (the "
                "checkpoint does not match this run)"
            )
        histories = {
            f"{plan.bound_var}.{plan.bound_attr}": series.history
            for plan, series in self._series
        }
        return DovetailResult(
            lattices={var: lattice.result() for var, lattice in lattices.items()},
            counters=self.counters,
            bound_histories=histories,
            disabled_jmax=disabled,
            candidate_logs={
                var: dict(lattice.candidate_log) for var, lattice in lattices.items()
            },
        )

    def partial_result(self) -> DovetailResult:
        """Whatever the run has fully absorbed so far, packaged exactly
        like a completed :class:`DovetailResult`.

        Called by the optimizer after a
        :class:`~repro.errors.RunInterrupted` unwinds :meth:`run`.  Each
        present lattice contributes its absorbed levels through the
        normal final-verification path; variables whose lattice never
        got built report empty results.  Note that for ``min``/``avg``
        ``J^k_max`` constraints the final verification uses the bound as
        tightened *so far*, so partial per-variable sets may be a
        superset of what the finished run would keep — downstream pair
        formation re-verifies the original constraints exactly (see
        ``docs/run-lifecycle.md``).
        """
        lattices = {
            var: lattice.result() for var, lattice in self._lattices.items()
        }
        for var in self.plan.var_plans:
            if var not in lattices:
                lattices[var] = LatticeResult(
                    var=var, frequent={}, level1_supports={},
                    counted_per_level={},
                )
        histories = {
            f"{plan.bound_var}.{plan.bound_attr}": series.history
            for plan, series in self._series
        }
        return DovetailResult(
            lattices=lattices,
            counters=self.counters,
            bound_histories=histories,
            disabled_jmax=list(self._disabled_notes),
            candidate_logs={
                var: dict(lattice.candidate_log)
                for var, lattice in self._lattices.items()
            },
        )

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _build_lattices(self) -> Dict[str, ConstrainedLattice]:
        lattices: Dict[str, ConstrainedLattice] = {}
        for var, var_plan in self.plan.var_plans.items():
            domain = var_plan.domain
            # An oracle-served run has no miss path: every pass is a
            # skeleton lookup (or a checkpoint replay), so its lattices
            # hold no transactions and nothing is projected or trimmed.
            source = (
                None
                if self.support_oracle is not None
                else counting_source(self.backend, self.db, domain)
            )
            pruning = compile_constraints(var_plan.base_constraints, var, domain)
            lattices[var] = ConstrainedLattice(
                var=var,
                elements=domain.elements,
                transactions=source,
                min_count=var_plan.min_count,
                pruning=pruning,
                counters=self.counters,
                max_level=self.max_level,
                keep_candidates=self.keep_candidates,
                backend=self.backend,
                guard=self.guard,
            )
        return lattices

    def _run_level1(self, lattices) -> None:
        self._record_level_scan(n_active=len(lattices))
        for var, lattice in lattices.items():
            candidates = lattice.candidates()
            if not candidates:
                # Item filters admit nothing: the lattice is already done
                # (its constrained L1 is empty, which the reduction step
                # will propagate to the other side).
                continue
            with self.tracer.span(
                "level", var=var, level=1, candidates_in=len(candidates)
            ) as span:
                support = self._count_level(lattice, candidates, 1)
                lattice.absorb(support)
                self._finish_level_span(span, lattice, 1, len(candidates))
            self.guard.level_completed(var, 1)

    # ------------------------------------------------------------------
    # Counting with checkpoint replay
    # ------------------------------------------------------------------
    def _count_level(self, lattice, candidates, k: int):
        """The supports of one ``(variable, level)`` pass.

        On a fresh run this counts against the database (through the
        lattice's backend, guard attached).  On a resumed run, stored
        passes are replayed instead — supports come from the checkpoint,
        no scan or counting happens — until the stored log drains.
        Either way the pass is appended to the run's event log so later
        checkpoints carry the complete history.
        """
        if self._replay:
            event = self._replay.popleft()
            if (
                event.var != lattice.var
                or event.level != k
                or event.candidates_in != len(candidates)
            ):
                raise ExecutionError(
                    f"checkpoint replay diverged: stored pass is "
                    f"{event.var} L{event.level} ({event.candidates_in} "
                    f"candidates) but the run needs {lattice.var} L{k} "
                    f"({len(candidates)} candidates); the checkpoint does "
                    "not match this run"
                )
            support = event.support_map()
            if self.checkpointer is not None:
                self._events.append(event)
            return support
        if self.support_oracle is not None:
            # Oracle-served pass: supports come from the cached frequency
            # skeleton, keyed in the exact dict order a counted pass
            # produces — candidate order for k >= 2 (count_candidates
            # keys on the candidate list) but *set* iteration order for
            # k == 1 (count_singletons keys on set(elements)), which is
            # answer-bearing: pair formation iterates these dicts.  The
            # ledger is recorded exactly as the counting kernels would;
            # scans and subset tests genuinely did not happen, so they
            # are not.
            if k == 1:
                ordered = [(e,) for e in set(c[0] for c in candidates)]
            else:
                ordered = candidates
            support = self.support_oracle.lookup(lattice.var, ordered)
            self.counters.record_counted(lattice.var, k, len(candidates))
            if self.checkpointer is not None:
                self._events.append(
                    CountEvent(
                        var=lattice.var, level=k,
                        candidates_in=len(candidates),
                        supports=tuple(support.items()),
                    )
                )
            return support
        support = lattice.count(candidates, k)
        if self.checkpointer is not None:
            self._events.append(
                CountEvent(
                    var=lattice.var, level=k, candidates_in=len(candidates),
                    supports=tuple(support.items()),
                )
            )
        return support

    def _level_boundary(self, lattices) -> None:
        """One completed level boundary: restore or persist.

        Checkpoints are saved exactly at these boundaries, so on a
        resumed run the stored event log drains exactly at the boundary
        where its checkpoint was written — the moment to overwrite the
        counters with the stored snapshot, making every counter
        bit-identical to the uninterrupted run's value at that point.
        Past replay (or without it), each boundary persists a new
        checkpoint covering the full event log.
        """
        if self._replay:
            return  # mid-replay: this boundary was already persisted
        if self._replay_snapshot is not None:
            self.counters.restore(self._replay_snapshot)
            self._replay_snapshot = None
            logger.info("checkpoint replay complete; counters restored")
            if not (self.checkpointer is not None and self._events):
                return
            # The drain boundary doubles as a save boundary: re-persist
            # so interrupt-before-first-new-boundary cannot lose it.
        if self.checkpointer is None:
            return
        self.checkpointer.save(
            Checkpoint(
                fingerprint=self.checkpointer.fingerprint,
                events=tuple(self._events),
                counters=self.counters.snapshot(),
                levels_completed={
                    var: lattice.level
                    for var, lattice in lattices.items()
                    if lattice.level >= 1
                },
            )
        )

    def _finish_level_span(
        self, span, lattice, level: int, candidates_in: int,
        attach_shards: bool = False,
    ) -> None:
        """Close out one per-(variable, level) span: frequent-out and
        pruning attribution, plus the sharded backend's per-shard
        timings for this pass (joined from ``ParallelStats``)."""
        if not self.tracer.enabled:
            return
        frequent_out = len(lattice.frequent.get(level, {}))
        span.set(
            frequent_out=frequent_out,
            pruned=dict(lattice.prune_counts.get(level, {})),
        )
        metrics = self.tracer.metrics
        metrics.inc("candidates_counted", candidates_in, var=lattice.var)
        metrics.inc("frequent_sets", frequent_out, var=lattice.var)
        stats = getattr(lattice.backend, "stats", None)
        # Only the sharded backend's per-pass stats carry shard timings
        # (the bitmap backend's record kernel time alone).
        if attach_shards and isinstance(stats, ParallelStats) and stats.levels:
            last = stats.levels[-1]
            span.set(
                shard_sizes=list(last.shard_sizes),
                shard_seconds=[round(s, 6) for s in last.shard_seconds],
                shard_merge_seconds=round(last.merge_seconds, 6),
                pooled=not last.in_process,
            )
            # Shards run out-of-process and cannot write into the run
            # registry directly: their observations are staged in a
            # shard-local registry and folded in exactly (counters add,
            # histograms merge bucket-for-bucket).
            shard_metrics = MetricsRegistry()
            for size, seconds in zip(last.shard_sizes, last.shard_seconds):
                shard_metrics.observe("shard_seconds", seconds, var=lattice.var)
                shard_metrics.inc("shard_tuples", size, var=lattice.var)
            metrics.merge(shard_metrics)

    def _apply_reductions(self, lattices) -> None:
        """Install the Figure 2/3 reductions; optionally iterate.

        Iterated reduction (an extension beyond the paper; see DESIGN.md):
        the round-1 reductions shrink each side's constrained L1, which
        tightens the other side's reduction constants, and so on to a
        fixpoint.  Iteration is sound because the reduced *item filters*
        are itemwise conditions on the elements of valid sets — every
        element of a valid-pair set survives them, so constants computed
        from the filtered L1 still cover all possible partners.  Rounds
        after the first install only the (monotonically shrinking) item
        filters, never duplicate buckets or checks.
        """
        if not self.plan.reductions:
            return
        domains = {var: plan.domain for var, plan in self.plan.var_plans.items()}
        for round_index in range(self.reduction_rounds):
            l1 = {
                var: tuple(lattice.level1_supports)
                for var, lattice in lattices.items()
            }
            changed = False
            with self.tracer.span(
                "reduction.round", round=round_index + 1
            ) as round_span:
                for reduction in self.plan.reductions:
                    if not reduction.view.variables <= set(lattices):
                        raise ExecutionError(
                            f"reduction {reduction.view} mentions variables outside "
                            f"the plan"
                        )
                    with self.tracer.span(
                        "reduction.apply", constraint=str(reduction.view)
                    ) as span:
                        reduced = reduce_twovar(reduction.view, domains, l1)
                        for var, constraints in reduced.items():
                            if not constraints:
                                continue
                            bundle = compile_constraints(
                                constraints, var, domains[var]
                            )
                            if round_index > 0:
                                bundle = CompiledPruning(filters=bundle.filters)
                                if not bundle.filters:
                                    continue
                            before = len(lattices[var].level1_supports)
                            lattices[var].install_pruning(bundle)
                            after = len(lattices[var].level1_supports)
                            span.set(
                                **{
                                    f"l1_before_{var}": before,
                                    f"l1_after_{var}": after,
                                }
                            )
                            if after != before:
                                changed = True
                                logger.debug(
                                    "reduction %s shrank %s L1: %d -> %d",
                                    reduction.view, var, before, after,
                                )
                round_span.set(changed=changed)
            if round_index > 0 and not changed:
                break

    def _setup_jmax(self, lattices) -> List[str]:
        disabled: List[str] = []
        for jplan in self.plan.jmax:
            bound_lattice = lattices[jplan.bound_var]
            if bound_lattice.pruning.buckets or bound_lattice.pruning.am_checks:
                # The series needs *all* frequent sets over the bound
                # side's universe; buckets/AM checks hide some, so using
                # the series would be unsound.  Item filters are fine.
                disabled.append(
                    f"{jplan.source}: bound side {jplan.bound_var} has "
                    f"non-filter pruning; series disabled"
                )
                continue
            with self.tracer.span(
                "jmax.start",
                source=jplan.source,
                bound_var=jplan.bound_var,
                bound_kind=jplan.bound_kind,
                pruned_var=jplan.pruned_var,
            ) as span:
                domain = self.plan.var_plans[jplan.bound_var].domain
                values = element_value_map(domain, jplan.bound_attr)
                series = BoundSeries(values=values, kind=jplan.bound_kind)
                start_bound = series.start(tuple(bound_lattice.level1_supports))
                span.set(start_bound=start_bound)
            self._install_dynamic_check(lattices[jplan.pruned_var], jplan, series)
            self._series.append((jplan, series))
            self._bound_side_done[jplan.bound_var] = False
        return disabled

    def _install_dynamic_check(
        self, lattice: ConstrainedLattice, jplan: JmaxPlan, series: BoundSeries
    ) -> None:
        domain = self.plan.var_plans[jplan.pruned_var].domain
        values = element_value_map(domain, jplan.pruned_attr)
        strict = jplan.strict
        func = jplan.pruned_func

        def within_bound(total: float) -> bool:
            return total < series.bound if strict else total <= series.bound

        if func in ("sum", "max"):
            # sum <= W and max <= W are anti-monotone: prune candidates.
            if func == "sum":
                def check(elements):
                    return within_bound(sum(values[e] for e in elements))
            else:
                def check(elements):
                    return within_bound(max(values[e] for e in elements))

            lattice.install_pruning(
                CompiledPruning(
                    am_checks=[AntiMonotoneCheck(check, jplan.source)]
                )
            )
        else:
            # min <= W and avg <= W are not anti-monotone; push the static
            # L1 relaxation as a bucket and verify against the final bound
            # in a post-filter (the bound only tightens, so deferring to
            # the end is sound and strictly stronger).
            start_bound = series.bound
            bucket = frozenset(
                e for e, v in values.items()
                if (v < start_bound if strict else v <= start_bound)
            )

            def post(elements):
                measured = (
                    min(values[e] for e in elements)
                    if func == "min"
                    else sum(values[e] for e in elements) / len(elements)
                )
                return within_bound(measured)

            lattice.install_pruning(
                CompiledPruning(
                    buckets=[RequiredBucket(bucket, f"{jplan.source} (L1 bound)")],
                    post_filters=[PostFilter(post, jplan.source)],
                )
            )

    # ------------------------------------------------------------------
    # Level loops
    # ------------------------------------------------------------------
    def _run_dovetailed(self, lattices) -> None:
        while True:
            active = [lattice for lattice in lattices.values() if lattice.active]
            if not active:
                break
            # Generate first: a level with no candidates anywhere needs no
            # database pass.
            pending = [
                (lattice, candidates)
                for lattice in active
                for candidates in [lattice.candidates()]
                if candidates
            ]
            if not pending:
                break
            self._record_level_scan(n_active=1)
            for lattice, candidates in pending:
                level = len(candidates[0])
                with self.tracer.span(
                    "level",
                    var=lattice.var,
                    level=level,
                    candidates_in=len(candidates),
                ) as span:
                    support = self._count_level(lattice, candidates, level)
                    lattice.absorb(support)
                    self._finish_level_span(
                        span, lattice, level, len(candidates), attach_shards=True
                    )
                self.guard.level_completed(lattice.var, level)
            self._update_series(lattices)
            self._level_boundary(lattices)

    def _run_sequential(self, lattices) -> None:
        # Bound-side variables first, so the pruned side sees the final
        # (global-maximum) bound — the non-dovetailed strategy the paper
        # discusses at the end of Section 5.2.
        bound_vars = [jplan.bound_var for jplan, __ in self._series]
        order = sorted(lattices, key=lambda v: (v not in bound_vars, v))
        for var in order:
            lattice = lattices[var]
            while lattice.active:
                candidates = lattice.candidates()
                if not candidates:
                    break
                self._record_level_scan(n_active=1)
                level = len(candidates[0])
                with self.tracer.span(
                    "level",
                    var=lattice.var,
                    level=level,
                    candidates_in=len(candidates),
                ) as span:
                    support = self._count_level(lattice, candidates, level)
                    lattice.absorb(support)
                    self._finish_level_span(
                        span, lattice, level, len(candidates), attach_shards=True
                    )
                self.guard.level_completed(lattice.var, level)
                self._update_series(lattices, only_var=var)
                self._level_boundary(lattices)

    def _update_series(self, lattices, only_var: Optional[str] = None) -> None:
        for jplan, series in self._series:
            var = jplan.bound_var
            if only_var is not None and var != only_var:
                continue
            lattice = lattices[var]
            level = lattice.level
            if level >= 2 and level in lattice.frequent:
                already = [k for k, __ in series.history]
                if level not in already:
                    bound = series.update(level, lattice.frequent[level].keys())
                    self._record_bound_update(jplan, level, bound, lattices)
            if not lattice.active and not self._bound_side_done.get(var, True):
                # No frequent sets beyond the last level: the bound
                # collapses to the maximum over the enumerated sets.
                final_level = max(lattice.level, 2) + 1
                bound = series.update(final_level, [])
                self._record_bound_update(jplan, final_level, bound, lattices)
                self._bound_side_done[var] = True

    def _record_bound_update(self, jplan, level, bound, lattices) -> None:
        """Trace one ``W^k`` tightening and how much pruning the dynamic
        check installed from it has achieved so far on the lesser side."""
        if not self.tracer.enabled:
            return
        pruned_lattice = lattices[jplan.pruned_var]
        kills = sum(
            counts.get(f"am:{jplan.source}", 0)
            for counts in pruned_lattice.prune_counts.values()
        )
        self.tracer.event(
            "jmax.bound",
            source=jplan.source,
            bound_var=jplan.bound_var,
            level=level,
            bound=bound,
            candidates_killed_so_far=kills,
        )
        self.tracer.metrics.set_gauge(
            "jmax_bound", bound, source=jplan.source, level=level
        )

    def _record_level_scan(self, n_active: int) -> None:
        # Oracle-served passes touch no transactions: supports come from
        # the cached skeleton, so there is no physical pass to record.
        if self.support_oracle is not None:
            return
        # Dovetailing shares one physical pass across all lattices of the
        # level; sequential execution pays one pass per lattice per level.
        passes = 1 if self.dovetail else n_active
        for __ in range(passes):
            self.counters.record_scan(len(self.db))

"""Overhead of the observability and guardrail layers' disabled paths.

The tracer's contract (see ``docs/observability.md``) is that an
instrumented build with tracing *off* stays within 3% of an
uninstrumented one; the run guard (see ``docs/run-lifecycle.md``) makes
the same promise for a run with no :class:`RunGuard`.  Two measurement
styles back each up on the backend-ablation workload:

1. **Analytic bound** — a disabled call site costs one
   ``NULL_TRACER.span()`` method call (tracer) or one ``is not None``
   branch / early-returning ``NULL_GUARD`` call (guard); measure those
   costs directly, multiply by a 10x-padded count of the call sites one
   mining run executes, and compare against the run's wall time.
   Spans and guard checks are per *level* or per *transaction* a list
   kernel visits, never per candidate probe, so the products stay
   below 3%.
2. **Empirical sanity** — min-of-repeats wall time with the feature
   disabled must not exceed a fully *enabled* run by more than
   measurement noise, and the enabled run itself bounds the worst case.
"""

import time

import pytest

from repro.core.optimizer import CFQOptimizer
from repro.datagen.workloads import fig8a_workload
from repro.mining import backends as backends_mod
from repro.mining import lattice as lattice_mod
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.guard import NULL_GUARD, RunGuard

REPEATS = 5
OVERHEAD_BUDGET = 0.03
CALL_SITE_PADDING = 10


def _workload():
    workload = fig8a_workload(50.0, n_items=200, n_transactions=800)
    return workload, workload.cfq()


def _min_wall(fn, repeats=REPEATS):
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_noop_tracer_overhead_under_3_percent():
    workload, cfq = _workload()

    def run_disabled():
        CFQOptimizer(cfq).execute(workload.db)

    run_disabled()  # warm-up
    baseline = _min_wall(run_disabled)

    # Count the instrumented call sites one run executes: every span an
    # enabled run records, plus its events, is one disabled-path call.
    tracer = Tracer()
    CFQOptimizer(cfq).execute(workload.db, tracer=tracer)
    spans = list(tracer.walk())
    call_sites = len(spans) + sum(len(s.events) for s in spans)

    # Cost of one disabled call site (span open + close + one set()).
    n = 200_000
    start = time.perf_counter()
    for __ in range(n):
        with NULL_TRACER.span("x", a=1) as span:
            span.set(b=2)
    per_call = (time.perf_counter() - start) / n

    disabled_overhead = per_call * call_sites * CALL_SITE_PADDING
    assert disabled_overhead < OVERHEAD_BUDGET * baseline, (
        f"disabled-path cost {disabled_overhead * 1e6:.1f}us "
        f"({call_sites} call sites x{CALL_SITE_PADDING} padding) exceeds "
        f"{OVERHEAD_BUDGET:.0%} of the {baseline * 1e3:.1f}ms baseline"
    )


def test_disabled_not_slower_than_enabled():
    """Sanity: the disabled path must never cost more than full tracing
    (generous 15% noise allowance — these are sub-second runs)."""
    workload, cfq = _workload()

    def run(tracer):
        CFQOptimizer(cfq).execute(workload.db, tracer=tracer)

    run(None)  # warm-up
    disabled = _min_wall(lambda: run(None))
    enabled = _min_wall(lambda: run(Tracer()))
    assert disabled <= enabled * 1.15, (
        f"disabled tracing ({disabled:.3f}s) slower than enabled "
        f"({enabled:.3f}s)"
    )


def _transaction_visits(run):
    """Transactions the list kernels visit during ``run()``.

    Only :func:`~repro.mining.counting.count_singletons` and
    :func:`~repro.mining.counting.count_candidates` hold the
    per-transaction ``tick is not None`` branch; they are wrapped where
    the lattice and :class:`~repro.mining.backends.HybridBackend` call
    them.  The bitmap index path (the default) calls neither.
    """
    visits = [0]

    def visiting(kernel):
        def wrapper(transactions, *args, **kwargs):
            visits[0] += len(transactions)
            return kernel(transactions, *args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice_mod, "count_singletons",
                      visiting(lattice_mod.count_singletons))
        patch.setattr(backends_mod, "count_candidates",
                      visiting(backends_mod.count_candidates))
        run()
    return visits[0]


def test_no_guard_overhead_under_3_percent():
    """Analytic bound for the guard-disabled hot path.

    With no guard, the list counting kernels pay one ``tick is not
    None`` branch per transaction they visit, and the lattice/engine
    layers pay one early-returning ``NULL_GUARD`` call per level-ish
    event.  Both costs are measured directly and multiplied by
    10x-padded counts of how often one run executes them.
    """
    workload, cfq = _workload()

    def run_disabled():
        return CFQOptimizer(cfq).execute(workload.db)

    run_disabled()  # warm-up
    baseline = _min_wall(run_disabled)

    # Hot-path sites: one branch per transaction a list kernel visits.
    transaction_visits = _transaction_visits(run_disabled)
    # Level-ish sites: every full check a live guard would perform
    # (level boundaries, candidate batches, in-loop strides).
    guard = RunGuard(deadline_seconds=3600.0)
    CFQOptimizer(cfq).execute(workload.db, guard=guard)
    level_calls = guard.telemetry()["consumed"]["checks"]

    # Marginal cost of the instrumentation: time the loop with and
    # without the instrumented statements and subtract, so the loop
    # scaffolding itself (which exists either way) doesn't count.
    n = 1_000_000
    start = time.perf_counter()
    for __ in range(n):
        pass
    empty_loop = time.perf_counter() - start

    tick = None
    sink = 0
    start = time.perf_counter()
    for __ in range(n):
        if tick is not None:
            sink += 1
    per_branch = max(0.0, (time.perf_counter() - start) - empty_loop) / n

    # Cost of one disabled NULL_GUARD call site (three calls per iteration).
    n = 200_000
    start = time.perf_counter()
    for __ in range(n):
        pass
    empty_loop = time.perf_counter() - start
    start = time.perf_counter()
    for __ in range(n):
        NULL_GUARD.check("x")
        NULL_GUARD.tick(1)
        NULL_GUARD.level_completed("S", 1)
    per_null_site = max(0.0, (time.perf_counter() - start) - empty_loop) / n

    disabled_overhead = CALL_SITE_PADDING * (
        per_branch * transaction_visits + per_null_site * level_calls
    )
    assert disabled_overhead < OVERHEAD_BUDGET * baseline, (
        f"guard-disabled cost {disabled_overhead * 1e6:.1f}us "
        f"({transaction_visits} transaction visits, {level_calls} "
        f"level calls, x{CALL_SITE_PADDING} padding) exceeds "
        f"{OVERHEAD_BUDGET:.0%} of the {baseline * 1e3:.1f}ms baseline"
    )


def test_no_guard_not_slower_than_armed_guard():
    """Sanity: running without a guard must never cost more than running
    with a live (never-tripping) one."""
    workload, cfq = _workload()

    def run(guard):
        CFQOptimizer(cfq).execute(workload.db, guard=guard)

    run(None)  # warm-up
    disabled = _min_wall(lambda: run(None))
    armed = _min_wall(
        lambda: run(RunGuard(deadline_seconds=3600.0,
                             max_memory_mb=1024 * 1024))
    )
    assert disabled <= armed * 1.15, (
        f"guard-free run ({disabled:.3f}s) slower than armed guard "
        f"({armed:.3f}s)"
    )

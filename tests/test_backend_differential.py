"""Differential harness over every registered counting backend.

Every backend — hybrid, hash tree, vertical, bitmap, and the sharded
parallel backend (hybrid and bitmap kernels) at 1, 2, and 4 workers —
is run over randomized transaction databases and must produce
*identical* ``{itemset: support}`` results, validated against the
independent ``brute_frequent`` oracle.  The parallel configurations use
``shard_threshold=0`` so worker counts above one exercise the real
``multiprocessing.Pool`` path, not the in-process fallback.

The workload section widens the proof to whole optimizer runs: on the
quickstart, Figure 8(b), and Jmax workloads the bitmap backend (serial
and sharded) reproduces the hybrid baseline's frequent sets, supports,
dict insertion order, valid pairs, ``J^k_max`` bound histories, and
answer-bearing counters bit for bit.  ``subset_tests`` is the one
legitimately kernel-specific meter — each backend counts its own probe
currency — and the bitmap figure is pinned to its documented closed
form ``sum(len(c)) * N``, which (unlike the vertical TID-intersection
meter) is *exactly additive over transaction partitions*; that
additivity is what lets ``parallel:N:bitmap`` match serial bitmap on
the full counter dict, and it is asserted directly below.

The fault-injection section proves the fault-tolerance contract: under
injected worker crashes, hangs (timeouts), and hard kills, a run
completes via bounded retry or serial fallback with supports and full
:class:`OpCounters` bit-identical to the matching serial backend
(:class:`HybridBackend` for the hybrid kernel, :class:`BitmapBackend`
for the bitmap kernel), and the persistent pool is forked exactly once
per mining run.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.db.stats import OpCounters
from repro.mining.apriori import mine_frequent
from repro.mining.backends import (
    BACKENDS,
    BitmapBackend,
    FaultInjector,
    HashTreeBackend,
    HybridBackend,
    ParallelBackend,
    VerticalBackend,
    make_backend,
)
from repro.mining.bitmap import (
    bitmap_probe_cost,
    build_bitmap,
    count_with_bitmap,
)
from repro.mining.vertical import build_tidlists, count_with_tidlists
from tests.conftest import brute_frequent

# Long-running suite: excluded from the default fast run (see
# pyproject's addopts); CI's full job selects it explicitly.
pytestmark = pytest.mark.slow

# name -> zero-argument factory; parallel variants pinned to explicit
# worker counts with the pool forced on for workers > 1, and exercised
# over both shard kernels (hybrid and bitmap).
BACKEND_FACTORIES = {
    "hybrid": HybridBackend,
    "hashtree": HashTreeBackend,
    "vertical": VerticalBackend,
    "bitmap": BitmapBackend,
    "parallel-w1": lambda: ParallelBackend(workers=1, shard_threshold=0),
    "parallel-w2": lambda: ParallelBackend(workers=2, shard_threshold=0),
    "parallel-w4": lambda: ParallelBackend(workers=4, shard_threshold=0),
    "parallel-w2-bitmap": lambda: ParallelBackend(
        workers=2, shard_threshold=0, kernel="bitmap"
    ),
    "parallel-w4-bitmap": lambda: ParallelBackend(
        workers=4, shard_threshold=0, kernel="bitmap"
    ),
}

SEEDS = (0, 1, 2, 3)


def random_database(seed: int):
    """A randomized transaction database (deterministic per seed)."""
    rng = random.Random(seed)
    n_transactions = rng.randint(20, 45)
    n_items = rng.randint(8, 14)
    transactions = [
        tuple(sorted(rng.sample(range(1, n_items + 1),
                                rng.randint(0, min(7, n_items)))))
        for __ in range(n_transactions)
    ]
    universe = sorted({i for t in transactions for i in t})
    min_count = max(2, n_transactions // 8)
    return transactions, universe, min_count


def test_every_registered_backend_is_covered():
    """The harness must not silently fall behind the registry."""
    assert set(BACKENDS) <= {name.split("-")[0] for name in BACKEND_FACTORIES}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BACKEND_FACTORIES))
def test_full_mining_matches_oracle(name, seed):
    transactions, universe, min_count = random_database(seed)
    if not universe:
        pytest.skip("degenerate empty database")
    oracle = brute_frequent(transactions, universe, min_count)
    result = mine_frequent(
        transactions, universe, min_count, backend=BACKEND_FACTORIES[name]()
    )
    assert result.all_sets() == oracle, (name, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_counts_identical_across_backends(seed):
    """Per-level raw counts agree with the hybrid reference on every
    candidate — including infrequent ones, which full-mining comparisons
    never see."""
    transactions, universe, min_count = random_database(seed)
    for k in (2, 3):
        candidates = list(combinations(universe, k))[:60]
        if not candidates:
            continue
        reference = HybridBackend().count(transactions, candidates, k)
        for name, factory in sorted(BACKEND_FACTORIES.items()):
            support = factory().count(transactions, candidates, k)
            assert support == reference, (name, seed, k)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workers", (1, 2, 4))
def test_parallel_is_bit_identical_to_hybrid(workers, seed):
    """The sharded backend must be indistinguishable from the serial
    hybrid: same supports, same key order, same counter totals."""
    transactions, universe, min_count = random_database(seed)
    candidates = list(combinations(universe, 2))[:60]
    if not candidates:
        pytest.skip("degenerate empty database")
    serial_counters = OpCounters()
    serial = HybridBackend().count(
        transactions, candidates, 2, serial_counters, "S"
    )
    parallel_counters = OpCounters()
    parallel = ParallelBackend(workers=workers, shard_threshold=0).count(
        transactions, candidates, 2, parallel_counters, "S"
    )
    assert parallel == serial
    assert list(parallel) == list(serial)  # same insertion order too
    assert parallel_counters.subset_tests == serial_counters.subset_tests
    assert parallel_counters.support_counted == serial_counters.support_counted


@pytest.mark.parametrize("seed", SEEDS)
def test_mining_counters_identical_serial_vs_parallel(seed):
    """Whole-run metering parity: a full levelwise mine with the parallel
    backend produces the same ccc cost as the hybrid run."""
    transactions, universe, min_count = random_database(seed)
    if not universe:
        pytest.skip("degenerate empty database")
    serial_counters = OpCounters()
    mine_frequent(transactions, universe, min_count, counters=serial_counters)
    parallel_counters = OpCounters()
    mine_frequent(
        transactions,
        universe,
        min_count,
        counters=parallel_counters,
        backend=ParallelBackend(workers=2, shard_threshold=0),
    )
    assert parallel_counters.as_dict() == serial_counters.as_dict()


# ----------------------------------------------------------------------
# Counter propagation (regression: the merge used to drop most fields)
# ----------------------------------------------------------------------
def test_count_propagates_every_merged_counter_field(monkeypatch):
    """`ParallelBackend.count` must forward ALL merged shard counters —
    scans, tuples_read, constraint checks, and pair_checks included —
    not just subset_tests and the support ledger."""
    import repro.mining.backends as backends_mod

    def fake_count_shard(shard, candidates, k, var):
        counters = OpCounters()
        counters.record_counted(var, k, len(candidates))
        counters.subset_tests = 11
        counters.scans = 1
        counters.tuples_read = 7
        counters.constraint_checks_singleton = 3
        counters.constraint_checks_larger = 2
        counters.pair_checks = 5
        return dict.fromkeys(candidates, 0), counters, 0.0

    monkeypatch.setattr(backends_mod, "count_shard", fake_count_shard)
    backend = ParallelBackend(workers=2, shard_threshold=10**9)  # in-process
    counters = OpCounters()
    backend.count([(1, 2)] * 4, [(1, 2), (1, 3)], 2, counters, "S")
    # Work-style fields sum across the two shards; the ledger is
    # recorded once (merge_shard_counters semantics).
    assert counters.subset_tests == 22
    assert counters.scans == 2
    assert counters.tuples_read == 14
    assert counters.constraint_checks_singleton == 6
    assert counters.constraint_checks_larger == 4
    assert counters.pair_checks == 10
    assert counters.support_counted == {("S", 2): 2}


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_vs_hybrid_full_counter_dict(seed):
    """Direct `count` calls agree with hybrid on the *entire*
    `OpCounters.as_dict()`, not just the two fields the old merge kept."""
    transactions, universe, min_count = random_database(seed)
    candidates = list(combinations(universe, 2))[:60]
    if not candidates:
        pytest.skip("degenerate empty database")
    serial_counters = OpCounters()
    HybridBackend().count(transactions, candidates, 2, serial_counters, "S")
    parallel_counters = OpCounters()
    ParallelBackend(workers=2, shard_threshold=0).count(
        transactions, candidates, 2, parallel_counters, "S"
    )
    assert parallel_counters.as_dict() == serial_counters.as_dict()


# ----------------------------------------------------------------------
# Pool lifecycle: one fork per mining run
# ----------------------------------------------------------------------
def deep_database():
    """A database whose lattice reaches level 5 (many pooled levels)."""
    rng = random.Random(99)
    core = tuple(range(1, 6))
    noise = [
        tuple(sorted(rng.sample(range(6, 16), 3))) for __ in range(12)
    ]
    transactions = [core] * 30 + noise
    universe = sorted({i for t in transactions for i in t})
    return transactions, universe, 10


def test_one_pool_fork_per_mining_run(monkeypatch):
    """The pool must be created once per run and reused across levels —
    asserted by counting actual multiprocessing.Pool constructions."""
    import repro.mining.backends as backends_mod

    forks = []
    real_pool = backends_mod.multiprocessing.Pool

    def counting_pool(*args, **kwargs):
        forks.append(args)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(backends_mod.multiprocessing, "Pool", counting_pool)
    transactions, universe, min_count = deep_database()
    backend = ParallelBackend(workers=2, shard_threshold=0)
    result = mine_frequent(
        transactions, universe, min_count, backend=backend
    )
    pooled_levels = sum(1 for lvl in backend.stats.levels if not lvl.in_process)
    assert pooled_levels >= 2  # the reuse claim needs several levels
    assert len(forks) == 1
    assert backend.stats.pool_forks == 1
    assert not backend.pool_open  # the run's scope tore the pool down
    reference = mine_frequent(transactions, universe, min_count)
    assert result.all_sets() == reference.all_sets()


# ----------------------------------------------------------------------
# Fault injection: crashes, timeouts, kills, fallbacks
# ----------------------------------------------------------------------
def faulty_backend(injector, **overrides):
    options = dict(
        workers=2, shard_threshold=0, shard_timeout=15.0, max_retries=2
    )
    options.update(overrides)
    return ParallelBackend(fault_injector=injector, **options)


def assert_identical_to_hybrid(backend, seed=1):
    """Count one level with `backend` and with hybrid; everything —
    supports, key order, full counters — must match."""
    transactions, universe, __ = random_database(seed)
    candidates = list(combinations(universe, 2))[:60]
    serial_counters = OpCounters()
    serial = HybridBackend().count(
        transactions, candidates, 2, serial_counters, "S"
    )
    counters = OpCounters()
    with backend:
        supports = backend.count(transactions, candidates, 2, counters, "S")
    assert supports == serial
    assert list(supports) == list(serial)
    assert counters.as_dict() == serial_counters.as_dict()


def test_injected_crash_is_retried():
    backend = faulty_backend(FaultInjector("crash", {0}))
    assert_identical_to_hybrid(backend)
    assert backend.stats.total_failures == 1
    assert backend.stats.total_retries == 1
    assert backend.stats.total_fallback_shards == 0
    assert not backend.stats.pool_broken
    assert any("RuntimeError" in line for line in backend.stats.failure_log)


def test_injected_hang_times_out_and_retries():
    backend = faulty_backend(
        FaultInjector("hang", {0}, hang_seconds=20.0), shard_timeout=0.75
    )
    assert_identical_to_hybrid(backend)
    assert backend.stats.total_failures == 1
    assert backend.stats.total_retries == 1
    assert backend.stats.total_fallback_shards == 0


def test_injected_worker_kill_is_recovered():
    """A hard-killed worker loses its task; the timeout surfaces it and
    the retry (on a repopulated pool) completes the shard."""
    backend = faulty_backend(FaultInjector("kill", {0}), shard_timeout=1.5)
    assert_identical_to_hybrid(backend)
    assert backend.stats.total_failures >= 1
    assert backend.stats.total_retries >= 1
    assert backend.stats.total_fallback_shards == 0


def test_exhausted_retries_fall_back_to_serial():
    # Initial tasks take seqs 0 and 1; shard 0's single retry takes seq
    # 2 — failing 0 and 2 exhausts its retries and forces the fallback.
    backend = faulty_backend(
        FaultInjector("crash", {0, 2}), max_retries=1
    )
    assert_identical_to_hybrid(backend)
    assert backend.stats.total_failures == 2
    assert backend.stats.total_retries == 1
    assert backend.stats.total_fallback_shards == 1
    assert not backend.stats.pool_broken  # one healthy shard remained


def test_whole_level_fallback_marks_pool_broken():
    """When every shard of a level degrades, the pool is torn down and
    later levels run in-process — the run still completes correctly."""
    transactions, universe, min_count = deep_database()
    backend = ParallelBackend(
        workers=2,
        shard_threshold=0,
        shard_timeout=15.0,
        max_retries=0,
        fault_injector=FaultInjector("crash", {0, 1}),
    )
    result = mine_frequent(transactions, universe, min_count, backend=backend)
    reference = mine_frequent(transactions, universe, min_count)
    assert result.all_sets() == reference.all_sets()
    assert backend.stats.pool_broken
    assert backend.stats.total_fallback_shards == 2
    assert not backend.pool_open
    # Every level after the broken one ran in-process.
    levels = backend.stats.levels
    broken_at = next(
        i for i, lvl in enumerate(levels) if lvl.fallback_shards
    )
    assert all(lvl.in_process for lvl in levels[broken_at + 1:])


@pytest.mark.parametrize(
    "injector",
    [
        FaultInjector("crash", {0}),
        FaultInjector("hang", {0}, hang_seconds=20.0),
    ],
    ids=["crash", "hang"],
)
def test_full_mining_run_survives_injected_fault(injector):
    """End-to-end: a levelwise mine with a fault at the first pooled
    level finishes with supports AND counters bit-identical to hybrid."""
    transactions, universe, min_count = deep_database()
    serial_counters = OpCounters()
    reference = mine_frequent(
        transactions, universe, min_count, counters=serial_counters
    )
    backend = ParallelBackend(
        workers=2,
        shard_threshold=0,
        shard_timeout=0.75 if injector.mode == "hang" else 15.0,
        max_retries=2,
        fault_injector=injector,
    )
    counters = OpCounters()
    result = mine_frequent(
        transactions, universe, min_count, counters=counters, backend=backend
    )
    assert result.all_sets() == reference.all_sets()
    assert counters.as_dict() == serial_counters.as_dict()
    assert backend.stats.total_failures >= 1
    assert backend.stats.pool_forks == 1


def test_optimizer_run_forks_once_and_reports_stats():
    """A dovetailed 2-variable CFQ shares ONE pool across both lattices
    and all levels, and `explain()` surfaces the pool stats."""
    from repro.core.cfq_parser import parse_cfq
    from repro.core.optimizer import CFQOptimizer
    from repro.datagen.workloads import quickstart_workload

    workload = quickstart_workload(n_transactions=200, seed=3)
    cfq = parse_cfq(
        "{(S, T) | max(S.Price) <= min(T.Price)}",
        workload.domains,
        default_minsup=0.02,
    )
    backend = ParallelBackend(workers=2, shard_threshold=0)
    result = CFQOptimizer(cfq).execute(workload.db, backend=backend)
    assert result.backend is backend
    assert backend.stats.pool_forks == 1
    assert "parallel counting:" in result.explain()
    assert "1 pool fork(s)" in result.explain()


# ----------------------------------------------------------------------
# Bitmap kernel: bit-identity and shard-additive metering
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_bitmap_matches_hybrid_with_documented_metering(seed):
    """Bitmap agrees with hybrid on everything answer-bearing — supports,
    key order, the counting ledger — while its ``subset_tests`` meter is
    the documented bit-probe closed form ``sum(len(c)) * N``."""
    transactions, universe, __ = random_database(seed)
    for k in (2, 3):
        candidates = list(combinations(universe, k))[:60]
        if not candidates:
            continue
        hybrid_counters = OpCounters()
        hybrid = HybridBackend().count(
            transactions, candidates, k, hybrid_counters, "S"
        )
        bitmap_counters = OpCounters()
        bitmap = BitmapBackend().count(
            transactions, candidates, k, bitmap_counters, "S"
        )
        assert bitmap == hybrid, (seed, k)
        assert list(bitmap) == list(hybrid), (seed, k)
        assert bitmap_counters.support_counted == hybrid_counters.support_counted
        assert bitmap_counters.total_counted == hybrid_counters.total_counted
        # The one kernel-specific meter, pinned to its closed form.
        assert bitmap_counters.subset_tests == bitmap_probe_cost(
            candidates, len(transactions)
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workers", (1, 2, 4))
def test_parallel_bitmap_vs_serial_bitmap_full_counter_dict(workers, seed):
    """Sharding the bitmap kernel is invisible: supports, key order, and
    the ENTIRE counter dict (``subset_tests`` included — the additivity
    claim) match the serial bitmap backend."""
    transactions, universe, __ = random_database(seed)
    candidates = list(combinations(universe, 2))[:60]
    if not candidates:
        pytest.skip("degenerate empty database")
    serial_counters = OpCounters()
    serial = BitmapBackend().count(
        transactions, candidates, 2, serial_counters, "S"
    )
    parallel_counters = OpCounters()
    parallel = ParallelBackend(
        workers=workers, shard_threshold=0, kernel="bitmap"
    ).count(transactions, candidates, 2, parallel_counters, "S")
    assert parallel == serial
    assert list(parallel) == list(serial)
    assert parallel_counters.as_dict() == serial_counters.as_dict()


@pytest.mark.parametrize("seed", SEEDS)
def test_bitmap_mining_counters_identical_serial_vs_parallel(seed):
    """Whole-run metering parity for the bitmap kernel: a full levelwise
    mine through ``parallel:2:bitmap`` reproduces the serial bitmap
    backend's counter dict exactly."""
    transactions, universe, min_count = random_database(seed)
    if not universe:
        pytest.skip("degenerate empty database")
    serial_counters = OpCounters()
    serial = mine_frequent(
        transactions,
        universe,
        min_count,
        counters=serial_counters,
        backend=BitmapBackend(),
    )
    parallel_counters = OpCounters()
    parallel = mine_frequent(
        transactions,
        universe,
        min_count,
        counters=parallel_counters,
        backend=ParallelBackend(workers=2, shard_threshold=0, kernel="bitmap"),
    )
    assert parallel.all_sets() == serial.all_sets()
    assert parallel_counters.as_dict() == serial_counters.as_dict()


@pytest.mark.parametrize("seed", SEEDS)
def test_bitmap_supports_and_metering_additive_over_partitions(seed):
    """Kernel-level additivity: for an arbitrary transaction partition,
    per-candidate supports AND the bit-probe meter sum exactly to the
    whole-database figures."""
    transactions, universe, __ = random_database(seed)
    candidates = list(combinations(universe, 2))[:40]
    if not candidates or len(transactions) < 2:
        pytest.skip("degenerate database")

    def one_pass(txns):
        counters = OpCounters()
        support = count_with_bitmap(
            build_bitmap(txns), candidates, counters, "S", 2
        )
        return support, counters.subset_tests

    whole, whole_probes = one_pass(transactions)
    cut = len(transactions) // 2
    left, left_probes = one_pass(transactions[:cut])
    right, right_probes = one_pass(transactions[cut:])
    assert left_probes + right_probes == whole_probes
    for candidate in candidates:
        assert left[candidate] + right[candidate] == whole[candidate]


def test_bitmap_shard_metering_is_additive_unlike_vertical():
    """The satellite contrast pinned as an executable example: vertical's
    TID-intersection meter depends on list *sizes*, which a split
    changes, so sharded vertical work does not sum to the serial figure
    — while the bitmap meter does, exactly.  (This is why
    ``ParallelBackend`` shards hybrid and bitmap but never vertical; see
    the note in ``repro/mining/vertical.py``.)"""
    transactions = [(1, 2)] * 10
    candidates = [(1, 2)]

    def vertical_work(txns):
        counters = OpCounters()
        count_with_tidlists(build_tidlists(txns), candidates, counters, "S", 2)
        return counters.subset_tests

    def bitmap_work(txns):
        counters = OpCounters()
        count_with_bitmap(build_bitmap(txns), candidates, counters, "S", 2)
        return counters.subset_tests

    # Vertical: whole = 10 + (min(10, 10) + 1) = 21, but each 5-row
    # shard costs 5 + (min(5, 5) + 1) = 11, and 11 + 11 != 21.
    assert vertical_work(transactions) == 21
    assert vertical_work(transactions[:5]) + vertical_work(transactions[5:]) == 22
    # Bitmap: 2 item rows * N bits, linear in N, so any split sums back.
    assert bitmap_work(transactions) == bitmap_probe_cost(candidates, 10) == 20
    assert bitmap_work(transactions[:5]) + bitmap_work(transactions[5:]) == 20


# ----------------------------------------------------------------------
# Workload-level bit-identity: whole optimizer runs, three workloads
# ----------------------------------------------------------------------
def _workload(name):
    from repro.datagen.workloads import (
        fig8b_workload,
        jmax_workload,
        quickstart_workload,
    )

    return {
        "quickstart": lambda: quickstart_workload(n_transactions=300),
        "fig8b": lambda: fig8b_workload(40.0, n_items=120, n_transactions=300),
        "jmax": lambda: jmax_workload(600.0, n_transactions=200, core_size=8),
    }[name]()


#: OpCounters fields every backend must reproduce exactly — they define
#: the answer (what was counted, checked, and paired), independent of
#: which kernel did the counting.  ``subset_tests``/``scans`` are the
#: kernel-specific work meters and are excluded by design.
ANSWER_COUNTERS = (
    "sets_counted",
    "constraint_checks_singleton",
    "constraint_checks_larger",
    "pair_checks",
)


def _workload_answers(result):
    """Everything answer-bearing, with dict order made explicit (pair
    formation iterates support dicts, so order is answer-bearing).
    Calls ``result.pairs`` exactly once — it meters ``pair_checks``
    lazily, so each result must enumerate pairs the same number of
    times for the counter comparison to be meaningful."""
    lattices = {}
    for var, lattice in result.raw.lattices.items():
        lattices[var] = {
            "frequent": {
                level: list(sets.items())
                for level, sets in lattice.frequent.items()
            },
            "level1": list(lattice.level1_supports.items()),
            "counted": list(lattice.counted_per_level.items()),
        }
    return {
        "lattices": lattices,
        "frequent_valid": {
            var: list(result.frequent_valid(var).items())
            for var in result.cfq.variables
        },
        "pairs": result.pairs(limit=40),
        "bounds": dict(result.raw.bound_histories),
        "disabled_jmax": list(result.raw.disabled_jmax),
    }


@pytest.mark.parametrize("spec", ["bitmap", "parallel:2:bitmap"])
@pytest.mark.parametrize("name", ["quickstart", "fig8b", "jmax"])
def test_workload_bitmap_bit_identical_to_hybrid(name, spec):
    """Whole optimizer runs on the three reference workloads: the bitmap
    backend (serial and sharded via ``make_backend``) reproduces the
    hybrid baseline's frequent sets, supports, insertion order, pairs,
    bound histories, and answer-bearing counters bit for bit."""
    from repro.core.optimizer import CFQOptimizer

    workload = _workload(name)
    cfq = workload.cfq()
    baseline = CFQOptimizer(cfq).execute(workload.db)
    run = CFQOptimizer(cfq).execute(
        workload.db, backend=make_backend(spec)
    )
    assert _workload_answers(run) == _workload_answers(baseline), (name, spec)
    base_counters = baseline.counters.as_dict()
    run_counters = run.counters.as_dict()
    for fld in ANSWER_COUNTERS:
        assert run_counters[fld] == base_counters[fld], (name, spec, fld)
    assert (
        run.counters.support_counted == baseline.counters.support_counted
    ), (name, spec)


@pytest.mark.parametrize("name", ["quickstart", "fig8b", "jmax"])
def test_workload_parallel_bitmap_full_counters_match_serial_bitmap(name):
    """On whole workload runs the sharded bitmap backend matches serial
    bitmap on the FULL counter dict — the end-to-end form of the
    metering-additivity claim."""
    from repro.core.optimizer import CFQOptimizer

    workload = _workload(name)
    cfq = workload.cfq()
    serial = CFQOptimizer(cfq).execute(workload.db, backend=BitmapBackend())
    sharded = CFQOptimizer(cfq).execute(
        workload.db,
        backend=ParallelBackend(workers=2, shard_threshold=0, kernel="bitmap"),
    )
    assert _workload_answers(sharded) == _workload_answers(serial), name
    assert sharded.counters.as_dict() == serial.counters.as_dict(), name


# ----------------------------------------------------------------------
# Fault injection over the bitmap kernel: degraded != different
# ----------------------------------------------------------------------
def assert_identical_to_serial_bitmap(backend, seed=1):
    """Count one level with `backend` and with the serial bitmap
    backend; everything — supports, key order, full counters — must
    match.  (The bitmap analogue of ``assert_identical_to_hybrid``:
    fault recovery may reroute shards through retries or the serial
    fallback, all of which run the same bitmap kernel, and the
    additive meter makes every rerouting invisible.)"""
    transactions, universe, __ = random_database(seed)
    candidates = list(combinations(universe, 2))[:60]
    serial_counters = OpCounters()
    serial = BitmapBackend().count(
        transactions, candidates, 2, serial_counters, "S"
    )
    counters = OpCounters()
    with backend:
        supports = backend.count(transactions, candidates, 2, counters, "S")
    assert supports == serial
    assert list(supports) == list(serial)
    assert counters.as_dict() == serial_counters.as_dict()


def test_injected_crash_bitmap_kernel_is_retried():
    backend = faulty_backend(FaultInjector("crash", {0}), kernel="bitmap")
    assert_identical_to_serial_bitmap(backend)
    assert backend.stats.total_failures == 1
    assert backend.stats.total_retries == 1
    assert backend.stats.total_fallback_shards == 0
    assert not backend.stats.pool_broken


def test_injected_hang_bitmap_kernel_times_out_and_retries():
    backend = faulty_backend(
        FaultInjector("hang", {0}, hang_seconds=20.0),
        shard_timeout=0.75,
        kernel="bitmap",
    )
    assert_identical_to_serial_bitmap(backend)
    assert backend.stats.total_failures == 1
    assert backend.stats.total_retries == 1
    assert backend.stats.total_fallback_shards == 0


def test_exhausted_retries_bitmap_falls_back_to_serial_bitmap():
    """When retries run out, the failed shard is recounted in-process —
    with the same bitmap kernel, so the degraded level is still
    bit-identical to serial bitmap, full counters included."""
    backend = faulty_backend(
        FaultInjector("crash", {0, 2}), max_retries=1, kernel="bitmap"
    )
    assert_identical_to_serial_bitmap(backend)
    assert backend.stats.total_failures == 2
    assert backend.stats.total_retries == 1
    assert backend.stats.total_fallback_shards == 1
    assert not backend.stats.pool_broken


def test_whole_level_broken_pool_degrades_to_serial_bitmap():
    """Every shard of a level failing tears the pool down; the rest of
    the mine runs in-process — still through the bitmap kernel, so the
    whole run matches serial bitmap on answers AND the counter dict."""
    transactions, universe, min_count = deep_database()
    serial_counters = OpCounters()
    reference = mine_frequent(
        transactions,
        universe,
        min_count,
        counters=serial_counters,
        backend=BitmapBackend(),
    )
    backend = ParallelBackend(
        workers=2,
        shard_threshold=0,
        shard_timeout=15.0,
        max_retries=0,
        kernel="bitmap",
        fault_injector=FaultInjector("crash", {0, 1}),
    )
    counters = OpCounters()
    result = mine_frequent(
        transactions, universe, min_count, counters=counters, backend=backend
    )
    assert result.all_sets() == reference.all_sets()
    assert counters.as_dict() == serial_counters.as_dict()
    assert backend.stats.pool_broken
    assert backend.stats.total_fallback_shards == 2
    assert not backend.pool_open


# ----------------------------------------------------------------------
# Explain output: each backend reports under its own label
# ----------------------------------------------------------------------
def test_bitmap_optimizer_reports_stats():
    """A dovetailed 2-variable CFQ over the bitmap backend packs the
    matrix ONCE (the second lattice hits the digest cache) and
    ``explain()`` reports under the bitmap label."""
    from repro.core.cfq_parser import parse_cfq
    from repro.core.optimizer import CFQOptimizer
    from repro.datagen.workloads import quickstart_workload

    workload = quickstart_workload(n_transactions=200, seed=3)
    cfq = parse_cfq(
        "{(S, T) | max(S.Price) <= min(T.Price)}",
        workload.domains,
        default_minsup=0.02,
    )
    backend = BitmapBackend()
    result = CFQOptimizer(cfq).execute(workload.db, backend=backend)
    assert result.backend is backend
    assert backend.stats.builds == 1
    assert backend.stats.cache_hits >= 1
    explain = result.explain()
    assert "bitmap counting:" in explain
    assert "1 matrix build(s)" in explain


def test_parallel_bitmap_explain_names_the_kernel():
    from repro.core.cfq_parser import parse_cfq
    from repro.core.optimizer import CFQOptimizer
    from repro.datagen.workloads import quickstart_workload

    workload = quickstart_workload(n_transactions=200, seed=3)
    cfq = parse_cfq(
        "{(S, T) | max(S.Price) <= min(T.Price)}",
        workload.domains,
        default_minsup=0.02,
    )
    backend = ParallelBackend(workers=2, shard_threshold=0, kernel="bitmap")
    result = CFQOptimizer(cfq).execute(workload.db, backend=backend)
    explain = result.explain()
    assert "parallel counting:" in explain
    assert "(bitmap kernel," in explain
    assert backend.stats.pool_forks == 1


# ----------------------------------------------------------------------
# The default path: bitmap over the database's index vs the hybrid list
# ----------------------------------------------------------------------
def _assert_default_matches_hybrid(db, cfq, **options):
    """A default (unnamed-backend) run against the ``hybrid`` reference:
    sets in order with supports, pairs, bound histories, the
    answer-bearing counters, and the ``support_counted`` ledger."""
    from repro.core.optimizer import CFQOptimizer

    reference = CFQOptimizer(cfq).execute(db, backend="hybrid", **options)
    run = CFQOptimizer(cfq).execute(db, **options)
    assert isinstance(run.backend, BitmapBackend)
    answers = _workload_answers(run)
    assert answers == _workload_answers(reference)
    run_counters = run.counters.as_dict()
    ref_counters = reference.counters.as_dict()
    for fld in ANSWER_COUNTERS:
        assert run_counters[fld] == ref_counters[fld], fld
    assert run.counters.support_counted == reference.counters.support_counted
    return run, answers


@pytest.mark.parametrize("name", ["quickstart", "fig8b", "jmax"])
def test_default_backend_bit_identical_to_hybrid(name):
    workload = _workload(name)
    assert not workload.db.has_bitmap()
    run, __ = _assert_default_matches_hybrid(workload.db, workload.cfq())
    assert workload.db.has_bitmap()
    # One packing of the database serves both lattices' passes.
    assert run.backend.stats.builds == 1


def _quickstart_catalog_domains(derived_t=True, shared=False):
    from repro.datagen.workloads import quickstart_workload
    from repro.db.domain import Domain, derived_type_domain

    workload = quickstart_workload(n_transactions=300, seed=11)
    types = derived_type_domain(workload.catalog)
    items = Domain.items(workload.catalog)
    if shared:
        return workload, {"S": types, "T": types}
    return workload, {"S": items, "T": types if derived_t else items}


def test_default_backend_on_a_derived_type_domain():
    """T over the Type domain: its index view ORs each type's item rows."""
    from repro.core.query import CFQ

    workload, domains = _quickstart_catalog_domains()
    cfq = CFQ(domains=domains, minsup=0.05, constraints=["S.Type ⊆ T"])
    __, answers = _assert_default_matches_hybrid(workload.db, cfq)
    assert answers["pairs"]


def test_default_backend_with_s_and_t_sharing_one_derived_domain():
    from repro.core.query import CFQ

    workload, domains = _quickstart_catalog_domains(shared=True)
    assert domains["S"] is domains["T"]
    cfq = CFQ(
        domains=domains, minsup=0.05,
        constraints=["count(S.Value) <= count(T.Value)"],
    )
    _assert_default_matches_hybrid(workload.db, cfq)


@pytest.mark.parametrize(
    "transactions",
    [[], [()] * 5],
    ids=["empty-database", "all-empty-transactions"],
)
def test_default_backend_on_degenerate_databases(transactions):
    from repro.db.transactions import TransactionDatabase

    workload = _workload("quickstart")
    db = TransactionDatabase(transactions)
    __, answers = _assert_default_matches_hybrid(db, workload.cfq())
    assert answers["pairs"] == []


@pytest.mark.parametrize("n", [63, 64, 65])
def test_default_backend_around_a_word_boundary(n):
    """N = 63/64/65: the index's last word is full, exact, or one bit."""
    from repro.db.transactions import TransactionDatabase

    workload = _workload("quickstart")
    db = TransactionDatabase(list(workload.db)[:n])
    assert db.bitmap().n_words == (n + 63) // 64
    _assert_default_matches_hybrid(db, workload.cfq())


def test_default_backend_without_numpy_uses_the_big_int_index(monkeypatch):
    """With numpy reported absent the database packs big-int masks and
    the default run still matches hybrid."""
    from repro.db.transactions import TransactionDatabase
    from repro.mining import bitmap as bitmap_mod

    workload = _workload("fig8b")
    db = TransactionDatabase(workload.db)
    monkeypatch.setattr(bitmap_mod, "HAVE_NUMPY", False)
    run, __ = _assert_default_matches_hybrid(db, workload.cfq())
    assert run.backend.stats.kernel == "int"
    assert db.bitmap().kind == "int"
    assert not db.has_bitmap(use_numpy=True)


def test_default_backend_checkpoint_interrupt_and_resume(tmp_path):
    """Interrupt a default run at a level boundary and resume it: the
    resumed run equals an uninterrupted default run on every counter
    and the hybrid reference on every answer."""
    from repro.core.optimizer import CFQOptimizer
    from repro.runtime.guard import RunGuard

    class TripAfterLevels(RunGuard):
        def __init__(self, n_levels):
            super().__init__()
            self.remaining = n_levels

        def level_completed(self, var, level):
            super().level_completed(var, level)
            self.remaining -= 1
            if self.remaining <= 0:
                self.request_cancel("cancelled", "test interruption")
                self.check("level")

    workload = _workload("jmax")
    cfq = workload.cfq()
    uninterrupted, expected = _assert_default_matches_hybrid(workload.db, cfq)
    interrupted = CFQOptimizer(cfq).execute(
        workload.db, guard=TripAfterLevels(3), checkpoint_dir=str(tmp_path)
    )
    assert interrupted.status == "partial"
    resumed = CFQOptimizer(cfq).execute(
        workload.db, checkpoint_dir=str(tmp_path), resume=True
    )
    assert resumed.status == "complete"
    assert _workload_answers(resumed) == expected
    assert resumed.counters.as_dict() == uninterrupted.counters.as_dict()


@pytest.mark.parametrize("name", ["quickstart", "fig8b", "jmax"])
def test_default_apriori_plus_bit_identical_to_hybrid(name):
    from repro.mining.aprioriplus import apriori_plus

    workload = _workload(name)
    cfq = workload.cfq()
    reference = apriori_plus(workload.db, cfq, backend="hybrid")
    run = apriori_plus(workload.db, cfq)
    for var in cfq.variables:
        assert list(run.frequent(var).items()) == list(
            reference.frequent(var).items()
        ), var
        assert run.lattices[var].counted_per_level == (
            reference.lattices[var].counted_per_level
        )
    assert run.pairs() == reference.pairs()
    assert run.counters.support_counted == reference.counters.support_counted
    run_counters = run.counters.as_dict()
    ref_counters = reference.counters.as_dict()
    for fld in ANSWER_COUNTERS:
        assert run_counters[fld] == ref_counters[fld], fld

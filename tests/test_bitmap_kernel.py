"""Property suite for the bitmap counting kernel.

Hypothesis-driven proofs of the :mod:`repro.mining.bitmap` invariants:

* **Pack round-trip** — both matrix representations (numpy uint64 rows
  and Python big-int masks) reproduce every item's exact TID set, and
  the tail words of a ragged ``N`` (not a multiple of 64) carry no
  phantom bits above ``N``.
* **Set-oracle equality** — ``count_with_bitmap`` matches an
  independent subset-test oracle on arbitrary candidate batches,
  including ragged batches, absent/negative/huge item ids, and the
  empty candidate (defined as support 0 by both kernels; the levelwise
  engines never emit one).
* **Kernel cross-checks** — the numpy and big-int kernels agree dict
  for dict (insertion order included); the level-2 Gram/BLAS kernel
  agrees with the chunked gather kernel; chunk size never changes the
  answer.
* **Shard additivity** — per-candidate supports and the bit-probe
  meter both sum exactly over any partition of the transactions (the
  invariant that makes ``parallel:N:bitmap`` bit-identical to serial
  bitmap; the differential harness proves the end-to-end form).
* **Degenerate datasets** survive the kernel, the backend, and the
  guard / checkpoint-resume run paths with answers identical to the
  hybrid reference.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.db.stats import OpCounters
from repro.mining.apriori import mine_frequent
from repro.mining.backends import HybridBackend
from repro.mining.bitmap import (
    HAVE_NUMPY,
    BitmapBackend,
    bitmap_probe_cost,
    build_bitmap,
    count_with_bitmap,
)
from repro.runtime.guard import RunGuard

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")


def representations():
    """The matrix kinds buildable in this environment."""
    return (True, False) if HAVE_NUMPY else (False,)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def _sorted_tuple(values):
    return tuple(sorted(values))


TRANSACTION = st.lists(
    st.integers(min_value=1, max_value=12), unique=True, max_size=6
).map(_sorted_tuple)

TRANSACTIONS = st.lists(TRANSACTION, max_size=80)

#: Candidates range over ids outside the universe too — absent items,
#: negative ids, and id 0 must all count as support 0.
CANDIDATE = st.lists(
    st.integers(min_value=-3, max_value=16), unique=True, max_size=4
).map(_sorted_tuple)

CANDIDATES = st.lists(CANDIDATE, unique=True, max_size=25)


def set_oracle(transactions, candidates):
    """Independent subset-test oracle (the kernels define the empty
    candidate's support as 0; levelwise mining never emits one)."""
    return {
        c: (
            sum(1 for t in transactions if set(c) <= set(t)) if c else 0
        )
        for c in candidates
    }


# ----------------------------------------------------------------------
# Pack / popcount round-trips and ragged tail words
# ----------------------------------------------------------------------
def _tids_of(bitmap, item):
    """Recover an item's TID set straight from the packed representation."""
    n = bitmap.n_transactions
    if bitmap.kind == "int":
        mask = bitmap.masks.get(item, 0)
        return {tid for tid in range(n) if (mask >> tid) & 1}
    row = bitmap.matrix[bitmap.item_index.get(item, 0)]
    return {
        tid for tid in range(n) if (int(row[tid >> 6]) >> (tid & 63)) & 1
    }


@SETTINGS
@given(transactions=TRANSACTIONS)
def test_pack_round_trip(transactions):
    truth = {}
    for tid, transaction in enumerate(transactions):
        for item in transaction:
            truth.setdefault(item, set()).add(tid)
    for use_numpy in representations():
        bitmap = build_bitmap(transactions, use_numpy=use_numpy)
        assert bitmap.n_transactions == len(transactions)
        assert bitmap.n_words == (len(transactions) + 63) >> 6
        for item, tids in truth.items():
            assert _tids_of(bitmap, item) == tids, (use_numpy, item)
        # An id no transaction contains unpacks to the empty TID set.
        assert _tids_of(bitmap, 10**6) == set()


@SETTINGS
@given(transactions=TRANSACTIONS)
@example(transactions=[(1,)] * 63)
@example(transactions=[(1,)] * 64)
@example(transactions=[(1, 2)] * 65)
@example(transactions=[(1,)] * 130)
def test_tail_words_carry_no_phantom_bits(transactions):
    """Bits at positions >= N must be zero in every representation —
    otherwise popcounts would invent transactions whenever N % 64 != 0."""
    n = len(transactions)
    for use_numpy in representations():
        bitmap = build_bitmap(transactions, use_numpy=use_numpy)
        if bitmap.kind == "int":
            for mask in bitmap.masks.values():
                assert mask >> n == 0
        else:
            tail_bits = n & 63
            if tail_bits:
                for word in bitmap.matrix[:, -1]:
                    assert int(word) >> tail_bits == 0
        # Singleton popcounts equal true item frequencies even at the tail.
        universe = sorted({i for t in transactions for i in t})
        singles = [(item,) for item in universe]
        support = count_with_bitmap(bitmap, singles)
        for item in universe:
            assert support[(item,)] == sum(
                1 for t in transactions if item in t
            )


#: Item ids across both translation paths of the numpy packer: small
#: non-negative ids use the direct lookup array, and one negative or
#: huge id switches the matrix to the ``numpy.unique`` + dict path.
WIDE_TRANSACTIONS = st.lists(
    st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=-3, max_value=-1),
            st.integers(min_value=1 << 40, max_value=(1 << 40) + 2),
        ),
        unique=True,
        max_size=6,
    ).map(_sorted_tuple),
    max_size=60,
)


def _tid_truth(transactions):
    truth = {}
    for tid, transaction in enumerate(transactions):
        for item in transaction:
            truth.setdefault(item, set()).add(tid)
    return truth


@needs_numpy
@SETTINGS
@given(
    transactions=WIDE_TRANSACTIONS,
    added=WIDE_TRANSACTIONS,
    chunk=st.integers(min_value=1, max_value=9),
)
def test_vectorized_packer_matches_a_set_oracle(transactions, added, chunk):
    """The one numpy packer, fed in chunks of any size, sets exactly the
    set oracle's bits — packing a list and a longer one."""
    from unittest import mock

    from repro.mining import bitmap as bitmap_mod

    with mock.patch.object(bitmap_mod, "_PACK_CHUNK", chunk):
        fresh = build_bitmap(transactions, use_numpy=True)
        grown = build_bitmap(transactions + added, use_numpy=True)
    for bitmap, rows in ((fresh, transactions), (grown, transactions + added)):
        truth = _tid_truth(rows)
        assert set(bitmap.item_index) == set(truth)
        assert not bitmap.matrix[0].any()
        for item, tids in truth.items():
            assert _tids_of(bitmap, item) == tids, item


# ----------------------------------------------------------------------
# Intersection counts vs the set oracle; numpy-vs-int cross-check
# ----------------------------------------------------------------------
@SETTINGS
@given(transactions=TRANSACTIONS, candidates=CANDIDATES)
@example(transactions=[(1, 2, 3)] * 70, candidates=[(), (1,), (1, 2, 3)])
def test_counts_match_set_oracle_in_both_representations(
    transactions, candidates
):
    oracle = set_oracle(transactions, candidates)
    results = {}
    for use_numpy in representations():
        bitmap = build_bitmap(transactions, use_numpy=use_numpy)
        counters = OpCounters()
        support = count_with_bitmap(bitmap, candidates, counters, "S", 2)
        assert support == oracle, use_numpy
        assert list(support) == list(candidates), use_numpy
        assert counters.subset_tests == bitmap_probe_cost(
            candidates, len(transactions)
        ), use_numpy
        results[use_numpy] = support
    if len(results) == 2:
        assert list(results[True].items()) == list(results[False].items())


@needs_numpy
@SETTINGS
@given(transactions=TRANSACTIONS, candidates=CANDIDATES)
def test_chunk_size_never_changes_the_answer(transactions, candidates):
    """The gather kernel's chunking is a memory knob, not a semantic
    one: chunk sizes 1, 3, and 'whole batch' agree bit for bit."""
    bitmap = build_bitmap(transactions, use_numpy=True)
    reference = count_with_bitmap(bitmap, candidates, chunk_size=10**6)
    for chunk_size in (1, 3):
        assert (
            count_with_bitmap(bitmap, candidates, chunk_size=chunk_size)
            == reference
        )


@needs_numpy
@SETTINGS
@given(transactions=st.lists(TRANSACTION, min_size=1, max_size=80))
def test_gemm_kernel_matches_gather_kernel(transactions):
    """The level-2 Gram/BLAS kernel and the chunked gather kernel count
    the same batch identically.  The batch is padded with repeats until
    it clears ``_gemm_worthwhile``'s density bound, so the GEMM path is
    genuinely exercised (asserted, not assumed)."""
    import numpy as np

    from repro.mining.bitmap import (
        _count_gather,
        _translate_rows,
        _try_pairs_gemm,
    )

    universe = sorted({i for t in transactions for i in t})
    assume(len(universe) >= 2)
    pairs = list(combinations(universe, 2))
    repeats = (4 * (len(universe) + 1)) // len(pairs) + 1
    candidates = pairs * repeats
    bitmap = build_bitmap(transactions, use_numpy=True)
    flat = np.asarray(
        [item for candidate in candidates for item in candidate],
        dtype=np.int64,
    )
    rows = _translate_rows(bitmap, flat)
    gemm = _try_pairs_gemm(bitmap, rows, len(candidates))
    assert gemm is not None  # the padded batch must take the GEMM path
    gather = _count_gather(bitmap.matrix, rows.reshape(-1, 2), 7)
    assert gemm.tolist() == gather.tolist()
    oracle = set_oracle(transactions, pairs)
    for candidate, count in zip(candidates, gemm.tolist()):
        assert count == oracle[candidate]


@needs_numpy
def test_huge_item_ids_disable_the_lookup_array_not_correctness():
    """An item id beyond ``_MAX_LOOKUP_ITEM`` forces the unique+dict
    row translation; answers are unchanged."""
    from repro.mining.bitmap import _MAX_LOOKUP_ITEM, _row_lookup

    huge = _MAX_LOOKUP_ITEM + 5
    transactions = [(1, huge), (1,), (huge,)] * 3
    candidates = [(1,), (huge,), (1, huge), (-2, 1), (2,)]
    bitmap = build_bitmap(transactions, use_numpy=True)
    assert _row_lookup(bitmap) is None  # dense translation refused
    support = count_with_bitmap(bitmap, candidates)
    assert support == set_oracle(transactions, candidates)


# ----------------------------------------------------------------------
# Shard additivity: supports and metering sum over any partition
# ----------------------------------------------------------------------
@SETTINGS
@given(
    transactions=st.lists(TRANSACTION, min_size=2, max_size=80),
    candidates=CANDIDATES,
    data=st.data(),
)
def test_supports_and_probes_additive_over_any_partition(
    transactions, candidates, data
):
    n = len(transactions)
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n),
                min_size=1,
                max_size=3,
            ),
            label="cuts",
        )
    )
    bounds = [0] + cuts + [n]
    shards = [
        transactions[lo:hi] for lo, hi in zip(bounds, bounds[1:])
    ]

    def one_pass(txns):
        counters = OpCounters()
        support = count_with_bitmap(
            build_bitmap(txns), candidates, counters, "S", 2
        )
        return support, counters.subset_tests

    whole, whole_probes = one_pass(transactions)
    shard_results = [one_pass(shard) for shard in shards]
    assert sum(probes for __, probes in shard_results) == whole_probes
    for candidate in candidates:
        assert (
            sum(support[candidate] for support, __ in shard_results)
            == whole[candidate]
        )


# ----------------------------------------------------------------------
# Empty and degenerate datasets: kernel and backend level
# ----------------------------------------------------------------------
@pytest.mark.parametrize("use_numpy", representations())
def test_empty_database_counts_zero(use_numpy):
    bitmap = build_bitmap([], use_numpy=use_numpy)
    assert bitmap.n_transactions == 0
    assert bitmap.n_words == 0
    counters = OpCounters()
    support = count_with_bitmap(bitmap, [(1,), (1, 2)], counters, "S", 2)
    assert support == {(1,): 0, (1, 2): 0}
    assert counters.subset_tests == 0  # probes * N with N == 0


@pytest.mark.parametrize("use_numpy", representations())
def test_all_empty_transactions_count_zero(use_numpy):
    transactions = [()] * 70  # ragged tail, no items at all
    bitmap = build_bitmap(transactions, use_numpy=use_numpy)
    support = count_with_bitmap(bitmap, [(1,), (2, 3)])
    assert support == {(1,): 0, (2, 3): 0}


def test_backend_empty_candidate_batch_is_a_no_op():
    backend = BitmapBackend()
    counters = OpCounters()
    assert backend.count([(1, 2)], [], 2, counters, "S") == {}
    assert counters.as_dict() == OpCounters().as_dict()
    assert backend.stats.levels == []


@needs_numpy
def test_popcount_lut_fallback_matches_bitwise_count(monkeypatch):
    """Old numpys lack ``bitwise_count``; the byte-LUT fallback must be
    bit-identical to both it and the Python reference."""
    import numpy as np

    from repro.mining import bitmap as bitmap_mod

    rng = np.random.default_rng(7)
    words = rng.integers(0, 2**64, size=(5, 9), dtype=np.uint64)
    reference = [
        [int(w).bit_count() for w in row] for row in words.tolist()
    ]
    assert bitmap_mod.popcount_words(words).tolist() == reference
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert bitmap_mod.popcount_words(words).tolist() == reference


@needs_numpy
def test_gram_kernel_without_scipy_ssyrk(monkeypatch):
    """The plain ``sub @ sub.T`` fallback (no scipy) matches the oracle."""
    import numpy as np

    from repro.mining import bitmap as bitmap_mod

    monkeypatch.setattr(bitmap_mod, "_ssyrk", None)
    transactions = [(1, 2), (1, 3), (2, 3), (1, 2, 3)] * 20
    pairs = [(1, 2), (1, 3), (2, 3)] * 8  # dense enough for the gate
    bitmap = build_bitmap(transactions, use_numpy=True)
    flat = np.asarray([i for c in pairs for i in c], dtype=np.int64)
    rows = bitmap_mod._translate_rows(bitmap, flat)
    counts = bitmap_mod._try_pairs_gemm(bitmap, rows, len(pairs))
    assert counts is not None
    oracle = set_oracle(transactions, pairs)
    assert all(
        count == oracle[pair] for pair, count in zip(pairs, counts.tolist())
    )


@needs_numpy
def test_gram_kernel_respects_expansion_memory_cap(monkeypatch):
    """With the bit-expansion budget forced to zero the Gram kernel
    declines and the gather kernel answers — identically."""
    import numpy as np

    from repro.mining import bitmap as bitmap_mod

    monkeypatch.setattr(bitmap_mod, "_GEMM_MAX_EXPANDED_BYTES", 0)
    transactions = [(1, 2), (1, 3), (2, 3)] * 30
    pairs = [(1, 2), (1, 3), (2, 3)] * 8
    bitmap = build_bitmap(transactions, use_numpy=True)
    support = count_with_bitmap(bitmap, pairs)
    assert support == set_oracle(transactions, pairs)
    flat = np.asarray([i for c in pairs for i in c], dtype=np.int64)
    rows = bitmap_mod._translate_rows(bitmap, flat)
    assert bitmap_mod._try_pairs_gemm(bitmap, rows, len(pairs)) is None


def test_int_kernel_backend_end_to_end():
    """``use_numpy=False`` swaps in the big-int kernel behind the same
    backend facade, stats label included."""
    backend = BitmapBackend(use_numpy=False)
    assert backend.stats.kernel == "int"
    transactions = [(1, 2, 3), (1, 2), (3,)] * 5
    candidates = [(1, 2), (1, 3), (2, 3)]
    counters = OpCounters()
    support = backend.count(transactions, candidates, 2, counters, "S")
    assert support == set_oracle(transactions, candidates)
    assert counters.subset_tests == bitmap_probe_cost(
        candidates, len(transactions)
    )


def test_backend_constructor_validation():
    from repro.errors import ExecutionError

    with pytest.raises(ExecutionError, match="max_cached_matrices"):
        BitmapBackend(max_cached_matrices=0)
    with pytest.raises(ExecutionError, match="chunk_candidates"):
        BitmapBackend(chunk_candidates=0)


def test_matrix_cache_evicts_fifo_beyond_capacity():
    """A 1-slot cache rebuilds when a second dataset displaces the
    first — correctness is unchanged, only ``builds`` moves."""
    backend = BitmapBackend(max_cached_matrices=1)
    db_a = [(1, 2)] * 3
    db_b = [(2, 3)] * 3
    assert backend.count(db_a, [(1, 2)], 2) == {(1, 2): 3}
    assert backend.count(db_b, [(2, 3)], 2) == {(2, 3): 3}
    assert backend.count(db_a, [(1, 2)], 2) == {(1, 2): 3}
    assert backend.builds == 3  # A, B, then A again after eviction
    assert backend.stats.cache_hits == 0


def test_backend_shares_one_build_across_equal_content_lists():
    """The content-digest cache: two distinct list objects with equal
    content pack ONE matrix (the VerticalBackend TID-cache contract)."""
    backend = BitmapBackend()
    first = [(1, 2), (2, 3)]
    second = [(1, 2), (2, 3)]
    assert first is not second
    a = backend.count(first, [(1, 2)], 2)
    b = backend.count(second, [(1, 2)], 2)
    assert a == b == {(1, 2): 1}
    assert backend.stats.builds == 1
    assert backend.stats.cache_hits == 1


# ----------------------------------------------------------------------
# Degenerate datasets through the guard and checkpoint run paths
# ----------------------------------------------------------------------
def test_guarded_bitmap_mine_on_degenerate_databases():
    """An armed (but generous) guard over the bitmap backend changes
    nothing, including on empty and all-empty-transaction databases."""
    cases = [
        ([], []),
        ([()] * 5, []),
        ([(1,)], [1]),
        ([(1, 2), (1, 2), (2, 3), ()], [1, 2, 3]),
    ]
    for transactions, universe in cases:
        guard = RunGuard(deadline_seconds=300.0, max_candidates=10**6)
        result = mine_frequent(
            transactions,
            universe,
            1,
            backend=BitmapBackend(),
            guard=guard,
        )
        reference = mine_frequent(
            transactions, universe, 1, backend=HybridBackend()
        )
        assert result.all_sets() == reference.all_sets()


def test_guard_trip_with_bitmap_backend_yields_partial_result():
    """A tripped candidate budget unwinds a bitmap-backed optimizer run
    into the same partial-result packaging the hybrid path gets."""
    from repro.core.optimizer import CFQOptimizer
    from repro.datagen.workloads import quickstart_workload

    workload = quickstart_workload(n_transactions=120, seed=5)
    cfq = workload.cfq()
    result = CFQOptimizer(cfq).execute(
        workload.db,
        backend=BitmapBackend(),
        guard=RunGuard(max_candidates=1),
    )
    assert result.status == "partial"
    assert result.interruption is not None
    assert result.interruption.reason == "candidates"


def test_checkpoint_resume_with_bitmap_backend_is_bit_identical(tmp_path):
    """Interrupt a bitmap-backed run at a level boundary, resume it with
    the bitmap backend: answers AND full counters match an
    uninterrupted bitmap run (the resume-differential contract holds
    per backend, not just for hybrid)."""
    from repro.core.optimizer import CFQOptimizer
    from repro.datagen.workloads import quickstart_workload

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

    workload = quickstart_workload(n_transactions=150, seed=2)
    cfq = workload.cfq()
    baseline = CFQOptimizer(cfq).execute(
        workload.db, backend=BitmapBackend()
    )
    interrupted = CFQOptimizer(cfq).execute(
        workload.db,
        backend=BitmapBackend(),
        guard=TripAfterLevels(2),
        checkpoint_dir=str(tmp_path),
    )
    assert interrupted.status == "partial"
    resumed = CFQOptimizer(cfq).execute(
        workload.db,
        backend=BitmapBackend(),
        checkpoint_dir=str(tmp_path),
        resume=True,
    )
    assert resumed.status == "complete"
    for var in cfq.variables:
        assert resumed.frequent_valid(var) == baseline.frequent_valid(var)
    assert resumed.pairs() == baseline.pairs()
    assert resumed.raw.bound_histories == baseline.raw.bound_histories
    assert resumed.counters.as_dict() == baseline.counters.as_dict()


# ----------------------------------------------------------------------
# Bounded kernel memory at the paper's scale (N = 100k transactions)
# ----------------------------------------------------------------------
PAPER_N = 100_000
PAPER_WORDS = (PAPER_N + 63) >> 6  # 1563


def _traced_peak(fn):
    """``fn()``'s result and the peak bytes traced while it ran."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn()
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@needs_numpy
def test_gather_buffers_are_pinned_at_paper_scale():
    """At 100k transactions the two gather buffers hold 335 candidates
    each, 8.4 MB together, not the 2048 the candidate chunk allows
    (51 MB)."""
    import numpy as np

    from repro.mining import bitmap as bitmap_mod

    assert bitmap_mod._gather_chunk(PAPER_WORDS) == 335
    buffers = 2 * 335 * PAPER_WORDS * 8
    assert buffers == 8_377_680 <= bitmap_mod._GATHER_BUFFER_BYTES
    matrix = np.zeros((3, PAPER_WORDS), dtype=np.uint64)
    matrix[1:] = np.uint64(0x5555555555555555)
    index = np.tile(np.array([1, 2], dtype=np.intp), (2048, 1))
    counts, peak = _traced_peak(
        lambda: bitmap_mod._count_gather(matrix, index, 2048)
    )
    assert counts.tolist() == [PAPER_WORDS * 32] * 2048
    # The buffers, one chunk's per-word popcounts, the counts, and a
    # little interpreter noise; a third buffer would add 4.2 MB.
    assert peak <= buffers + 335 * PAPER_WORDS + 2048 * 8 + (256 << 10)


@needs_numpy
def test_gram_kernel_expands_only_referenced_rows_within_its_cap():
    """A dense level-2 batch over 40 of 200 rows at 100k transactions:
    the whole-row expansion would be 16 MB, so the Gram kernel expands
    word slices of the 40 rows within its 8 MB cap — and still counts
    exactly what the gather kernel counts."""
    import numpy as np

    from repro.mining import bitmap as bitmap_mod
    from repro.mining.bitmap import BitmapMatrix

    rng = np.random.default_rng(7)
    matrix = rng.integers(0, 1 << 63, size=(201, PAPER_WORDS),
                          dtype=np.uint64)
    matrix &= rng.integers(0, 1 << 63, size=matrix.shape, dtype=np.uint64)
    matrix[0] = 0
    matrix[:, -1] &= np.uint64((1 << (PAPER_N & 63)) - 1)
    bitmap = BitmapMatrix(
        "numpy", PAPER_N, PAPER_WORDS,
        item_index={item: item for item in range(1, 201)}, matrix=matrix,
    )
    pairs = list(combinations(range(1, 41), 2))
    rows = bitmap_mod._translate_rows(
        bitmap, np.asarray(pairs, dtype=np.int64).reshape(-1)
    )
    assert 40 * PAPER_WORDS * 64 * 4 > bitmap_mod._GEMM_MAX_EXPANDED_BYTES
    counts, peak = _traced_peak(
        lambda: bitmap_mod._try_pairs_gemm(bitmap, rows, len(pairs))
    )
    assert counts is not None
    gathered = bitmap_mod._count_gather(matrix, rows.reshape(-1, 2), 2048)
    assert counts.tolist() == gathered.tolist()
    # The cap, plus the referenced rows' packed copy.
    assert peak <= (
        bitmap_mod._GEMM_MAX_EXPANDED_BYTES + 40 * PAPER_WORDS * 8
        + (256 << 10)
    )

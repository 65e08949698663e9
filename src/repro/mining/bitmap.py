"""Vectorized bitmap support counting (vertical uint64 layout).

The pure-Python kernels bound every backend at interpreter speed: the
ablation showed ``parallel[4]`` *losing* to the serial hybrid because
sharding only multiplies a slow per-transaction loop.  This module packs
the vertical layout into machine words so support counting becomes a
handful of numpy array ops:

* the dataset becomes an ``(items + 1) x ceil(N / 64)`` uint64 matrix —
  row ``r`` holds item ``r``'s transaction-membership bits, one bit per
  TID, little-endian within each word; row ``0`` is reserved all-zero so
  items absent from the matrix resolve to support 0;
* a candidate's support is the popcount of the AND of its items' rows;
* a whole uniform candidate batch is counted by one of two vectorized
  kernels: a chunked gather + ``bitwise_and`` + ``bitwise_count`` pass
  over preallocated work buffers (any ``k``), or — for dense level-2
  batches — a single BLAS Gram matrix over the referenced rows' bit
  expansions (``popcount(a & b)`` is the dot product of the rows' 0/1
  vectors; see :func:`_try_pairs_gemm` for the exactness argument).

The cold CFQ engines count against one matrix per *database*:
:meth:`~repro.db.transactions.TransactionDatabase.bitmap` packs the raw
transactions on the first count and keeps the result for the life of
the (immutable) database, and a :class:`DomainIndex` hands each lattice
its domain's view of it — item domains read the database's rows as they
are, a derived domain ORs its items' rows into one row per element — so
nothing is projected or trimmed per query.  Transaction lists (the
named list path, shards, skeleton builds) are packed once per *content*
and cached by digest (the same scheme as
:class:`~repro.mining.backends.VerticalBackend`'s TID-list cache).
Either way the per-level cost is only the matrix ops.

Metering semantics (answer-meaningful, shard-additive)
------------------------------------------------------
Counting work is metered on ``counters.subset_tests`` in **bit-probe
units**: counting one candidate of size ``k`` over ``N`` transactions
examines each of the ``k`` item rows' ``N`` membership bits exactly once
(the word-wise AND + popcount pass), i.e. ``k * N`` elementary probes —
the bitmap analogue of the hybrid kernel's containment probes.  The
figure is a deterministic function of the candidate list and ``N``
alone; it never depends on cache state (matrix builds are one-time
layout costs, excluded just as ``VerticalBackend`` excludes TID-list
builds) or on the data distribution.

Because the per-candidate term is linear in ``N``, the metering is
**exactly additive over any partition of the transaction list**:
``k * N_1 + ... + k * N_w == k * N``.  This is what lets
:class:`~repro.mining.backends.ParallelBackend` shard the bitmap kernel
over TID ranges with merged counters bit-identical to a serial bitmap
run — unlike the vertical TID-list kernel, whose intersection metering
depends on per-shard TID-list *sizes* and does not sum to the serial
figure (see :mod:`repro.mining.vertical`).  The candidate-set ledger
(``record_counted``) follows the same rules as every other backend.

The numpy path is the production kernel; a pure-Python big-int fallback
(one arbitrary-precision mask per item, ``int.bit_count`` popcounts)
implements the identical contract for environments without numpy and
serves as an in-tree cross-check for the property suite.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Dict, Optional, Sequence, Tuple

from repro.db.stats import BitmapStats, OpCounters
from repro.errors import ExecutionError
from repro.itemsets import Itemset

try:  # gated: the kernel degrades to the big-int path without numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

HAVE_NUMPY = _np is not None

try:  # optional: halves the Gram-kernel flops when scipy is present
    from scipy.linalg.blas import ssyrk as _ssyrk
except ImportError:  # pragma: no cover - depends on environment
    _ssyrk = None

#: ``int.bit_count`` landed in 3.10; the project floor is 3.9.
_INT_POPCOUNT = (
    int.bit_count if hasattr(int, "bit_count")
    else (lambda value: bin(value).count("1"))
)


def popcount_words(words):
    """Per-element popcount of a uint64 array.

    Uses ``numpy.bitwise_count`` when available (numpy >= 2.0); older
    numpys fall back to a byte-view lookup table — same results, a few
    times slower, still fully vectorized.
    """
    if hasattr(_np, "bitwise_count"):
        return _np.bitwise_count(words)
    table = _popcount_table()
    return table[words.view(_np.uint8)].reshape(*words.shape, 8).sum(axis=-1)


_POPCOUNT_TABLE = None


def _popcount_table():
    global _POPCOUNT_TABLE
    if _POPCOUNT_TABLE is None:
        _POPCOUNT_TABLE = _np.array(
            [_INT_POPCOUNT(v) for v in range(256)], dtype=_np.uint16
        )
    return _POPCOUNT_TABLE


class BitmapMatrix:
    """Per-item transaction bitmaps for one transaction list.

    ``kind`` is ``"numpy"`` (uint64 matrix + item->row index, row 0
    all-zero) or ``"int"`` (one Python big-int mask per item).  Both
    representations cover exactly ``n_transactions`` bits; tail bits of
    the last word are zero by construction (bits are only ever set for
    TIDs below ``n_transactions``), so popcounts never see phantom
    transactions — the ragged-tail property the kernel suite checks.
    """

    __slots__ = ("kind", "n_transactions", "n_words", "item_index",
                 "matrix", "masks", "row_lookup", "row_supports")

    def __init__(self, kind, n_transactions, n_words,
                 item_index=None, matrix=None, masks=None):
        self.kind = kind
        self.n_transactions = n_transactions
        self.n_words = n_words
        self.item_index = item_index
        self.matrix = matrix
        self.masks = masks
        #: lazy item-id -> row translation array (False once found unusable)
        self.row_lookup = None
        #: lazy per-row popcounts: the supports a level-1 batch reads
        self.row_supports = None


def build_bitmap(
    transactions: Sequence[Tuple[int, ...]],
    use_numpy: Optional[bool] = None,
) -> BitmapMatrix:
    """Pack ``transactions`` into a :class:`BitmapMatrix`.

    ``use_numpy`` forces a representation (the property suite
    cross-checks the two); the default picks numpy when available.
    Rows are ordered by item id; the numpy packing is vectorized
    (:func:`_pack`).
    """
    if use_numpy is None:
        use_numpy = HAVE_NUMPY
    if use_numpy and not HAVE_NUMPY:
        raise ExecutionError(
            "numpy is not available; bitmap counting falls back to the "
            "big-int kernel (use_numpy=False)"
        )
    n = len(transactions)
    n_words = (n + 63) >> 6
    if not use_numpy:
        masks: Dict[int, int] = {}
        for tid, transaction in enumerate(transactions):
            bit = 1 << tid
            for item in transaction:
                masks[item] = masks.get(item, 0) | bit
        return BitmapMatrix("int", n, n_words, masks=masks)
    items = sorted(set(chain.from_iterable(transactions)))
    bitmap = BitmapMatrix(
        "numpy", n, n_words,
        item_index={item: row for row, item in enumerate(items, start=1)},
        matrix=_np.zeros((len(items) + 1, n_words), dtype=_np.uint64),
    )
    _pack(bitmap, transactions)
    return bitmap


#: Transactions packed per :func:`_pack` step: bounds its temporary
#: arrays to a few MB (about 11 MB at 10 items per transaction) whatever
#: the database size.
_PACK_CHUNK = 8192


def _pack(bitmap, transactions) -> None:
    """Set the bits of ``transactions`` in ``bitmap.matrix`` in place.

    Transaction ``j`` sets bit ``j`` in the row of each of its items
    (every item must already have a row).  Each chunk is
    flattened with ``numpy.fromiter``, its item ids translated to rows
    through :func:`_translate_rows`, and its bits OR-ed into the matrix
    by one ``bitwise_or.at`` over flat cell indices — no Python object
    per item occurrence.
    """
    cells = bitmap.matrix.reshape(-1)  # a view: the matrix is C-contiguous
    n_words = bitmap.matrix.shape[1]
    for start in range(0, len(transactions), _PACK_CHUNK):
        chunk = transactions[start:start + _PACK_CHUNK]
        lengths = _np.fromiter(map(len, chunk), dtype=_np.intp,
                               count=len(chunk))
        flat = _np.fromiter(chain.from_iterable(chunk), dtype=_np.int64,
                            count=int(lengths.sum()))
        if not len(flat):
            continue
        tids = _np.repeat(
            _np.arange(start, start + len(chunk), dtype=_np.int64), lengths
        )
        _np.bitwise_or.at(
            cells,
            _translate_rows(bitmap, flat) * n_words + (tids >> 6),
            _np.left_shift(_np.uint64(1), (tids & 63).astype(_np.uint64)),
        )


def domain_view(bitmap: BitmapMatrix, domain) -> BitmapMatrix:
    """``bitmap`` — a database's per-item rows — as ``domain`` sees it.

    An item domain's elements are item ids and a lattice only ever asks
    for its own elements, so the database's rows serve as they are (no
    copy).  A derived domain (:func:`~repro.db.domain.derived_type_domain`)
    gets one row per element: the OR of the rows of the items mapping to
    it, i.e. the transactions whose projection contains the element.
    """
    mapping = domain.item_to_element
    if mapping is None:
        return bitmap
    if bitmap.kind == "int":
        masks: Dict[int, int] = {}
        for item, element in mapping.items():
            mask = bitmap.masks.get(item)
            if mask:
                masks[element] = masks.get(element, 0) | mask
        view = BitmapMatrix("int", bitmap.n_transactions, bitmap.n_words,
                            masks=masks)
    else:
        members: Dict[int, list] = {}
        for item, element in mapping.items():
            row = bitmap.item_index.get(item)
            if row is not None:
                members.setdefault(element, []).append(row)
        elements = sorted(members)
        matrix = _np.zeros((len(elements) + 1, bitmap.matrix.shape[1]),
                           dtype=_np.uint64)
        for row, element in enumerate(elements, start=1):
            _np.bitwise_or.reduce(bitmap.matrix[members[element]], axis=0,
                                  out=matrix[row])
        view = BitmapMatrix(
            "numpy", bitmap.n_transactions, bitmap.n_words,
            item_index={e: row for row, e in enumerate(elements, start=1)},
            matrix=matrix,
        )
    return view


class DomainIndex:
    """What a lattice counts against on the bitmap backend's index path:
    one domain's view of a database's bitmap index.

    Making one packs nothing.  The first count resolves it
    (:meth:`BitmapBackend.index_matrix`), packing the database's index
    if no earlier count did, and the view is kept for the rest of the
    run.  ``len()`` is the database's transaction count, so scan
    accounting reads it exactly like a projected list.
    """

    __slots__ = ("db", "domain", "view")

    def __init__(self, db, domain):
        self.db = db
        self.domain = domain
        #: the resolved view (``None`` until the first count)
        self.view: Optional[BitmapMatrix] = None

    def __len__(self) -> int:
        return len(self.db)


def bitmap_probe_cost(
    candidates: Sequence[Itemset], n_transactions: int
) -> int:
    """The metered bit-probe cost of one bitmap counting pass.

    ``sum(len(c)) * N``: every item row of every candidate contributes
    its ``N`` membership bits once.  Linear in ``N``, hence exactly
    additive over any transaction partition (the sharding invariant).
    """
    return sum(len(candidate) for candidate in candidates) * n_transactions


def count_with_bitmap(
    bitmap: BitmapMatrix,
    candidates: Sequence[Itemset],
    counters: Optional[OpCounters] = None,
    var: str = "S",
    k: Optional[int] = None,
    chunk_size: int = 2048,
) -> Dict[Itemset, int]:
    """Support of each candidate via row-AND + popcount.

    The result dict is keyed in candidate order — the same insertion
    order every other kernel produces — so bitmap counts are drop-in
    bit-identical, key order included.
    """
    support: Dict[Itemset, int] = {}
    if bitmap.kind == "numpy":
        probes = _count_numpy(bitmap, candidates, support, chunk_size)
    else:
        probes = _count_ints(bitmap, candidates, support)
    if counters is not None:
        level = k if k is not None else (len(candidates[0]) if candidates else 0)
        counters.record_counted(var, level, len(candidates))
        counters.subset_tests += probes * bitmap.n_transactions
    return support


#: Eligibility bounds for the level-2 Gram-matrix kernel (see
#: :func:`_try_pairs_gemm`): the fp32 accumulator stays exact only
#: while per-pair popcounts cannot exceed 2**24, and the float32
#: expansion of the rows one batch references is capped so a huge
#: dataset cannot balloon memory.
_GEMM_MAX_BITS = 1 << 24
_GEMM_MAX_EXPANDED_BYTES = 8 << 20

#: Bytes of the gather kernel's two work buffers together (see
#: :func:`_count_gather`): at 100k transactions (1563 words a row) they
#: hold 335 candidates each, not the 2048 a candidate-count chunk would
#: size them at (51 MB).
_GATHER_BUFFER_BYTES = 8 << 20

#: Largest item id for which the id -> row translation is a direct
#: array index; sparser id spaces fall back to ``numpy.unique`` + dict.
_MAX_LOOKUP_ITEM = 1 << 22


def _count_numpy(bitmap, candidates, support, chunk_size):
    """Vectorized counting; returns the total item-row probes metered.

    Item ids are translated to matrix rows through a cached lookup
    array (or, for sparse/huge id spaces, one dictionary lookup per
    *distinct* item via ``numpy.unique``) — never one Python dict hit
    per occurrence.  Uniform batches (every candidate the same size —
    what the levelwise engines always send) take the fully vectorized
    path; ragged batches fall back to a per-candidate loop with
    identical results.
    """
    if not candidates:
        return 0
    n = len(candidates)
    k0 = len(candidates[0])
    lengths = _np.fromiter(map(len, candidates), dtype=_np.int64, count=n)
    if k0 == 0 or not (lengths == k0).all():
        return _count_numpy_ragged(bitmap, candidates, support)
    flat = _np.fromiter(
        chain.from_iterable(candidates), dtype=_np.int64, count=n * k0
    )
    rows = _translate_rows(bitmap, flat)
    if k0 == 1:
        counts = _row_supports(bitmap)[rows]
    elif k0 == 2:
        counts = _try_pairs_gemm(bitmap, rows, n)
    else:
        counts = None
    if counts is None:
        counts = _count_gather(
            bitmap.matrix, rows.reshape(n, k0), chunk_size
        )
    support.update(zip(candidates, counts.tolist()))
    return n * k0


def _row_supports(bitmap):
    """Per-row popcounts (row supports), computed once per matrix."""
    if bitmap.row_supports is None:
        bitmap.row_supports = popcount_words(bitmap.matrix).sum(
            axis=1, dtype=_np.int64
        )
    return bitmap.row_supports


def element_occurrences(view: BitmapMatrix, elements: Sequence[int]) -> int:
    """How many times ``elements`` occur across the transactions ``view``
    covers: the sum of their supports, i.e. the total length of the
    transactions projected onto ``elements`` — the probes the one-pass
    singleton kernel (:func:`~repro.mining.counting.count_singletons`)
    meters for a level-1 scan of that projection."""
    if view.kind == "int":
        masks = view.masks
        return sum(_INT_POPCOUNT(masks.get(e, 0)) for e in elements)
    if not elements:
        return 0
    rows = _translate_rows(view, _np.asarray(elements, dtype=_np.int64))
    return int(_row_supports(view)[rows].sum())


def _translate_rows(bitmap, flat):
    """Item ids (any int64 values) -> matrix row indices, vectorized.

    Unknown, negative, and out-of-range ids all resolve to row 0 (the
    reserved all-zero row), so absent items count as support 0 exactly
    like the dict-based kernels.
    """
    lookup = _row_lookup(bitmap)
    if lookup is not None:
        clipped = _np.clip(flat, 0, len(lookup) - 1)
        rows = lookup[clipped]
        rows[clipped != flat] = 0
        return rows
    unique_items, inverse = _np.unique(flat, return_inverse=True)
    item_index = bitmap.item_index
    unique_rows = _np.asarray(
        [item_index.get(int(item), 0) for item in unique_items],
        dtype=_np.intp,
    )
    return unique_rows[inverse]


def _row_lookup(bitmap):
    """The cached direct-index translation array, or ``None``.

    Usable whenever all item ids are non-negative and small enough that
    a dense array is cheap; one pathological id disables it for the
    matrix's lifetime (the ``False`` sentinel) and the unique+dict path
    takes over.
    """
    if bitmap.row_lookup is None:
        item_index = bitmap.item_index
        if item_index and (
            max(item_index) > _MAX_LOOKUP_ITEM or min(item_index) < 0
        ):
            bitmap.row_lookup = False
        else:
            max_item = max(item_index) if item_index else 0
            lookup = _np.zeros(max_item + 1, dtype=_np.intp)
            for item, row in item_index.items():
                lookup[item] = row
            bitmap.row_lookup = lookup
    lookup = bitmap.row_lookup
    return None if lookup is False else lookup


def _gemm_worthwhile(n_candidates, n_rows, n_words):
    """Whether the level-2 Gram kernel beats the gather kernel.

    The Gram matrix costs ``rows**2`` dot products while the gather path
    costs ``n_candidates`` row intersections, so the Gram kernel needs
    the batch to reference its rows densely; the bit-width bound keeps
    the fp32 accumulation exact.
    """
    return (
        n_candidates >= 4 * n_rows
        and n_rows <= 4096
        and n_words * 64 <= _GEMM_MAX_BITS
    )


def _try_pairs_gemm(bitmap, rows, n):
    """Level-2 supports through one BLAS Gram matrix, or ``None``.

    ``popcount(a & b)`` is the dot product of the rows' bit expansions,
    so a dense level-2 batch becomes ``bits @ bits.T`` over the
    referenced rows — the only kernel here that taps BLAS.  Bit order
    within the expansion is irrelevant (dot products are
    permutation-invariant) and the accumulation is exact: every partial
    sum is an integer bounded by the bit width, which
    :func:`_gemm_worthwhile` caps below 2**24 (fp32's exact-integer
    range); ``rint`` guards the int conversion anyway.

    Memory: only the referenced rows are expanded, per call, a slice of
    words at a time, with the float32 slice, its uint8 unpacking and the
    Gram matrix together within :data:`_GEMM_MAX_EXPANDED_BYTES`; the
    Gram matrix accumulates over the slices.  Nothing outlives the
    call.  Declines when not even one word per row fits.
    """
    present = _np.zeros(bitmap.matrix.shape[0], dtype=bool)
    present[rows] = True
    unique_rows = _np.flatnonzero(present)
    n_rows = len(unique_rows)
    if not _gemm_worthwhile(n, n_rows, bitmap.n_words):
        return None
    # Per word of every referenced row: 64 float32 bits plus 64 uint8.
    step = (_GEMM_MAX_EXPANDED_BYTES - n_rows * n_rows * 4) // (n_rows * 320)
    if step < 1:
        return None
    packed = bitmap.matrix[unique_rows]
    buffer = _np.empty(n_rows * min(step, bitmap.n_words) * 64,
                       dtype=_np.float32)
    gram = _np.zeros((n_rows, n_rows), dtype=_np.float32)
    for start in range(0, bitmap.n_words, step):
        words = _np.ascontiguousarray(packed[:, start:start + step])
        bits = buffer[:words.size * 64].reshape(n_rows, -1)
        bits[...] = _np.unpackbits(words.view(_np.uint8), axis=1)
        if _ssyrk is not None:
            # syrk fills only the upper triangle of bits @ bits.T (half
            # the flops); bits.T is the Fortran-contiguous view BLAS
            # wants, so no copy is made.
            gram = _ssyrk(1.0, bits.T, beta=1.0, c=gram, trans=1,
                          overwrite_c=1)
        else:
            gram += bits @ bits.T
    remap = _np.zeros(bitmap.matrix.shape[0], dtype=_np.intp)
    remap[unique_rows] = _np.arange(n_rows)
    pair = remap[rows].reshape(n, 2)
    if _ssyrk is not None:
        # Row indices are folded into syrk's upper triangle.
        lo = _np.minimum(pair[:, 0], pair[:, 1])
        hi = _np.maximum(pair[:, 0], pair[:, 1])
        counts = gram[lo, hi]
    else:
        counts = gram[pair[:, 0], pair[:, 1]]
    return _np.rint(counts).astype(_np.int64)


def _count_gather(matrix, index, chunk_size):
    """Chunked gather + AND + popcount over row indices ``(n, k)``.

    Work buffers are preallocated once and reused across chunks, so the
    kernel's memory high-water mark is two ``(chunk, words)`` arrays
    regardless of batch size — at most ``chunk_size`` candidates and
    :data:`_GATHER_BUFFER_BYTES` together, whatever the row width.
    """
    n, k = index.shape
    n_words = matrix.shape[1]
    chunk = min(chunk_size, n, _gather_chunk(n_words))
    acc = _np.empty((chunk, n_words), dtype=_np.uint64)
    tmp = _np.empty((chunk, n_words), dtype=_np.uint64)
    counts = _np.empty(n, dtype=_np.int64)
    for start in range(0, n, chunk):
        sub = index[start:start + chunk]
        b = len(sub)
        # Row indices are valid by construction; any mode but the
        # default "raise" writes into ``out`` without a hidden buffer.
        _np.take(matrix, sub[:, 0], axis=0, out=acc[:b], mode="clip")
        for j in range(1, k):
            _np.take(matrix, sub[:, j], axis=0, out=tmp[:b], mode="clip")
            _np.bitwise_and(acc[:b], tmp[:b], out=acc[:b])
        _np.sum(popcount_words(acc[:b]), axis=1, dtype=_np.int64,
                out=counts[start:start + b])
    return counts


def _gather_chunk(n_words: int) -> int:
    """Candidates per gather chunk that keep both work buffers within
    :data:`_GATHER_BUFFER_BYTES` (at least one)."""
    return max(1, _GATHER_BUFFER_BYTES // (2 * 8 * max(n_words, 1)))


def _count_numpy_ragged(bitmap, candidates, support):
    """Mixed-size batches: per-candidate row reduction, same contract.

    The levelwise engines never send these (a level's candidates all
    have size ``k``), but the kernel API accepts any batch; an empty
    candidate counts 0, matching the big-int kernel.
    """
    item_index = bitmap.item_index
    matrix = bitmap.matrix
    probes = 0
    for candidate in candidates:
        probes += len(candidate)
        if not candidate:
            support[candidate] = 0
            continue
        rows = [item_index.get(item, 0) for item in candidate]
        intersection = _np.bitwise_and.reduce(matrix[rows], axis=0)
        support[candidate] = int(popcount_words(intersection).sum())
    return probes


def _count_ints(bitmap, candidates, support):
    masks = bitmap.masks
    probes = 0
    for candidate in candidates:
        probes += len(candidate)
        running = masks.get(candidate[0], 0) if candidate else 0
        for item in candidate[1:]:
            if not running:
                break
            running &= masks.get(item, 0)
        support[candidate] = _INT_POPCOUNT(running)
    return probes


class BitmapBackend:
    """Counting backend over cached :class:`BitmapMatrix` packings.

    Matrices are cached **by transaction-list content digest** with an
    ``id``-keyed memo in front, exactly like
    :class:`~repro.mining.backends.VerticalBackend`'s TID-list cache:
    equal-content lists (two loads of one dataset, a shard re-sliced
    each level) share one build, the memo pins list objects so recycled
    ids can never alias, and ``builds`` counts actual packings so tests
    can assert the sharing.  A :class:`DomainIndex` in place of a list
    counts against its database's cached index instead
    (:meth:`index_matrix`); that cache belongs to the database, not to
    this backend.  Per-pass candidate counts, words touched,
    and kernel wall time accumulate on :attr:`stats`
    (:class:`~repro.db.stats.BitmapStats`), which ``--explain`` and run
    reports surface next to the parallel backend's block.
    """

    name = "bitmap"

    def __init__(
        self,
        max_cached_matrices: int = 8,
        chunk_candidates: int = 2048,
        use_numpy: Optional[bool] = None,
    ):
        if max_cached_matrices < 1:
            raise ExecutionError(
                f"max_cached_matrices must be >= 1, got {max_cached_matrices}"
            )
        if chunk_candidates < 1:
            raise ExecutionError(
                f"chunk_candidates must be >= 1, got {chunk_candidates}"
            )
        self.max_cached_matrices = max_cached_matrices
        self.chunk_candidates = chunk_candidates
        self.use_numpy = HAVE_NUMPY if use_numpy is None else use_numpy
        #: content digest -> BitmapMatrix (bounded FIFO)
        self._cache: Dict[str, BitmapMatrix] = {}
        #: id(list) -> (list object, content digest) memo (bounded FIFO)
        self._digests: Dict[int, Tuple[object, str]] = {}
        #: matrix packings performed (cache misses); equal-content lists
        #: must not bump this twice.
        self.builds = 0
        self.stats = BitmapStats(kernel="numpy" if self.use_numpy else "int")

    def _fingerprint(self, transactions) -> str:
        memo = self._digests.get(id(transactions))
        if memo is not None and memo[0] is transactions:
            return memo[1]
        from repro.runtime.checkpoint import transactions_digest

        digest = transactions_digest(transactions)
        if len(self._digests) >= self.max_cached_matrices:
            self._digests.pop(next(iter(self._digests)))
        self._digests[id(transactions)] = (transactions, digest)
        return digest

    def matrix_for(self, transactions) -> BitmapMatrix:
        """The (cached) bitmap packing of ``transactions``."""
        key = self._fingerprint(transactions)
        bitmap = self._cache.get(key)
        if bitmap is None:
            bitmap = build_bitmap(transactions, use_numpy=self.use_numpy)
            self.builds += 1
            self.stats.record_build()
            if len(self._cache) >= self.max_cached_matrices:
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = bitmap
        else:
            self.stats.record_cache_hit()
        return bitmap

    def index_matrix(self, index: DomainIndex) -> BitmapMatrix:
        """The matrix ``index`` counts against, resolved on first use.

        Recorded as a matrix build when this call made the database pack
        its index, and as a cache hit otherwise.
        """
        if index.view is None:
            db = index.db
            if db.has_bitmap(self.use_numpy):
                self.stats.record_cache_hit()
            else:
                self.builds += 1
                self.stats.record_build()
            index.view = domain_view(db.bitmap(self.use_numpy), index.domain)
        else:
            self.stats.record_cache_hit()
        return index.view

    def count(
        self,
        transactions: Sequence[Tuple[int, ...]],
        candidates: Sequence[Itemset],
        k: int,
        counters: Optional[OpCounters] = None,
        var: str = "S",
        guard=None,
    ) -> Dict[Itemset, int]:
        if not candidates:
            return {}
        # The matrix ops are not guard-instrumented (they complete in
        # microseconds); one full check per pass still bounds a run to
        # level granularity, matching the hashtree/vertical backends.
        if guard is not None and guard.enabled:
            guard.check("counting")
        index = transactions if isinstance(transactions, DomainIndex) else None
        bitmap = (
            self.index_matrix(index) if index is not None
            else self.matrix_for(transactions)
        )
        start = time.perf_counter()
        support = count_with_bitmap(
            bitmap, candidates, chunk_size=self.chunk_candidates
        )
        if counters is not None:
            counters.record_counted(var, k, len(candidates))
            # A level-1 pass over the index stands in for the singleton
            # scan of the projected list, and is metered in that scan's
            # unit, so a bitmap run's counters are the same on either
            # path (the list path counts level 1 with count_singletons).
            counters.subset_tests += (
                element_occurrences(bitmap, index.domain.elements)
                if index is not None and k == 1
                else bitmap_probe_cost(candidates, bitmap.n_transactions)
            )
        self.stats.record_level(
            candidates=len(candidates),
            words=len(candidates) * max(k, 1) * bitmap.n_words,
            seconds=time.perf_counter() - start,
        )
        return support

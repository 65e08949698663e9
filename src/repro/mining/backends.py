"""Pluggable support-counting backends.

The levelwise miners delegate per-level counting to a backend with the
signature::

    backend.count(transactions, candidates, k, counters, var) -> {itemset: support}

Five are provided (and compared in the backend ablation benchmark):

``HybridBackend``
    The default of :mod:`repro.mining.counting`: per transaction, pick
    the cheaper of subset enumeration and candidate scanning.
``HashTreeBackend``
    The original Apriori candidate hash tree [2].
``VerticalBackend``
    TID-list intersections (vertical layout), rebuilt per level from the
    (possibly trimmed) transaction list.
``BitmapBackend``
    Vectorized vertical counting: per-item TID bitmaps packed as numpy
    uint64 rows, candidate support = popcount of row-AND intersections,
    whole candidate batches counted as matrix ops
    (:mod:`repro.mining.bitmap`).  The default of the CFQ engines, which
    hand it each domain's view of the database's cached bitmap index
    instead of a projected transaction list.
``ParallelBackend``
    Transaction-sharded counting: the transaction list is split into N
    contiguous shards, each counted with the hybrid or bitmap kernel
    (``kernel=``) in a worker process, and the per-shard
    ``{itemset: support}`` maps and
    :class:`~repro.db.stats.OpCounters` deltas are merged into results
    identical to the serial backend (supports sum across shards; the
    candidate-set ledger is recorded once — see
    :func:`repro.db.stats.merge_shard_counters`).  Both shardable
    kernels meter per-transaction-additive work, so merged counters are
    bit-identical to a serial run's; the vertical TID-list kernel is
    *not* shardable for exactly that reason (its intersection metering
    depends on TID-list sizes — see :mod:`repro.mining.vertical`).

All backends meter their work into ``counters.subset_tests`` using
comparable units (elementary probes), so the operation-count cost model
remains meaningful across backends.

Lifecycle
---------
Backends that hold expensive resources (the worker pool of
:class:`ParallelBackend`) expose ``open()``/``close()`` and the context
manager protocol.  Every driver (:func:`repro.mining.apriori.mine_frequent`,
:func:`repro.mining.cap.cap_mine`,
:class:`repro.mining.dovetail.DovetailEngine`) wraps its level loop in
:func:`backend_scope`, so the pool is forked **once per mining run** and
reused across all dovetailed levels, instead of once per level.  Scopes
nest (re-entrant refcount), so an outer caller — the CLI, a benchmark —
can hold the pool across several runs.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.db.stats import OpCounters, ParallelStats, merge_shard_counters
from repro.errors import ExecutionError, RunInterrupted
from repro.itemsets import Itemset
from repro.mining.bitmap import BitmapBackend
from repro.mining.counting import count_candidates
from repro.mining.hashtree import build_hash_tree
from repro.mining.vertical import build_tidlists, count_with_tidlists
from repro.obs.logs import get_logger

logger = get_logger(__name__)

#: Kernels :class:`ParallelBackend` can shard over TID ranges.  Both
#: meter per-transaction-additive work, so merged shard counters equal
#: the serial backend's (the differential harness asserts it).
SHARD_KERNELS = ("hybrid", "bitmap")

#: Per-process bitmap backend for sharded bitmap counting: pool workers
#: (and the in-process fallback path) reuse one instance so a shard's
#: matrix — keyed by content digest — is packed once per worker and
#: shared across all levels of a run, mirroring the serial backend's
#: cross-level cache.
_SHARD_BITMAP: Optional[BitmapBackend] = None


def _shard_bitmap() -> BitmapBackend:
    global _SHARD_BITMAP
    if _SHARD_BITMAP is None:
        _SHARD_BITMAP = BitmapBackend()
    return _SHARD_BITMAP


class HybridBackend:
    """The default enumerate-or-scan strategy."""

    name = "hybrid"

    def count(
        self,
        transactions: Sequence[Tuple[int, ...]],
        candidates: Sequence[Itemset],
        k: int,
        counters: Optional[OpCounters] = None,
        var: str = "S",
        guard=None,
    ) -> Dict[Itemset, int]:
        return count_candidates(transactions, candidates, k, counters, var,
                                guard=guard)


class HashTreeBackend:
    """Counting through the classic Apriori hash tree."""

    name = "hashtree"

    def __init__(self, leaf_size: int = 8, fanout: int = 16):
        self.leaf_size = leaf_size
        self.fanout = fanout

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
        # The tree kernel is not guard-instrumented; one full check per
        # pass still bounds a run to level granularity.
        if guard is not None and guard.enabled:
            guard.check("counting")
        tree = build_hash_tree(candidates, k, self.leaf_size, self.fanout)
        return tree.count(transactions, counters, var)


class VerticalBackend:
    """Counting through TID-list intersections.

    TID-lists are cached **by transaction-list content fingerprint**
    (:func:`repro.runtime.checkpoint.transactions_digest`), so two loads
    of the same dataset file — distinct list objects with equal content —
    share one TID-list build.  Keying on ``id()`` alone would miss that
    sharing (and could alias recycled ids); content keying makes the
    cache safe across independently loaded copies.  An ``id``-keyed memo
    in front avoids re-digesting the *same* list object on every level
    (the common case: a lattice reuses its trimmed list across levels);
    the memo keeps the list object alive so its id cannot be recycled
    under the memo.  ``builds`` counts actual TID-list constructions, so
    tests can assert the sharing.
    """

    name = "vertical"

    def __init__(self, max_cached_lists: int = 8):
        if max_cached_lists < 1:
            raise ExecutionError(
                f"max_cached_lists must be >= 1, got {max_cached_lists}"
            )
        self.max_cached_lists = max_cached_lists
        #: content digest -> TID-lists (bounded FIFO)
        self._cache: Dict[str, Dict[int, frozenset]] = {}
        #: id(list) -> (list object, content digest) memo (bounded FIFO)
        self._digests: Dict[int, Tuple[object, str]] = {}
        #: TID-list builds performed (cache misses); equal-content lists
        #: must not bump this twice.
        self.builds = 0

    def _fingerprint(self, transactions) -> str:
        memo = self._digests.get(id(transactions))
        if memo is not None and memo[0] is transactions:
            return memo[1]
        from repro.runtime.checkpoint import transactions_digest

        digest = transactions_digest(transactions)
        if len(self._digests) >= self.max_cached_lists:
            self._digests.pop(next(iter(self._digests)))
        self._digests[id(transactions)] = (transactions, digest)
        return digest

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
        # TID-list intersections are not guard-instrumented; one full
        # check per pass still bounds a run to level granularity.
        if guard is not None and guard.enabled:
            guard.check("counting")
        key = self._fingerprint(transactions)
        tidlists = self._cache.get(key)
        if tidlists is None:
            tidlists = build_tidlists(transactions)
            self.builds += 1
            if len(self._cache) >= self.max_cached_lists:
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = tidlists
        return count_with_tidlists(tidlists, candidates, counters, var, k=k)


# ----------------------------------------------------------------------
# Transaction-sharded parallel counting
# ----------------------------------------------------------------------
def shard_transactions(
    transactions: Sequence[Tuple[int, ...]], n_shards: int
) -> List[List[Tuple[int, ...]]]:
    """Partition ``transactions`` into ``n_shards`` contiguous shards.

    Shards are size-balanced (sizes differ by at most one) and preserve
    transaction order, so the split is deterministic for a given input.
    Trailing shards may be empty when there are fewer transactions than
    shards; they still participate in the merge so counter merging stays
    uniform.
    """
    if n_shards < 1:
        raise ExecutionError(f"n_shards must be >= 1, got {n_shards}")
    base, extra = divmod(len(transactions), n_shards)
    shards: List[List[Tuple[int, ...]]] = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        shards.append(list(transactions[start:start + size]))
        start += size
    return shards


def merge_shard_supports(
    per_shard: Sequence[Dict[Itemset, int]],
    candidates: Sequence[Itemset],
) -> Dict[Itemset, int]:
    """Sum per-shard support maps over the shared candidate list.

    The result is keyed in candidate order — the same insertion order
    :func:`~repro.mining.counting.count_candidates` produces — so a
    merged sharded count is indistinguishable from a serial one, keys
    included.  Addition is commutative and associative, so any shard
    order or grouping yields the same map (property-tested in
    ``tests/test_parallel_merge.py``).
    """
    merged: Dict[Itemset, int] = dict.fromkeys(candidates, 0)
    for shard_support in per_shard:
        for itemset, support in shard_support.items():
            merged[itemset] += support
    return merged


def count_shard(
    shard: Sequence[Tuple[int, ...]],
    candidates: Sequence[Itemset],
    k: int,
    var: str,
    guard=None,
    kernel: str = "hybrid",
) -> Tuple[Dict[Itemset, int], OpCounters, float]:
    """Count one shard with the hybrid or bitmap kernel (worker entry).

    Returns the shard's support map, its private counter deltas, and its
    wall time.  Module-level so it pickles for ``multiprocessing.Pool``.
    ``guard`` only ever arrives on the in-process path — cooperative
    checks cannot cross process boundaries, so pooled shards are
    cancelled from the parent instead (see ``ParallelBackend``).  The
    bitmap kernel counts through the per-process
    :class:`~repro.mining.bitmap.BitmapBackend`, whose content-digest
    cache packs each shard's matrix once per worker and reuses it across
    levels (shard slices are re-materialized per level, but their
    content — and hence the digest — is stable once level-1 trimming is
    done).
    """
    counters = OpCounters()
    start = time.perf_counter()
    if kernel == "bitmap":
        support = _shard_bitmap().count(
            shard, candidates, k, counters, var, guard=guard
        )
    else:
        support = count_candidates(shard, candidates, k, counters, var,
                                   guard=guard)
    return support, counters, time.perf_counter() - start


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic fault injection for pooled shard tasks (testing).

    Every task the pool runs carries a monotonically increasing sequence
    number (retries get fresh numbers); when a task's number is in
    ``seqs`` the injector fires *inside the worker process* before any
    counting happens:

    * ``"crash"`` — raise ``RuntimeError`` (the parent sees the exception
      through ``ApplyResult.get``);
    * ``"hang"`` — sleep ``hang_seconds`` (longer than the backend's
      ``shard_timeout``, so the parent times the shard out);
    * ``"kill"`` — hard-exit the worker via ``os._exit`` (the pool
      repopulates; the task's result never arrives, surfacing as a
      timeout in the parent).

    The injector only applies to pooled tasks — the in-process and
    serial-fallback paths are the recovery mechanism and run clean.
    """

    mode: str
    seqs: FrozenSet[int]
    hang_seconds: float = 30.0

    MODES = ("crash", "hang", "kill")

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ExecutionError(
                f"unknown fault mode {self.mode!r}; choose from {self.MODES}"
            )
        object.__setattr__(self, "seqs", frozenset(self.seqs))

    def fire(self, seq: int) -> None:
        """Inject the configured fault if ``seq`` is a target."""
        if seq not in self.seqs:
            return
        if self.mode == "crash":
            raise RuntimeError(f"injected worker crash (task {seq})")
        if self.mode == "hang":
            time.sleep(self.hang_seconds)
        elif self.mode == "kill":  # pragma: no cover - exits the worker
            os._exit(3)


def _count_shard_task(args) -> Tuple[Dict[Itemset, int], OpCounters, float]:
    """Pool task wrapper: optional fault injection, then the shard count."""
    shard, candidates, k, var, seq, injector, kernel = args
    if injector is not None:
        injector.fire(seq)
    if kernel == "hybrid":
        return count_shard(shard, candidates, k, var)
    return count_shard(shard, candidates, k, var, kernel=kernel)


def _count_shard_guarded(shard, candidates, k, var, guard, kernel="hybrid"):
    """In-process shard count, forwarding optional keywords only when set.

    ``count_shard`` is monkeypatchable (tests substitute four-argument
    fakes), so ``guard`` is only added when a run actually carries an
    enabled guard, and ``kernel`` only when it departs from the hybrid
    default.
    """
    kwargs = {}
    if guard is not None:
        kwargs["guard"] = guard
    if kernel != "hybrid":
        kwargs["kernel"] = kernel
    return count_shard(shard, candidates, k, var, **kwargs)


def default_workers() -> int:
    """Default worker count: up to four, bounded by the visible CPUs."""
    return max(1, min(4, os.cpu_count() or 1))


def _pool_worker_init() -> None:
    """Reset inherited signal dispositions in a freshly forked worker.

    The pool may be forked inside a ``RunGuard.signals()`` scope (the
    CLI does exactly that), and forked children inherit the parent's
    handlers.  The guard's handler only sets a cooperative-cancel flag,
    so a worker inheriting it would *survive* the SIGTERM that
    ``Pool.terminate()`` sends and wedge shutdown in its unbounded
    worker joins.  Workers therefore take the default SIGTERM action
    (die) and ignore SIGINT outright — a ctrl-C is the parent's to
    orchestrate: the guard turns it into a labeled partial result and
    then closes the pool deliberately.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class ParallelBackend:
    """Transaction-sharded parallel counting as a long-lived service.

    Parameters
    ----------
    workers:
        Number of shards / worker processes (defaults to
        :func:`default_workers`).
    shard_threshold:
        Inputs with fewer transactions than this are counted in-process
        (still sharded and merged, so the code path and metering are
        identical) — dispatching a tiny list to the pool costs more than
        the count itself.  Set to 0 to force the pool whenever
        ``workers > 1``.
    shard_timeout:
        Seconds to wait for one shard's result before treating it as
        failed (``None`` disables the timeout — then a killed worker's
        lost task would block forever, so the default keeps one).
    max_retries:
        How many times a failed shard is resubmitted to the pool before
        it degrades to in-process serial counting.
    kernel:
        Per-shard counting kernel, one of :data:`SHARD_KERNELS`:
        ``"hybrid"`` (the default pure-Python enumerate-or-scan) or
        ``"bitmap"`` (the vectorized uint64 kernel of
        :mod:`repro.mining.bitmap`).  Both kernels' supports *and*
        probe metering are additive over a transaction partition, so
        either choice yields merged results bit-identical to the
        matching serial backend.
    fault_injector:
        Optional :class:`FaultInjector` applied to pooled tasks (test
        hook; ``None`` in production).

    Lifecycle
    ---------
    The worker pool is forked lazily on first pooled count and then
    **reused across levels** until :meth:`close` (or the end of the
    enclosing :func:`backend_scope` / ``with`` block).  ``open()`` and
    ``close()`` nest; the pool dies when the outermost scope closes.
    ``stats.pool_forks`` counts actual forks, so one mining run must show
    exactly one.

    Fault tolerance
    ---------------
    A shard that crashes, times out, or loses its worker is retried up
    to ``max_retries`` times (fresh task, fresh sequence number); a shard
    that exhausts its retries is counted in-process — the run always
    completes with results bit-identical to :class:`HybridBackend`.  If
    the pool itself stops accepting work (or an entire level falls back)
    it is marked broken, torn down, and all remaining levels run
    in-process.  Every failure, retry, and fallback is recorded on
    :attr:`stats` (:class:`~repro.db.stats.ParallelStats`) and surfaced
    in ``--explain`` output.

    Results are bit-identical to :class:`HybridBackend`: supports are
    per-transaction sums, so they distribute over any partition of the
    transaction list, and the hybrid kernel's probe metering is likewise
    a per-transaction sum (see :mod:`repro.mining.counting`).
    """

    name = "parallel"

    def __init__(
        self,
        workers: Optional[int] = None,
        shard_threshold: int = 512,
        shard_timeout: Optional[float] = 60.0,
        max_retries: int = 2,
        fault_injector: Optional[FaultInjector] = None,
        kernel: str = "hybrid",
    ):
        if workers is None:
            workers = default_workers()
        if not isinstance(workers, int) or isinstance(workers, bool):
            raise ExecutionError(f"workers must be an integer, got {workers!r}")
        if workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {workers}")
        if shard_threshold < 0:
            raise ExecutionError(
                f"shard_threshold must be >= 0, got {shard_threshold}"
            )
        if shard_timeout is not None and shard_timeout <= 0:
            raise ExecutionError(
                f"shard_timeout must be positive or None, got {shard_timeout}"
            )
        if max_retries < 0:
            raise ExecutionError(f"max_retries must be >= 0, got {max_retries}")
        if kernel not in SHARD_KERNELS:
            raise ExecutionError(
                f"unknown shard kernel {kernel!r}; choose from {SHARD_KERNELS}"
            )
        self.workers = workers
        self.shard_threshold = shard_threshold
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.fault_injector = fault_injector
        self.kernel = kernel
        self.stats = ParallelStats(kernel=kernel)
        self._pool = None
        self._open_depth = 0
        self._broken = False
        self._task_seq = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self) -> "ParallelBackend":
        """Enter a (nestable) usage scope; the pool survives until the
        outermost matching :meth:`close`."""
        if self._open_depth == 0:
            # A fresh run gets a fresh chance even if a previous run
            # broke and tore down its pool.
            self._broken = False
        self._open_depth += 1
        return self

    def close(self) -> None:
        """Leave a usage scope; tear the pool down at the outermost one.

        Idempotent and unconditionally safe: extra calls (or calls on an
        already-broken or never-opened backend) are no-ops, and the
        shutdown itself never hangs (see :meth:`_shutdown_pool`), so
        ``close()`` can always run in ``finally`` blocks and
        ``atexit``-style teardown.
        """
        if self._open_depth > 0:
            self._open_depth -= 1
        if self._open_depth == 0:
            self._shutdown_pool()

    def __enter__(self) -> "ParallelBackend":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        self._shutdown_pool()

    @property
    def pool_open(self) -> bool:
        """Whether a live worker pool currently exists."""
        return self._pool is not None

    def _ensure_pool(self):
        if self._pool is None:
            logger.info("forking worker pool with %d workers", self.workers)
            self._pool = multiprocessing.Pool(
                self.workers, initializer=_pool_worker_init
            )
            self.stats.record_fork()
        return self._pool

    #: Seconds to wait for the pool to wind down before the shutdown
    #: hard-kills the remaining workers and abandons it (both
    #: ``Pool.terminate`` and ``Pool.join`` block without a timeout).
    JOIN_TIMEOUT = 5.0

    def _shutdown_pool(self) -> None:
        # getattr: __del__ may run on an instance whose __init__ raised
        # during parameter validation, before _pool was assigned.
        pool = getattr(self, "_pool", None)
        self._pool = None
        if pool is None:
            return
        # terminate(), not close(): a hung worker must not stall the
        # shutdown (close() would wait for the sleeping task).  But
        # terminate() itself is not trusted to return either — its
        # internal worker joins are unbounded, so a worker that
        # survived the SIGTERM it sends (e.g. one forked with an
        # inherited do-nothing handler) would wedge it.  The whole
        # teardown therefore runs on a daemon thread with a bounded
        # wait; workers still alive afterwards are hard-killed before
        # the pool is abandoned.
        teardown = threading.Thread(
            target=self._teardown_quietly, args=(pool,), daemon=True
        )
        teardown.start()
        teardown.join(self.JOIN_TIMEOUT)
        if teardown.is_alive():
            logger.warning(
                "pool teardown did not finish within %.1fs; killing workers",
                self.JOIN_TIMEOUT,
            )
            for worker in list(getattr(pool, "_pool", None) or []):
                try:
                    worker.kill()
                except Exception:  # pragma: no cover - worker already gone
                    pass
            teardown.join(self.JOIN_TIMEOUT)

    @staticmethod
    def _teardown_quietly(pool) -> None:
        # Both calls are defended — a pool whose workers were
        # hard-killed can raise from its own bookkeeping, and shutdown
        # must never fail.
        try:
            pool.terminate()
        except Exception:  # pragma: no cover - depends on pool state
            pass
        try:
            pool.join()
        except Exception:  # pragma: no cover - depends on pool state
            pass

    def _mark_broken(self, reason: str) -> None:
        logger.error(
            "parallel pool marked broken (%s); remaining levels run in-process",
            reason,
        )
        self._broken = True
        self.stats.mark_broken(reason)
        self._shutdown_pool()

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
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
        if guard is not None and not guard.enabled:
            guard = None
        # One shared candidate tuple: every shard task references (and
        # pickles) the same materialization instead of W private copies.
        shared = tuple(candidates)
        shards = shard_transactions(transactions, self.workers)
        in_process = (
            self.workers == 1
            or len(transactions) < self.shard_threshold
            or self._broken
        )
        if in_process:
            outcomes = [
                _count_shard_guarded(shard, shared, k, var, guard, self.kernel)
                for shard in shards
            ]
            failures = retries = fallbacks = 0
        else:
            try:
                outcomes, failures, retries, fallbacks = self._count_pooled(
                    shards, shared, k, var, guard
                )
            except RunInterrupted as exc:
                # Cancel outstanding shard tasks: terminating the pool
                # discards queued and running work.  The backend is NOT
                # marked broken — a later (resumed) run may re-fork.
                reason = getattr(getattr(exc, "trip", None), "reason", None)
                self.stats.record_cancellation(reason or "run interrupted")
                logger.info(
                    "guard trip (%s): terminating worker pool to cancel "
                    "outstanding shard tasks", reason or "interrupted",
                )
                self._shutdown_pool()
                raise
        merge_start = time.perf_counter()
        supports = merge_shard_supports([o[0] for o in outcomes], shared)
        shard_total = merge_shard_counters([o[1] for o in outcomes])
        if counters is not None:
            counters.subset_tests += shard_total.subset_tests
            counters.scans += shard_total.scans
            counters.tuples_read += shard_total.tuples_read
            counters.constraint_checks_singleton += (
                shard_total.constraint_checks_singleton
            )
            counters.constraint_checks_larger += (
                shard_total.constraint_checks_larger
            )
            counters.pair_checks += shard_total.pair_checks
            for (v, level), n_sets in shard_total.support_counted.items():
                counters.record_counted(v, level, n_sets)
        merge_seconds = time.perf_counter() - merge_start
        self.stats.record_level(
            shard_sizes=[len(shard) for shard in shards],
            shard_seconds=[o[2] for o in outcomes],
            merge_seconds=merge_seconds,
            in_process=in_process,
            failures=failures,
            retries=retries,
            fallback_shards=fallbacks,
        )
        return supports

    def _submit(self, pool, shard, candidates, k, var):
        seq = self._task_seq
        self._task_seq += 1
        return pool.apply_async(
            _count_shard_task,
            ((shard, candidates, k, var, seq, self.fault_injector,
              self.kernel),),
        )

    def _await_result(self, result, guard):
        """One shard result, with cooperative guard checks while waiting.

        Without a guard this is a plain ``get`` with the shard timeout.
        With one, the wait is sliced so deadline/memory/cancellation
        trips surface within ~50ms instead of after ``shard_timeout``;
        an elapsed timeout raises the same ``TimeoutError`` ``get``
        would, feeding the normal retry/fallback machinery.
        """
        if guard is None:
            return result.get(self.shard_timeout)
        deadline = (
            None if self.shard_timeout is None
            else time.monotonic() + self.shard_timeout
        )
        while True:
            guard.check("parallel wait")
            if deadline is not None and time.monotonic() >= deadline:
                raise multiprocessing.TimeoutError(
                    f"shard result not ready within {self.shard_timeout}s"
                )
            result.wait(0.05)
            if result.ready():
                return result.get(0)

    def _count_pooled(
        self,
        shards: Sequence[Sequence[Tuple[int, ...]]],
        candidates: Tuple[Itemset, ...],
        k: int,
        var: str,
        guard=None,
    ):
        """Count all shards through the pool with retry and fallback."""
        n = len(shards)
        outcomes: List[Optional[tuple]] = [None] * n
        pending: List[Optional[object]] = [None] * n
        failures = retries = fallbacks = 0
        pool = None
        try:
            pool = self._ensure_pool()
            for i in range(n):
                pending[i] = self._submit(pool, shards[i], candidates, k, var)
        except Exception as exc:
            self._mark_broken(f"pool submission failed: {exc!r}")
        for i in range(n):
            attempts = 0
            result = pending[i]
            while outcomes[i] is None:
                if self._broken or result is None:
                    outcomes[i] = _count_shard_guarded(
                        shards[i], candidates, k, var, guard, self.kernel
                    )
                    fallbacks += 1
                    break
                try:
                    outcomes[i] = self._await_result(result, guard)
                except RunInterrupted:
                    # Never fold a guard trip into the shard retry
                    # machinery — it must unwind the whole run.
                    raise
                except Exception as exc:
                    failures += 1
                    logger.warning(
                        "shard %d/%d failed (%s: %s); attempt %d of %d",
                        i + 1, n, type(exc).__name__, exc,
                        attempts + 1, self.max_retries + 1,
                    )
                    self.stats.record_failure(
                        f"shard {i + 1}/{n}: {type(exc).__name__}: {exc}"
                    )
                    if attempts >= self.max_retries:
                        logger.warning(
                            "shard %d/%d exhausted retries; "
                            "falling back to in-process counting", i + 1, n,
                        )
                        outcomes[i] = _count_shard_guarded(
                            shards[i], candidates, k, var, guard, self.kernel
                        )
                        fallbacks += 1
                        break
                    attempts += 1
                    retries += 1
                    try:
                        result = self._submit(
                            pool, shards[i], candidates, k, var
                        )
                    except Exception as exc2:
                        self._mark_broken(f"pool resubmission failed: {exc2!r}")
                        result = None
        if n and fallbacks == n:
            self._mark_broken(
                "every shard of a level fell back to serial counting"
            )
        return outcomes, failures, retries, fallbacks


def guarded_count(
    backend,
    transactions: Sequence[Tuple[int, ...]],
    candidates: Sequence[Itemset],
    k: int,
    counters: Optional[OpCounters] = None,
    var: str = "S",
    guard=None,
) -> Dict[Itemset, int]:
    """Call ``backend.count``, forwarding the guard only when it is live.

    Backends are duck-typed (tests and extensions supply their own), so
    the ``guard`` keyword is only passed to backends when a run actually
    carries an enabled guard — pre-guardrail backend implementations
    keep working unchanged on unguarded runs.
    """
    if guard is not None and guard.enabled:
        return backend.count(transactions, candidates, k, counters, var,
                             guard=guard)
    return backend.count(transactions, candidates, k, counters, var)


@contextlib.contextmanager
def backend_scope(backend):
    """Hold a backend's resources open for the duration of a mining run.

    Duck-typed: backends without an ``open``/``close`` lifecycle (and
    ``None``) pass through untouched.  Scopes nest, so a driver inside an
    outer scope neither re-forks nor prematurely tears down the pool.
    """
    opener = getattr(backend, "open", None)
    closer = getattr(backend, "close", None)
    if not (callable(opener) and callable(closer)):
        yield backend
        return
    opener()
    try:
        yield backend
    finally:
        closer()


BACKENDS = {
    "hybrid": HybridBackend,
    "hashtree": HashTreeBackend,
    "vertical": VerticalBackend,
    "bitmap": BitmapBackend,
    "parallel": ParallelBackend,
}


def make_backend(name_or_backend) -> object:
    """Resolve a backend name (or pass an instance through).

    ``"parallel"`` accepts an optional worker suffix and an optional
    shard-kernel suffix: ``"parallel:4"`` builds a
    :class:`ParallelBackend` with four workers over the hybrid kernel,
    ``"parallel:4:bitmap"`` shards the vectorized bitmap kernel
    instead.  Malformed names and specs raise
    :class:`~repro.errors.ExecutionError`, so they surface as clean CLI
    errors rather than tracebacks.
    """
    if isinstance(name_or_backend, str):
        name, sep, arg = name_or_backend.partition(":")
        if sep and name != "parallel":
            raise ExecutionError(
                f"backend {name!r} takes no {arg!r} argument; only "
                f"'parallel:<workers>[:<kernel>]' is parameterized"
            )
        if sep:
            workers_text, kernel_sep, kernel = arg.partition(":")
            try:
                workers = int(workers_text)
            except ValueError:
                raise ExecutionError(
                    f"invalid worker count {workers_text!r} in "
                    f"{name_or_backend!r}"
                ) from None
            if not kernel_sep:
                return ParallelBackend(workers=workers)
            if kernel not in SHARD_KERNELS:
                raise ExecutionError(
                    f"unknown shard kernel {kernel!r} in "
                    f"{name_or_backend!r}; choose from {SHARD_KERNELS}"
                )
            return ParallelBackend(workers=workers, kernel=kernel)
        try:
            return BACKENDS[name]()
        except KeyError:
            raise ExecutionError(
                f"unknown counting backend {name_or_backend!r}; "
                f"choose from {sorted(BACKENDS)}"
            ) from None
    return name_or_backend

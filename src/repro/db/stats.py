"""Instrumentation counters for the ccc cost model.

The paper's notion of ccc-optimality (Definition 6) is defined over two
fundamental operations:

* **support counting** — the number of candidate sets whose support is
  counted, and
* **constraint checking** — the number of invocations of the constraint
  checking operation, split by whether the checked set is a singleton
  (condition (2) permits checks only on sets of size 1).

:class:`OpCounters` records both, plus the I/O-side quantities the
Section 5.2 dovetailing discussion cares about (database scans and tuples
read).  Every mining strategy in :mod:`repro.mining` threads a single
:class:`OpCounters` through its run so strategies can be compared on a
deterministic, machine-independent cost.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Sequence, Tuple


def debug_checks_enabled() -> bool:
    """Whether expensive internal consistency assertions are on.

    Controlled by the ``REPRO_DEBUG`` environment variable (``1``/
    ``true``/``yes``/``on``); read at check time so tests can toggle it
    per-case.
    """
    return os.environ.get("REPRO_DEBUG", "").strip().lower() in (
        "1", "true", "yes", "on"
    )


@dataclass
class ScanStats:
    """Scan-level I/O statistics for a transaction database."""

    scans: int = 0
    tuples_read: int = 0

    def record_scan(self, tuples: int) -> None:
        """Record one full pass over ``tuples`` transactions."""
        self.scans += 1
        self.tuples_read += tuples

    def merged(self, other: "ScanStats") -> "ScanStats":
        """Return the sum of two scan statistics."""
        return ScanStats(self.scans + other.scans, self.tuples_read + other.tuples_read)


@dataclass
class OpCounters:
    """Operation counts underlying the ccc cost model.

    Attributes
    ----------
    support_counted:
        Number of candidate sets whose support was counted, per variable
        name and level: ``{("S", 2): 153, ...}``.
    constraint_checks_singleton / constraint_checks_larger:
        Constraint-checking invocations on singletons vs larger sets.
        Condition (2) of Definition 6 allows only the former during the
        lattice computation.
    subset_tests:
        Fine-grained counting work: number of (candidate, transaction)
        containment tests performed — the dominant CPU term, standing in
        for the paper's CPU time.
    scans / tuples_read:
        Database passes and transactions touched, standing in for I/O.
    pair_checks:
        Constraint checks performed while forming final (S, T) pairs; the
        paper treats pair formation as a separate, cheap phase, so these
        are tracked apart from lattice-time checks.
    """

    support_counted: Dict[Tuple[str, int], int] = field(default_factory=dict)
    constraint_checks_singleton: int = 0
    constraint_checks_larger: int = 0
    subset_tests: int = 0
    scans: int = 0
    tuples_read: int = 0
    pair_checks: int = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_counted(self, var: str, level: int, n_sets: int) -> None:
        """Record that ``n_sets`` candidates of size ``level`` for variable
        ``var`` had their support counted."""
        key = (var, level)
        self.support_counted[key] = self.support_counted.get(key, 0) + n_sets

    def record_check(self, set_size: int, n_checks: int = 1) -> None:
        """Record constraint-check invocations on sets of ``set_size``."""
        if set_size <= 1:
            self.constraint_checks_singleton += n_checks
        else:
            self.constraint_checks_larger += n_checks

    def record_scan(self, tuples: int) -> None:
        """Record one database pass touching ``tuples`` transactions."""
        self.scans += 1
        self.tuples_read += tuples

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def total_counted(self) -> int:
        """Total number of sets counted for support, all variables/levels."""
        return sum(self.support_counted.values())

    @property
    def total_checks(self) -> int:
        """Total lattice-time constraint-check invocations."""
        return self.constraint_checks_singleton + self.constraint_checks_larger

    def counted_for(self, var: str) -> int:
        """Total sets counted for one variable."""
        return sum(n for (v, __), n in self.support_counted.items() if v == var)

    def counted_by_level(self, var: str) -> Dict[int, int]:
        """Per-level counted-set totals for one variable."""
        return {
            level: n
            for (v, level), n in sorted(self.support_counted.items())
            if v == var
        }

    def cost(self, weights: "CostWeights" = None) -> float:
        """Scalar cost under the (weighted) ccc cost model.

        The default weights make support-counting work (subset tests) the
        dominant term with I/O next, mirroring the paper's "CPU + I/O"
        total; constraint checks are cheap but non-free.
        """
        w = weights or CostWeights()
        return (
            w.subset_test * self.subset_tests
            + w.counted_set * self.total_counted
            + w.check * (self.total_checks + self.pair_checks)
            + w.tuple_read * self.tuples_read
        )

    def merged(self, other: "OpCounters") -> "OpCounters":
        """Return the element-wise sum of two counter sets."""
        merged = OpCounters(
            support_counted=dict(self.support_counted),
            constraint_checks_singleton=self.constraint_checks_singleton
            + other.constraint_checks_singleton,
            constraint_checks_larger=self.constraint_checks_larger
            + other.constraint_checks_larger,
            subset_tests=self.subset_tests + other.subset_tests,
            scans=self.scans + other.scans,
            tuples_read=self.tuples_read + other.tuples_read,
            pair_checks=self.pair_checks + other.pair_checks,
        )
        for key, n in other.support_counted.items():
            merged.support_counted[key] = merged.support_counted.get(key, 0) + n
        return merged

    def as_dict(self) -> Dict[str, float]:
        """Flat summary suitable for reports."""
        return {
            "sets_counted": self.total_counted,
            "constraint_checks_singleton": self.constraint_checks_singleton,
            "constraint_checks_larger": self.constraint_checks_larger,
            "subset_tests": self.subset_tests,
            "scans": self.scans,
            "tuples_read": self.tuples_read,
            "pair_checks": self.pair_checks,
            "cost": self.cost(),
        }

    # ------------------------------------------------------------------
    # Snapshot / restore (checkpointing)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Lossless JSON-serializable copy of every counter.

        Unlike :meth:`as_dict` (a reporting summary), this preserves the
        full per-``(var, level)`` ledger — including its insertion order,
        which :meth:`restore` reproduces — so a checkpointed run's
        counters can be reconstructed bit-identically on resume.
        """
        return {
            "support_counted": [
                [var, level, n] for (var, level), n in self.support_counted.items()
            ],
            "constraint_checks_singleton": self.constraint_checks_singleton,
            "constraint_checks_larger": self.constraint_checks_larger,
            "subset_tests": self.subset_tests,
            "scans": self.scans,
            "tuples_read": self.tuples_read,
            "pair_checks": self.pair_checks,
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Overwrite every counter in place from a :meth:`snapshot`.

        In-place so the instance already threaded through lattices and
        backends snaps to the checkpointed state without re-wiring.
        """
        self.support_counted.clear()
        for var, level, n in snapshot["support_counted"]:
            self.support_counted[(var, int(level))] = int(n)
        self.constraint_checks_singleton = int(
            snapshot["constraint_checks_singleton"]
        )
        self.constraint_checks_larger = int(snapshot["constraint_checks_larger"])
        self.subset_tests = int(snapshot["subset_tests"])
        self.scans = int(snapshot["scans"])
        self.tuples_read = int(snapshot["tuples_read"])
        self.pair_checks = int(snapshot["pair_checks"])

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, object]) -> "OpCounters":
        """A fresh instance equal to the snapshotted one."""
        counters = cls()
        counters.restore(snapshot)
        return counters


def merge_shard_counters(shards: Sequence[OpCounters]) -> OpCounters:
    """Merge per-shard counters from one sharded count of ONE candidate set.

    This is *not* :meth:`OpCounters.merged`, which sums everything: when a
    transaction list is partitioned into shards and every shard counts the
    *same* candidates, the work-style quantities (``subset_tests``,
    ``scans``, ``tuples_read``) are additive across shards, but the
    candidate-set ledger (``support_counted``) is not — each shard counted
    the same sets, so summing would multiply the ccc "sets counted" figure
    by the shard fan-out.  The merged counters therefore take the ledger
    from the first shard (all shards' ledgers are identical by
    construction) and sum the rest, which makes a sharded run's totals
    equal a serial run's.

    Disagreeing ledgers are a merge-protocol bug.  A cheap total-count
    comparison always runs; the full per-(var, level) ledger equality
    check — O(ledger size) per shard — additionally runs when
    ``REPRO_DEBUG=1`` (see :func:`debug_checks_enabled`).
    """
    if not shards:
        return OpCounters()
    first = shards[0]
    deep = debug_checks_enabled()
    for other in shards[1:]:
        if other.total_counted != first.total_counted or (
            deep and other.support_counted != first.support_counted
        ):
            raise ValueError(
                "shard counters disagree on the counted candidate sets; "
                "merge_shard_counters is only valid when every shard "
                "counted the same candidates"
            )
    merged = OpCounters(support_counted=dict(first.support_counted))
    for shard in shards:
        merged.subset_tests += shard.subset_tests
        merged.scans += shard.scans
        merged.tuples_read += shard.tuples_read
        merged.constraint_checks_singleton += shard.constraint_checks_singleton
        merged.constraint_checks_larger += shard.constraint_checks_larger
        merged.pair_checks += shard.pair_checks
    return merged


@dataclass
class ParallelLevelStats:
    """Timing record for one sharded counting pass (one lattice level).

    ``failures`` counts failed shard attempts (worker crashes, timeouts,
    lost workers), ``retries`` counts pool resubmissions, and
    ``fallback_shards`` counts shards that exhausted their retries and
    were counted in-process instead.
    """

    shard_sizes: Tuple[int, ...]
    shard_seconds: Tuple[float, ...]
    merge_seconds: float
    in_process: bool
    failures: int = 0
    retries: int = 0
    fallback_shards: int = 0

    @property
    def span_seconds(self) -> float:
        """Critical-path estimate: the slowest shard plus the merge."""
        return (max(self.shard_seconds) if self.shard_seconds else 0.0) + (
            self.merge_seconds
        )


@dataclass
class ParallelStats:
    """Shard-level instrumentation of a :class:`ParallelBackend` run.

    One :class:`ParallelLevelStats` is recorded per counting call (i.e.
    per lattice level), so speedup and shard balance are measurable after
    the fact: compare ``sum(shard_seconds)`` (serial work) against
    ``span_seconds`` (parallel critical path).

    The fault-tolerance side of the backend is recorded here too:
    ``pool_forks`` counts actual pool creations (one per mining run under
    the persistent-pool lifecycle), ``failure_log`` keeps one line per
    failed shard attempt, and ``pool_broken`` flags a pool that was torn
    down mid-run (all remaining work degrades to in-process counting).
    """

    #: Cap on retained failure-log entries: a pathological run (every
    #: shard of every level timing out) must not grow memory unboundedly.
    MAX_FAILURE_LOG = 50

    #: Label `CFQResult.explain()` renders this block under.
    explain_label: ClassVar[str] = "parallel counting"

    levels: List[ParallelLevelStats] = field(default_factory=list)
    #: Which per-shard counting kernel the backend ran ("hybrid" or
    #: "bitmap"); purely descriptive — the shard/merge machinery is
    #: kernel-agnostic.
    kernel: str = "hybrid"
    pool_forks: int = 0
    pool_broken: bool = False
    failure_log: List[str] = field(default_factory=list)
    failure_log_dropped: int = 0
    #: Counting passes cancelled by a run guard trip: the pool was torn
    #: down to cancel outstanding shard tasks, but (unlike a broken
    #: pool) it may be re-forked by a later run.
    cancelled_levels: int = 0

    def record_level(
        self,
        shard_sizes: Sequence[int],
        shard_seconds: Sequence[float],
        merge_seconds: float,
        in_process: bool,
        failures: int = 0,
        retries: int = 0,
        fallback_shards: int = 0,
    ) -> None:
        self.levels.append(
            ParallelLevelStats(
                shard_sizes=tuple(shard_sizes),
                shard_seconds=tuple(shard_seconds),
                merge_seconds=merge_seconds,
                in_process=in_process,
                failures=failures,
                retries=retries,
                fallback_shards=fallback_shards,
            )
        )

    def record_fork(self) -> None:
        """Record one worker-pool creation."""
        self.pool_forks += 1

    def record_failure(self, message: str) -> None:
        """Record one failed shard attempt (crash, timeout, lost worker).

        At most :data:`MAX_FAILURE_LOG` entries are retained; further
        failures only bump ``failure_log_dropped`` (the totals in
        :meth:`as_dict` still count every failure via the level records).
        """
        if len(self.failure_log) < self.MAX_FAILURE_LOG:
            self.failure_log.append(message)
        else:
            self.failure_log_dropped += 1

    def mark_broken(self, reason: str) -> None:
        """Record that the pool was abandoned mid-run."""
        self.pool_broken = True
        self.record_failure(f"pool broken: {reason}")

    def record_cancellation(self, reason: str) -> None:
        """Record one counting pass abandoned by a guard trip."""
        self.cancelled_levels += 1
        self.record_failure(f"cancelled: {reason}")

    @property
    def total_shard_seconds(self) -> float:
        """Summed per-shard wall time (the serialized work)."""
        return sum(sum(level.shard_seconds) for level in self.levels)

    @property
    def total_merge_seconds(self) -> float:
        return sum(level.merge_seconds for level in self.levels)

    @property
    def total_span_seconds(self) -> float:
        """Summed critical paths — what a perfectly parallel run pays."""
        return sum(level.span_seconds for level in self.levels)

    @property
    def total_failures(self) -> int:
        """Failed shard attempts across all levels."""
        return sum(level.failures for level in self.levels)

    @property
    def total_retries(self) -> int:
        """Shard resubmissions across all levels."""
        return sum(level.retries for level in self.levels)

    @property
    def total_fallback_shards(self) -> int:
        """Shards that degraded to in-process serial counting."""
        return sum(level.fallback_shards for level in self.levels)

    def as_dict(self) -> Dict[str, float]:
        """Flat summary suitable for reports."""
        return {
            "levels": len(self.levels),
            "kernel": self.kernel,
            "max_shards": max(
                (len(level.shard_sizes) for level in self.levels), default=0
            ),
            "pooled_levels": sum(1 for lvl in self.levels if not lvl.in_process),
            "total_shard_seconds": self.total_shard_seconds,
            "total_merge_seconds": self.total_merge_seconds,
            "total_span_seconds": self.total_span_seconds,
            "pool_forks": self.pool_forks,
            "pool_broken": self.pool_broken,
            "failures": self.total_failures,
            "retries": self.total_retries,
            "fallback_shards": self.total_fallback_shards,
            "failure_log_dropped": self.failure_log_dropped,
            "cancelled_levels": self.cancelled_levels,
        }

    def summary(self) -> str:
        """One-line rendering for CLI ``--explain`` output."""
        d = self.as_dict()
        text = (
            f"{d['levels']} sharded levels "
            f"({d['kernel']} kernel, "
            f"{d['pooled_levels']} via worker pool, "
            f"max {d['max_shards']} shards, "
            f"{d['pool_forks']} pool fork(s)); "
            f"shard work {d['total_shard_seconds']:.3f}s, "
            f"critical path {d['total_span_seconds']:.3f}s, "
            f"merge {d['total_merge_seconds']:.3f}s"
        )
        if d["failures"] or d["retries"] or d["fallback_shards"]:
            text += (
                f"; {d['failures']} shard failure(s), "
                f"{d['retries']} retry(ies), "
                f"{d['fallback_shards']} serial fallback(s)"
            )
        if d["failure_log_dropped"]:
            text += (
                f"; {d['failure_log_dropped']} failure-log entry(ies) "
                f"dropped beyond the {self.MAX_FAILURE_LOG}-entry cap"
            )
        if d["cancelled_levels"]:
            text += (
                f"; {d['cancelled_levels']} counting pass(es) cancelled by "
                "run guard"
            )
        if d["pool_broken"]:
            text += "; pool broken — degraded to in-process counting"
        return text


@dataclass
class BitmapLevelStats:
    """One bitmap counting pass: candidates counted, uint64 words
    touched by the AND/popcount kernel, and kernel wall time."""

    candidates: int
    words: int
    seconds: float


@dataclass
class BitmapStats:
    """Instrumentation of a :class:`~repro.mining.bitmap.BitmapBackend`.

    One :class:`BitmapLevelStats` per counting pass, plus matrix-build
    accounting: ``builds`` counts actual packings (content-digest cache
    misses, or a database index a pass had to pack) and ``cache_hits``
    counts passes served from an existing matrix, so tests can assert
    that equal-content transaction lists share one build.  Shaped like
    :class:`ParallelStats` (``levels`` +
    ``as_dict`` + ``summary``) so ``--explain`` and the run report's
    backend-stats block render it through the same generic hook.
    """

    #: Label `CFQResult.explain()` renders this block under.
    explain_label: ClassVar[str] = "bitmap counting"

    levels: List[BitmapLevelStats] = field(default_factory=list)
    builds: int = 0
    cache_hits: int = 0
    #: Which representation the backend packs ("numpy" or "int").
    kernel: str = "numpy"

    def record_level(self, candidates: int, words: int, seconds: float) -> None:
        self.levels.append(BitmapLevelStats(candidates, words, seconds))

    def record_build(self) -> None:
        self.builds += 1

    def record_cache_hit(self) -> None:
        self.cache_hits += 1

    @property
    def total_candidates(self) -> int:
        return sum(level.candidates for level in self.levels)

    @property
    def total_words(self) -> int:
        return sum(level.words for level in self.levels)

    @property
    def total_seconds(self) -> float:
        return sum(level.seconds for level in self.levels)

    def as_dict(self) -> Dict[str, float]:
        """Flat summary suitable for reports."""
        return {
            "levels": len(self.levels),
            "kernel": self.kernel,
            "builds": self.builds,
            "cache_hits": self.cache_hits,
            "candidates_counted": self.total_candidates,
            "words_touched": self.total_words,
            "kernel_seconds": self.total_seconds,
        }

    def summary(self) -> str:
        """One-line rendering for CLI ``--explain`` output."""
        d = self.as_dict()
        return (
            f"{d['levels']} counting pass(es) ({d['kernel']} kernel); "
            f"{d['builds']} matrix build(s), {d['cache_hits']} cache hit(s); "
            f"{d['candidates_counted']} candidates over "
            f"{d['words_touched']} uint64 words in "
            f"{d['kernel_seconds']:.4f}s"
        )


@dataclass
class CacheStats:
    """Hit/miss accounting for the serving layer's fingerprinted caches.

    One instance is shared by a :class:`~repro.serve.QueryService`'s
    result cache and skeleton cache, so a single snapshot describes the
    whole service: how often full results were served from cache
    (``hits``/``misses``), how entries left (``evictions`` by LRU
    pressure, ``expirations`` by TTL, ``invalidations`` explicitly), how
    the frequency-skeleton tier fared, and how many payload bytes the
    caches currently hold.  ``as_dict`` feeds the run report's ``cache``
    block and ``--explain`` output.

    **Thread safety.**  One stats object is written by every serving
    thread of the concurrent query server, and ``count += 1`` is a
    non-atomic read-modify-write in CPython — two racing threads can
    lose an increment.  Every mutation therefore goes through
    :meth:`bump` (or a ``record_*`` helper built on it), which holds the
    instance lock.  The lock is **innermost** in the serving lock order
    (see ``docs/server.md``): code holding it never calls out, so it can
    be taken while a cache-tier lock is held.  Reads of individual
    fields stay lock-free (a torn multi-field snapshot is acceptable for
    monitoring output; individual int reads are atomic under the GIL).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0
    skeleton_hits: int = 0
    skeleton_misses: int = 0
    skeleton_builds: int = 0
    #: skeletons migrated across a dataset delta instead of rebuilt
    skeleton_refreshes: int = 0
    bytes_held: int = 0
    #: disk-tier I/O failures absorbed by the degradation ladder
    disk_errors: int = 0
    #: corrupt disk artifacts renamed aside (never re-read)
    quarantined: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, name: str, delta: int = 1) -> None:
        """Atomically add ``delta`` to one counter field by name."""
        with self._lock:
            setattr(self, name, getattr(self, name) + delta)

    def record_hit(self) -> None:
        self.bump("hits")

    def record_miss(self) -> None:
        self.bump("misses")

    def record_disk_promotion(self) -> None:
        """A disk-tier hit after a memory miss: the memory probe above it
        was metered as a miss, so convert it into a hit atomically."""
        with self._lock:
            self.hits += 1
            self.misses -= 1

    def record_store(self, nbytes: int) -> None:
        with self._lock:
            self.stores += 1
            self.bytes_held += nbytes

    def record_eviction(self, nbytes: int, expired: bool = False) -> None:
        with self._lock:
            if expired:
                self.expirations += 1
            else:
                self.evictions += 1
            self.bytes_held -= nbytes

    def record_invalidation(self, nbytes: int) -> None:
        with self._lock:
            self.invalidations += 1
            self.bytes_held -= nbytes

    @property
    def hit_rate(self) -> float:
        """Fraction of result lookups served from cache (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat summary suitable for reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "stores": self.stores,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "skeleton_hits": self.skeleton_hits,
            "skeleton_misses": self.skeleton_misses,
            "skeleton_builds": self.skeleton_builds,
            "skeleton_refreshes": self.skeleton_refreshes,
            "bytes_held": self.bytes_held,
            "disk_errors": self.disk_errors,
            "quarantined": self.quarantined,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, float]) -> "CacheStats":
        """Rebuild from an :meth:`as_dict` snapshot (the derived
        ``hit_rate`` key is ignored; unknown keys are too, so newer
        snapshots stay readable)."""
        stats = cls()
        for name in (
            "hits",
            "misses",
            "stores",
            "evictions",
            "expirations",
            "invalidations",
            "skeleton_hits",
            "skeleton_misses",
            "skeleton_builds",
            "skeleton_refreshes",
            "bytes_held",
            "disk_errors",
            "quarantined",
        ):
            if name in document:
                setattr(stats, name, int(document[name]))
        return stats

    def summary(self) -> str:
        """One-line rendering for CLI ``--explain`` output."""
        d = self.as_dict()
        text = (
            f"{d['hits']} hit(s), {d['misses']} miss(es) "
            f"(rate {d['hit_rate']:.0%}), {d['stores']} store(s), "
            f"{d['bytes_held']} bytes held"
        )
        if d["evictions"] or d["expirations"] or d["invalidations"]:
            text += (
                f"; {d['evictions']} evicted, {d['expirations']} expired, "
                f"{d['invalidations']} invalidated"
            )
        if d["skeleton_builds"] or d["skeleton_hits"] or d["skeleton_misses"]:
            text += (
                f"; skeleton: {d['skeleton_builds']} build(s), "
                f"{d['skeleton_hits']} hit(s), {d['skeleton_misses']} miss(es)"
            )
            if d["skeleton_refreshes"]:
                text += f", {d['skeleton_refreshes']} refresh(es)"
        if d["disk_errors"] or d["quarantined"]:
            text += (
                f"; disk: {d['disk_errors']} error(s), "
                f"{d['quarantined']} quarantined"
            )
        return text


@dataclass(frozen=True)
class CostWeights:
    """Weights for collapsing :class:`OpCounters` into a scalar cost."""

    subset_test: float = 1.0
    counted_set: float = 5.0
    check: float = 1.0
    tuple_read: float = 0.5

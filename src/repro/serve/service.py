"""The multi-query serving layer: fingerprinted caches + batch execution.

:class:`QueryService` answers CFQs over a dataset through three tiers,
cheapest first:

1. **result cache** — full artifacts of completed cold runs (frequent
   sets with supports in insertion order, bound histories, operation
   counters), keyed on content fingerprints of dataset × query ×
   engine options (:mod:`repro.serve.fingerprint`).  A hit rebuilds a
   bit-identical :class:`~repro.core.optimizer.CFQResult` without
   touching the database.
2. **frequency skeletons** — per (dataset, domain) unconstrained
   frequent lattices (:mod:`repro.serve.skeleton`).  A query whose
   thresholds every skeleton serves is re-executed through the *normal*
   engine with a :class:`~repro.serve.skeleton.SupportOracle`
   substituting dictionary lookups for database passes — same answers,
   no scans.  Batches exploit this tier with **shared scans**: one
   skeleton is mined per domain at the *weakest* threshold any query in
   the batch needs, then every query is served from it.
3. **cold run** — the plain optimizer; complete results are stored back
   into the result cache (partial, guard-tripped ones never are).

The service *is* the duck-typed ``cache=`` hook
:meth:`repro.core.optimizer.CFQOptimizer.execute` accepts: it
implements ``lookup``/``store`` directly, so single-query integration
is ``optimizer.execute(db, cache=service)``.

Both caches are bounded LRUs with optional TTL and explicit
invalidation (:mod:`repro.serve.cache`), metered on one shared
:class:`~repro.db.stats.CacheStats`.  An optional ``cache_dir`` adds a
disk tier under the result cache: artifacts are written atomically as
``<dataset-fp prefix>.<result key>.json`` and reloaded on memory
misses, which is what makes the CLI's warm-vs-cold smoke test work
across processes.

Every serving decision is additionally instrumented on a
process-lifetime :class:`~repro.serve.telemetry.ServiceTelemetry`
(per-outcome latency quantile histograms, cache gauges, and an event
journal); pass ``telemetry=False`` to disable it, ``journal_path=`` to
put the event journal on disk, and read it back via
``service.telemetry.snapshot()`` / ``repro stats``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.optimizer import CFQOptimizer, CFQResult
from repro.core.query import CFQ
from repro.db.delta import DatasetDelta
from repro.db.stats import CacheStats, OpCounters
from repro.db.transactions import TransactionDatabase
from repro.errors import ExecutionError, RunInterrupted
from repro.obs.trace import resolve_tracer
from repro.runtime import faults
from repro.serve.delta import DeltaMaintenanceReport, refresh_skeleton
from repro.serve.artifacts import (
    parse_artifact,
    rebuild_counters,
    rebuild_result,
    serialize_result,
)
from repro.serve.cache import CircuitBreaker, LRUCache
from repro.serve.fingerprint import (
    RESULT_OPTIONS,
    dataset_fingerprint,
    domain_fingerprint,
    query_fingerprint,
    result_key,
)
from repro.serve.skeleton import (
    Skeleton,
    SupportOracle,
    build_skeleton,
    skeleton_key,
)
from repro.serve.telemetry import resolve_telemetry

#: ``execute()`` keywords that force a plain cold run outside every
#: cache tier (mirrors the optimizer's own ``cacheable`` gate).
_BYPASS_OPTIONS = ("checkpoint_dir", "resume", "keep_candidates")


@dataclass
class CacheHit:
    """What the optimizer's cache hook consumes on a lookup hit.

    ``raw`` is rebuilt fresh from the stored artifact on every hit, so
    two warm servings never share mutable state; ``counters_snapshot``
    is the cold run's full :meth:`~repro.db.stats.OpCounters.snapshot`.
    """

    raw: Any
    counters_snapshot: Dict[str, Any]
    info: Dict[str, Any] = field(default_factory=dict)


@dataclass
class BatchItem:
    """One query's outcome within :meth:`QueryService.execute_batch`.

    ``source`` is ``"result-cache"``, ``"skeleton"``, or ``"cold"``;
    ``wall_seconds`` is this query's serving time inside the batch
    (skeleton mining is reported separately on the batch, since it is
    shared across queries).
    """

    cfq: CFQ
    result: CFQResult
    source: str
    wall_seconds: float
    query_fingerprint: str

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary (the batch report's per-item row)."""
        return {
            "query": str(self.cfq),
            "query_fingerprint": self.query_fingerprint,
            "source": self.source,
            "wall_seconds": round(self.wall_seconds, 9),
            "status": getattr(self.result, "status", "complete"),
            "cache_info": self.result.cache_info,
        }


@dataclass
class BatchReport:
    """A batch's results plus the shared-scan accounting."""

    items: List[BatchItem]
    dataset_fingerprint: str
    #: Seconds spent mining skeletons for this batch (0.0 when every
    #: needed skeleton was already cached).
    skeleton_build_seconds: float
    #: Domain fingerprints whose skeleton build was interrupted by a
    #: guard; their queries fell back to cold runs.
    failed_domains: List[str] = field(default_factory=list)

    def results(self) -> List[CFQResult]:
        return [item.result for item in self.items]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary of the whole batch (items included);
        round-trips through ``json.dumps``/``loads`` unchanged."""
        return {
            "dataset_fingerprint": self.dataset_fingerprint,
            "skeleton_build_seconds": round(self.skeleton_build_seconds, 9),
            "failed_domains": list(self.failed_domains),
            "items": [item.as_dict() for item in self.items],
        }


class QueryService:
    """Fingerprint-keyed serving of CFQs (see module docstring).

    Parameters
    ----------
    max_entries / ttl_seconds:
        Result-cache bound and optional time-to-live.
    max_skeletons:
        Bound on cached frequency skeletons (their TTL is shared with
        the result cache).
    cache_dir:
        Optional directory for the persistent result tier.
    clock:
        Injectable monotonic clock driving TTL (tests pass a fake).
    telemetry:
        ``None``/``True`` builds a fresh enabled
        :class:`~repro.serve.telemetry.ServiceTelemetry`; ``False``
        disables instrumentation; an existing telemetry object is
        adopted (shareable across services).
    journal_path:
        Optional JSONL path for the telemetry event journal (rotating
        on disk); ignored when an existing telemetry object is passed.
    disk_retries / disk_backoff_seconds:
        Bounded retry for disk-tier I/O: each failed operation is
        retried up to ``disk_retries`` times with exponential backoff
        starting at ``disk_backoff_seconds`` (tests set 0).
    disk_failure_threshold / disk_cooldown_seconds:
        The disk tier's :class:`~repro.serve.cache.CircuitBreaker`:
        after ``disk_failure_threshold`` consecutive failed operations
        (each already retried) the tier is skipped wholesale
        (memory-only mode) until a half-open probe succeeds after
        ``disk_cooldown_seconds`` on the service clock.

    Degradation ladder (docs/fault-tolerance.md)
    --------------------------------------------
    Disk-tier I/O failures are **absorbed, never propagated**: a failed
    write leaves the entry memory-only, a failed read is a miss (the
    query re-mines cold — slower, bit-identical), a corrupt or
    checksum-failing artifact is *quarantined* (renamed to
    ``<name>.quarantined`` so it is never re-read) — every step counted
    (``CacheStats.disk_errors`` / ``quarantined``), journaled
    (``disk_error`` / ``result_quarantine`` / ``disk_degraded`` /
    ``disk_recovered``), and bounded by the circuit breaker.
    """

    def __init__(
        self,
        max_entries: int = 32,
        ttl_seconds: Optional[float] = None,
        max_skeletons: int = 8,
        cache_dir: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
        telemetry=None,
        journal_path: Optional[str] = None,
        disk_retries: int = 1,
        disk_backoff_seconds: float = 0.05,
        disk_failure_threshold: int = 3,
        disk_cooldown_seconds: float = 30.0,
    ):
        self.stats = CacheStats()
        self.telemetry = resolve_telemetry(
            telemetry, journal_path=journal_path, clock=clock
        )
        self._results = LRUCache(
            max_entries=max_entries,
            ttl_seconds=ttl_seconds,
            clock=clock,
            stats=self.stats,
            on_event=self.telemetry.cache_event_hook("result"),
        )
        self._skeletons = LRUCache(
            max_entries=max_skeletons,
            ttl_seconds=ttl_seconds,
            clock=clock,
            stats=self.stats,
            record_result_stats=False,
            on_event=self.telemetry.cache_event_hook("skeleton"),
        )
        self.cache_dir = cache_dir
        self.disk_retries = disk_retries
        self.disk_backoff_seconds = disk_backoff_seconds
        self.disk_breaker = CircuitBreaker(
            failure_threshold=disk_failure_threshold,
            cooldown_seconds=disk_cooldown_seconds,
            clock=clock,
            on_transition=self.telemetry.record_disk_transition,
        )
        if cache_dir is not None:
            try:
                os.makedirs(cache_dir, exist_ok=True)
            except OSError as exc:
                # An uncreatable cache dir is counted like any other disk
                # failure; subsequent writes keep failing until the
                # breaker opens (memory-only mode) or the disk heals.
                self._disk_failure("mkdir", exc)

    # ------------------------------------------------------------------
    # The optimizer's cache hook (duck-typed contract)
    # ------------------------------------------------------------------
    def lookup(
        self, db: TransactionDatabase, cfq: CFQ, options: Dict[str, Any]
    ) -> Optional[CacheHit]:
        """Result-cache probe: memory first, then the disk tier.

        A TTL-expired memory entry kills its disk copy too, so "expired
        ≡ cold run" holds across tiers; a disk hit after an LRU
        eviction (or in a fresh process) repopulates memory.
        """
        key = result_key(cfq, db, options)
        dataset_fp = dataset_fingerprint(db)
        if self._results.peek(key) is not None:
            text = self._results.get(key)  # meters + recency
            if text is not None:
                self.telemetry.record_lookup(
                    "memory", key, dataset_fp, hit=True
                )
                return self._hit_from_text(text, db, cfq, tier="memory")
            # The entry expired *between* peek and get — possible when
            # the clock jumps mid-lookup.  The get metered the expiry;
            # kill the disk copy like any other TTL expiry.
            self._drop_disk(key, db)
            self.telemetry.record_lookup("memory", key, dataset_fp, hit=False)
            return None
        expired = key in self._results  # present but past TTL
        self._results.get(key)  # meters the miss (and evicts if expired)
        if expired:
            self._drop_disk(key, db)
            self.telemetry.record_lookup("memory", key, dataset_fp, hit=False)
            return None
        text = self._load_disk(key, db)
        if text is None:
            self.telemetry.record_lookup("disk", key, dataset_fp, hit=False)
            return None
        try:
            hit = self._hit_from_text(text, db, cfq, tier="disk")
        except ExecutionError as exc:
            # Corrupt on-disk artifact (torn JSON, failed checksum, a
            # short read): quarantine it and fall through to a cold run
            # — degraded, never wrong.
            self._quarantine_disk(key, db, str(exc))
            self.telemetry.record_lookup("disk", key, dataset_fp, hit=False)
            return None
        self._results.put(key, text, len(text), tag=dataset_fp)
        # The memory probe above was not a real miss: atomically convert
        # it into a hit (two separate +=/-= writes would let a
        # concurrent snapshot observe hits+misses double-counted).
        self.stats.record_disk_promotion()
        self.telemetry.record_lookup("disk", key, dataset_fp, hit=True)
        return hit

    def store(
        self,
        db: TransactionDatabase,
        cfq: CFQ,
        options: Dict[str, Any],
        result: CFQResult,
        elapsed_seconds: float,
    ) -> Dict[str, Any]:
        """Persist one completed cold run; returns its ``cache_info``.

        The optimizer only calls this for ``status == "complete"``
        results outside checkpoint/resume/keep-candidates runs, so
        every stored artifact is a full, replayable answer.
        """
        dataset_fp = dataset_fingerprint(db)
        query_fp = query_fingerprint(cfq, db)
        key = result_key(cfq, db, options)
        text = serialize_result(
            result.raw,
            result.counters,
            meta={
                "query": str(cfq),
                "dataset_fingerprint": dataset_fp,
                "query_fingerprint": query_fp,
                "options": {name: options.get(name) for name in RESULT_OPTIONS},
                "plan_signature": result.plan.signature(),
                "cold_wall_seconds": elapsed_seconds,
            },
        )
        self._results.put(key, text, len(text), tag=dataset_fp)
        self._write_disk(key, db, text)
        self.telemetry.record_store(key, dataset_fp, len(text))
        return self._info(
            "cold",
            dataset_fp,
            query_fp,
            cold_wall_seconds=elapsed_seconds,
        )

    def _hit_from_text(
        self, text: str, db: TransactionDatabase, cfq: CFQ,
        tier: str = "memory",
    ) -> CacheHit:
        # The checksum defends bytes that crossed the disk; memory-tier
        # text was serialized in-process and skips the re-hash.
        document = parse_artifact(text, verify_integrity=(tier == "disk"))
        meta = document.get("meta", {})
        return CacheHit(
            raw=rebuild_result(document),
            counters_snapshot=rebuild_counters(document),
            info=self._info(
                "result-cache",
                meta.get("dataset_fingerprint") or dataset_fingerprint(db),
                meta.get("query_fingerprint") or query_fingerprint(cfq, db),
                cold_wall_seconds=meta.get("cold_wall_seconds"),
                tier=tier,
            ),
        )

    def _info(
        self,
        source: str,
        dataset_fp: str,
        query_fp: str,
        **extra: Any,
    ) -> Dict[str, Any]:
        info: Dict[str, Any] = {
            "source": source,
            "dataset_fingerprint": dataset_fp,
            "query_fingerprint": query_fp,
            "stats": self.stats.as_dict(),
        }
        for name, value in extra.items():
            if value is not None:
                info[name] = value
        return info

    # ------------------------------------------------------------------
    # Disk tier (every operation absorbed by the degradation ladder)
    # ------------------------------------------------------------------
    def _disk_path(self, key: str, db: TransactionDatabase) -> Optional[str]:
        if self.cache_dir is None:
            return None
        # The FULL dataset fingerprint is the filename prefix: sweeps
        # match on it exactly, so artifacts of a different dataset can
        # never be caught by a truncated-prefix collision.
        return os.path.join(
            self.cache_dir, f"{dataset_fingerprint(db)}.{key}.json"
        )

    def _disk_failure(self, op: str, error: OSError) -> None:
        """Count, journal, and feed the breaker one absorbed failure."""
        self.stats.bump("disk_errors")
        self.disk_breaker.record_failure()
        self.telemetry.record_disk_error(
            op, f"{type(error).__name__}: {error}", self.disk_breaker.state
        )

    def _disk_attempts(self, op: str, attempt: Callable[[], Any]) -> Any:
        """Run one disk operation with bounded retry + backoff; raises
        the last ``OSError`` once the retries are spent.  Each failed
        attempt that a later one recovers is reported as a retry (not a
        ``disk_errors`` failure: the operation succeeded)."""
        failures: List[OSError] = []
        for n in range(self.disk_retries + 1):
            if n and self.disk_backoff_seconds:
                time.sleep(self.disk_backoff_seconds * (2 ** (n - 1)))
            try:
                outcome = attempt()
            except OSError as exc:
                failures.append(exc)
                continue
            for error in failures:
                self.telemetry.record_disk_retry(
                    op, f"{type(error).__name__}: {error}"
                )
            return outcome
        raise failures[-1]

    def _write_disk(self, key: str, db: TransactionDatabase, text: str) -> None:
        path = self._disk_path(key, db)
        if path is None or not self.disk_breaker.allow():
            return
        # Per-thread temp name: two workers storing the same key (e.g.
        # a coalesced batch racing a singleton) must not write through
        # one shared ``.tmp`` — a torn interleaving would then be
        # atomically renamed into place.  Both writers hold identical
        # bytes (the key is content-addressed), so whichever replace
        # lands last is correct.
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"

        def attempt() -> None:
            try:
                faults.fs_write_text(tmp, text, "serve.disk.write")
            except FileNotFoundError:
                # cache_dir removed out-of-band: recreate and retry once.
                os.makedirs(self.cache_dir, exist_ok=True)
                faults.fs_write_text(tmp, text, "serve.disk.write")
            faults.fs_replace(tmp, path, "serve.disk.replace")

        try:
            self._disk_attempts("write", attempt)
        except OSError as exc:
            # The entry stays memory-only; a torn temp file can never
            # shadow the real artifact (writes go tmp → atomic replace).
            try:
                os.remove(tmp)
            except OSError:
                pass
            self._disk_failure("write", exc)
            return
        self.disk_breaker.record_success()

    def _load_disk(self, key: str, db: TransactionDatabase) -> Optional[str]:
        path = self._disk_path(key, db)
        if path is None or not os.path.exists(path):
            return None
        if not self.disk_breaker.allow():
            return None

        def attempt() -> str:
            return faults.fs_read_text(path, "serve.disk.read")

        try:
            text = self._disk_attempts("read", attempt)
        except OSError as exc:
            # An unreadable artifact is a miss: the query re-mines cold.
            self._disk_failure("read", exc)
            return None
        self.disk_breaker.record_success()
        return text

    def _quarantine_disk(
        self, key: str, db: TransactionDatabase, reason: str
    ) -> None:
        """Rename a corrupt artifact aside so it is never re-read."""
        path = self._disk_path(key, db)
        if path is None:
            return
        try:
            os.replace(path, f"{path}.quarantined")
        except OSError:
            # Can't rename it either: best effort is removal; if even
            # that fails the next read hits the same corruption and
            # falls through to a cold run again — still never wrong.
            try:
                os.remove(path)
            except OSError:
                pass
        self.stats.bump("quarantined")
        self.telemetry.record_quarantine(path, reason)

    def _drop_disk(self, key: str, db: TransactionDatabase) -> None:
        path = self._disk_path(key, db)
        if path is None or not os.path.exists(path):
            return
        try:
            faults.fs_remove(path, "serve.disk.remove")
        except OSError as exc:
            # The stale artifact survives, but its content is still the
            # bit-exact answer for this key, so correctness holds; it is
            # re-dropped at the next expiry or sweep.
            self._disk_failure("remove", exc)
            return
        self.disk_breaker.record_success()

    def is_warm(self, db: TransactionDatabase, cfq: CFQ, **options: Any) -> bool:
        """Whether an identical query would be served from the *memory*
        result tier right now — a side-effect-free peek (no stats, no
        recency touch).  The query server's fast path uses this to skip
        single-flight/coalescing for already-warm queries."""
        if any(options.get(name) for name in _BYPASS_OPTIONS):
            return False
        cache_options = self._defaulted(
            {name: options.get(name) for name in RESULT_OPTIONS}
        )
        key = result_key(cfq, db, cache_options)
        return self._results.peek(key) is not None

    # ------------------------------------------------------------------
    # Single-query serving
    # ------------------------------------------------------------------
    def execute(
        self,
        db: TransactionDatabase,
        cfq: CFQ,
        counters: Optional[OpCounters] = None,
        backend=None,
        tracer=None,
        guard=None,
        **options: Any,
    ) -> CFQResult:
        """Answer one CFQ: result cache → existing skeletons → cold.

        The skeleton tier here consumes only *already cached* skeletons
        (a single query never pays a skeleton build; that is the batch
        executor's trade).  Checkpointing/resume/keep-candidates
        requests bypass every tier, matching the optimizer's gate.
        """
        tracer = resolve_tracer(tracer)
        optimizer = CFQOptimizer(cfq)
        if any(options.get(name) for name in _BYPASS_OPTIONS):
            start = time.perf_counter()
            result = optimizer.execute(
                db, counters=counters, backend=backend, tracer=tracer,
                guard=guard, cache=self, **options,
            )
            self._finish_serve(result, time.perf_counter() - start, db, cfq)
            return result
        cache_options = {name: options.get(name) for name in RESULT_OPTIONS}
        start = time.perf_counter()
        oracle = self._existing_oracle(db, cfq)
        if oracle is None:
            result = optimizer.execute(
                db, counters=counters, backend=backend, tracer=tracer,
                guard=guard, cache=self, **options,
            )
        else:
            hit = self.lookup(db, cfq, self._defaulted(cache_options))
            if hit is not None:
                tracer.event("cache.hit", query=str(cfq))
                result = self._materialize_hit(db, cfq, hit, counters, tracer)
            else:
                result = optimizer.execute(
                    db, counters=counters, backend=backend, tracer=tracer,
                    guard=guard, support_oracle=oracle, **options,
                )
                result.cache_info = self._info(
                    "skeleton",
                    dataset_fingerprint(db),
                    query_fingerprint(cfq, db),
                )
        elapsed = time.perf_counter() - start
        info = result.cache_info
        if info is not None and info.get("source") in ("result-cache", "skeleton"):
            info["warm_wall_seconds"] = elapsed
        self._finish_serve(result, elapsed, db, cfq)
        return result

    # ------------------------------------------------------------------
    # Telemetry helpers
    # ------------------------------------------------------------------
    def _serve_outcome(self, result: CFQResult, batch: bool = False) -> str:
        """Classify how one query was answered, as a telemetry label."""
        if getattr(result, "status", "complete") != "complete":
            return "partial"
        info = result.cache_info or {}
        source = info.get("source")
        if source == "result-cache":
            return "warm-disk" if info.get("tier") == "disk" else "warm-memory"
        if source == "skeleton":
            return "skeleton-batch" if batch else "skeleton"
        return "cold"

    def _finish_serve(
        self,
        result: CFQResult,
        elapsed: float,
        db: TransactionDatabase,
        cfq: CFQ,
        batch: bool = False,
    ) -> None:
        """Record one serving on the lifetime telemetry (latency
        histogram by outcome, guard trips, refreshed cache gauges)."""
        if not self.telemetry.enabled:
            return
        outcome = self._serve_outcome(result, batch=batch)
        if outcome == "partial":
            trip = getattr(result, "interruption", None)
            self.telemetry.record_guard_trip(
                query_fingerprint(cfq, db),
                getattr(trip, "reason", trip),
            )
        self.telemetry.record_serve(outcome, elapsed)
        self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        self.telemetry.update_cache_gauges(
            self.stats,
            len(self._results),
            self._results.max_entries,
            len(self._skeletons),
            self._skeletons.max_entries,
        )

    def _defaulted(self, cache_options: Dict[str, Any]) -> Dict[str, Any]:
        """Fill unspecified engine options with the optimizer defaults so
        ``execute(db, cfq)`` and ``optimizer.execute(db)`` share keys."""
        defaults = {
            "dovetail": True,
            "use_reduction": True,
            "use_jmax": True,
            "reduction_rounds": 1,
        }
        return {
            name: (
                cache_options[name]
                if cache_options.get(name) is not None
                else defaults[name]
            )
            for name in RESULT_OPTIONS
        }

    def _materialize_hit(
        self,
        db: TransactionDatabase,
        cfq: CFQ,
        hit: CacheHit,
        counters: Optional[OpCounters],
        tracer,
    ) -> CFQResult:
        """The optimizer's hit path, for servings the service routes
        itself (when a skeleton oracle is also in play)."""
        plan = CFQOptimizer(cfq).plan(db, tracer=tracer)
        if counters is None:
            counters = OpCounters()
        counters.restore(hit.counters_snapshot)
        raw = hit.raw
        raw.counters = counters
        return CFQResult(
            cfq=cfq,
            plan=plan,
            counters=counters,
            raw=raw,
            backend=None,
            trace=tracer if tracer.enabled else None,
            status="complete",
            cache_info=dict(hit.info),
        )

    def _existing_oracle(
        self, db: TransactionDatabase, cfq: CFQ
    ) -> Optional[SupportOracle]:
        """An oracle from already-cached skeletons, or ``None``."""
        dataset_fp = dataset_fingerprint(db)
        skeletons: Dict[str, Optional[Skeleton]] = {}
        for var in cfq.variables:
            fp = domain_fingerprint(cfq.domains[var])
            skeletons[var] = self._skeletons.get(skeleton_key(dataset_fp, fp))
        return SupportOracle.for_query(cfq, db, skeletons)

    # ------------------------------------------------------------------
    # Batch serving (shared scans)
    # ------------------------------------------------------------------
    def execute_batch(
        self,
        db: TransactionDatabase,
        cfqs: Sequence[CFQ],
        backend=None,
        tracer=None,
        guard=None,
        **options: Any,
    ) -> BatchReport:
        """Answer a batch of CFQs over one dataset with shared scans.

        The common frequency skeleton of each domain is computed once at
        the **union of the batch's thresholds** (i.e. mined at the
        weakest ``min_count`` any query needs — a superset of every
        stronger lattice by anti-monotonicity) and each query is served
        against it with per-query filtering done by its own engine run.
        A query is answered from the result cache when possible; a
        domain whose skeleton build is guard-interrupted sends its
        queries down the cold path instead.
        """
        tracer = resolve_tracer(tracer)
        if any(options.get(name) for name in _BYPASS_OPTIONS):
            raise ValueError(
                "execute_batch does not support checkpointing, resume, or "
                "keep_candidates; run those queries individually"
            )
        cache_options = self._defaulted(
            {name: options.get(name) for name in RESULT_OPTIONS}
        )
        dataset_fp = dataset_fingerprint(db)
        batch_start = time.perf_counter()
        skeletons, build_seconds, failed = self._prepare_skeletons(
            db, cfqs, dataset_fp, backend=backend, tracer=tracer, guard=guard
        )
        items: List[BatchItem] = []
        for cfq in cfqs:
            start = time.perf_counter()
            query_fp = query_fingerprint(cfq, db)
            hit = self.lookup(db, cfq, cache_options)
            if hit is not None:
                tracer.event("cache.hit", query=str(cfq))
                result = self._materialize_hit(db, cfq, hit, None, tracer)
                source = "result-cache"
            else:
                per_var = {
                    var: skeletons.get(domain_fingerprint(cfq.domains[var]))
                    for var in cfq.variables
                }
                oracle = SupportOracle.for_query(cfq, db, per_var)
                if oracle is not None:
                    result = CFQOptimizer(cfq).execute(
                        db, backend=backend, tracer=tracer, guard=guard,
                        support_oracle=oracle, **options,
                    )
                    result.cache_info = self._info(
                        "skeleton", dataset_fp, query_fp
                    )
                    source = "skeleton"
                else:
                    result = CFQOptimizer(cfq).execute(
                        db, backend=backend, tracer=tracer, guard=guard,
                        **options,
                    )
                    source = "cold"
                    if result.status == "complete":
                        result.cache_info = self.store(
                            db, cfq, cache_options, result,
                            time.perf_counter() - start,
                        )
            elapsed = time.perf_counter() - start
            info = result.cache_info
            if info is not None and info.get("source") in (
                "result-cache", "skeleton"
            ):
                info["warm_wall_seconds"] = elapsed
            self._finish_serve(result, elapsed, db, cfq, batch=True)
            items.append(
                BatchItem(
                    cfq=cfq,
                    result=result,
                    source=source,
                    wall_seconds=elapsed,
                    query_fingerprint=query_fp,
                )
            )
        if self.telemetry.enabled:
            sources: Dict[str, int] = {}
            for item in items:
                sources[item.source] = sources.get(item.source, 0) + 1
            self.telemetry.record_batch(
                n_queries=len(items),
                build_seconds=build_seconds,
                sources=sources,
                wall_seconds=time.perf_counter() - batch_start,
            )
        return BatchReport(
            items=items,
            dataset_fingerprint=dataset_fp,
            skeleton_build_seconds=build_seconds,
            failed_domains=failed,
        )

    def prepare(
        self,
        db: TransactionDatabase,
        cfqs: Sequence[CFQ],
        backend=None,
        tracer=None,
        guard=None,
    ) -> int:
        """Warm the skeleton tier for a prospective batch; returns the
        number of skeletons now servable for it."""
        dataset_fp = dataset_fingerprint(db)
        skeletons, _, _ = self._prepare_skeletons(
            db, cfqs, dataset_fp, backend=backend,
            tracer=resolve_tracer(tracer), guard=guard,
        )
        return sum(1 for skeleton in skeletons.values() if skeleton is not None)

    def _prepare_skeletons(
        self,
        db: TransactionDatabase,
        cfqs: Sequence[CFQ],
        dataset_fp: str,
        backend=None,
        tracer=None,
        guard=None,
    ):
        """Build or reuse one skeleton per domain at the union threshold."""
        needs: Dict[str, list] = {}  # domain_fp -> [domain, weakest min_count]
        for cfq in cfqs:
            for var in cfq.variables:
                domain = cfq.domains[var]
                fp = domain_fingerprint(domain)
                min_count = db.min_count(cfq.minsup_for(var))
                if fp not in needs or min_count < needs[fp][1]:
                    needs[fp] = [domain, min_count]
        skeletons: Dict[str, Optional[Skeleton]] = {}
        failed: List[str] = []
        build_seconds = 0.0
        for fp, (domain, weakest) in needs.items():
            key = skeleton_key(dataset_fp, fp)
            cached = self._skeletons.get(key)
            if cached is not None and cached.serves(weakest):
                skeletons[fp] = cached
                self.telemetry.record_skeleton_reuse(fp)
                continue
            start = time.perf_counter()
            try:
                with tracer.span(
                    "skeleton.build",
                    domain=domain.name,
                    min_count=weakest,
                    dataset=dataset_fp[:16],
                ):
                    skeleton = build_skeleton(
                        db, domain, weakest,
                        backend=backend, guard=guard, tracer=tracer,
                    )
            except RunInterrupted:
                # A partial lattice must never serve as an oracle: leave
                # the tier untouched and let the queries run cold.
                build_seconds += time.perf_counter() - start
                skeletons[fp] = None
                failed.append(fp)
                continue
            built_seconds = time.perf_counter() - start
            build_seconds += built_seconds
            self.stats.bump("skeleton_builds")
            self._skeletons.put(key, skeleton, skeleton.nbytes, tag=dataset_fp)
            self.telemetry.record_skeleton_build(
                fp, built_seconds, skeleton.nbytes
            )
            skeletons[fp] = skeleton
        return skeletons, build_seconds, failed

    # ------------------------------------------------------------------
    # Churn: delta application
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        new_db: TransactionDatabase,
        delta: DatasetDelta,
        tracer=None,
        guard=None,
    ) -> DeltaMaintenanceReport:
        """Migrate the service across one dataset delta.

        Result-cache entries of the base dataset are invalidated (both
        tiers — their fingerprints can never match the new dataset, so
        keeping them only wastes capacity), while frequency skeletons
        are **migrated**: each base-dataset skeleton is incrementally
        refreshed (:func:`~repro.serve.delta.refresh_skeleton`) at the
        rescaled threshold and re-keyed under the new fingerprint, so
        the very next query over ``new_db`` is served from the skeleton
        tier with zero database scans in the common case.  A skeleton
        whose refresh is guard-interrupted (or that cannot be refreshed)
        is dropped — never served stale; its queries fall back to cold.

        ``new_db``'s content must be the delta's ``new_digest`` — the
        service refuses a delta that does not describe the database it
        is handed, because a mis-described delta would poison every
        fingerprinted tier at once.
        """
        tracer = resolve_tracer(tracer)
        start = time.perf_counter()
        new_fp = dataset_fingerprint(new_db)
        if delta.new_digest != new_fp:
            raise ExecutionError(
                "apply_delta: the delta's new_digest "
                f"{delta.new_digest[:16]}... does not match the database "
                f"handed in ({new_fp[:16]}...)"
            )
        base_fp = delta.base_digest
        report = DeltaMaintenanceReport(
            base_fingerprint=base_fp,
            new_fingerprint=new_fp,
            delta=delta,
        )
        report.results_invalidated = self._results.invalidate_tag(base_fp)
        report.disk_invalidated = self._sweep_disk(base_fp)
        for key, entry in self._skeletons.items():
            if entry.tag != base_fp:
                continue
            skeleton = entry.value
            with tracer.span(
                "skeleton.refresh",
                domain=skeleton.domain[:16],
                dataset=new_fp[:16],
            ):
                try:
                    refreshed, stats = refresh_skeleton(
                        skeleton, new_db, delta, guard=guard,
                    )
                except (ExecutionError, RunInterrupted, OSError) as exc:
                    # A partial or impossible refresh must never serve:
                    # drop the skeleton and let queries rebuild cold.
                    self._skeletons.invalidate(key)
                    report.skeletons_dropped += 1
                    self.telemetry.record_refresh_fallback(
                        skeleton.domain, f"{type(exc).__name__}: {exc}"
                    )
                    continue
            self._skeletons.invalidate(key)
            self._skeletons.put(
                skeleton_key(new_fp, refreshed.domain),
                refreshed,
                refreshed.nbytes,
                tag=new_fp,
            )
            self.stats.bump("skeleton_refreshes")
            report.skeletons_refreshed += 1
            report.refreshes.append(stats)
        report.wall_seconds = time.perf_counter() - start
        self.telemetry.record_delta(report)
        self._refresh_gauges()
        tracer.event(
            "delta.applied",
            added=len(delta.added),
            removed=len(delta.removed),
            skeletons_refreshed=report.skeletons_refreshed,
        )
        return report

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, db: TransactionDatabase) -> int:
        """Drop every cached artifact of one dataset, both tiers (and the
        disk copies); returns the number of entries removed."""
        dataset_fp = dataset_fingerprint(db)
        removed = self._results.invalidate_tag(dataset_fp)
        removed += self._skeletons.invalidate_tag(dataset_fp)
        self._sweep_disk(dataset_fp)
        return removed

    def _sweep_disk(self, dataset_fp: str) -> int:
        """Remove every disk artifact of one dataset fingerprint.

        Matches on the **full** fingerprint (artifact filenames are
        ``<dataset-fp>.<result key>.json``) and tolerates a cache
        directory or artifact removed out-of-band — a sweep must never
        raise over state it was asked to destroy anyway.
        """
        if self.cache_dir is None:
            return 0
        prefix = f"{dataset_fp}."
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return 0
        removed = 0
        for name in names:
            if name.startswith(prefix) and (
                name.endswith(".json") or name.endswith(".json.quarantined")
            ):
                try:
                    os.remove(os.path.join(self.cache_dir, name))
                    removed += 1
                except OSError:
                    pass
        self.telemetry.record_sweep(dataset_fp, removed)
        return removed

    def clear(self) -> int:
        """Drop both in-memory tiers (disk artifacts are kept; use
        :meth:`invalidate` for targeted disk removal)."""
        removed = self._results.clear() + self._skeletons.clear()
        self.telemetry.record_clear(removed)
        self._refresh_gauges()
        return removed

"""Process-lifetime serving telemetry: histograms, gauges, journal.

A :class:`ServiceTelemetry` is owned by one
:class:`~repro.serve.service.QueryService` and outlives individual
queries: while a :class:`~repro.obs.trace.Tracer` describes one run and
:class:`~repro.db.stats.CacheStats` counts transitions, the telemetry
object accumulates the *distributional* view a serving operator needs —

* **per-outcome latency histograms**
  (``serve_seconds{outcome=...}``) for every way a query can be
  answered: ``cold``, ``warm-memory``, ``warm-disk``, ``skeleton``,
  ``skeleton-batch``, ``partial`` — quantile-accurate
  (:class:`~repro.obs.hist.QuantileHistogram`), so warm-hit p50/p99 are
  first-class numbers, not anecdotes;
* **cache gauges** — hit ratio, held bytes, per-tier entry occupancy
  (entries / capacity), and the age of the most recent eviction (plus
  an ``eviction_age_seconds`` histogram per tier);
* **maintenance timings** — ``apply_delta`` wall time and per-skeleton
  refresh seconds;
* an **event journal** (:class:`~repro.obs.events.EventJournal`)
  narrating every lifecycle transition (hit, miss, store, evict,
  TTL-expiry, disk sweep, delta refresh, guard trip) with monotonic
  sequence numbers, memory-bounded and optionally rotating on disk.

Everything folds into one :class:`~repro.obs.metrics.MetricsRegistry`,
so per-run registries merge in (:meth:`merge_run`) and the whole object
exports as Prometheus text or a JSON snapshot (``repro stats``,
``--telemetry-out``, the run report's schema-v5 ``telemetry`` block).

Telemetry is on by default — the serving layer's per-query overhead is
a handful of dict operations against runs that are measured in
milliseconds — but ``ServiceTelemetry(enabled=False)`` turns every
recording method into an early return, keeps its journal memory-only
(no file is opened) and hands the caches no departure hook.
``QueryService(telemetry=False)`` shares one such instance,
:data:`NULL_TELEMETRY`.  The *engine's* disabled-path guarantee is
untouched: uncached runs never construct a service, and
NULL_TRACER/NULL_METRICS call sites are unchanged.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Optional

from repro.obs.events import EventJournal
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry

TELEMETRY_SCHEMA = "repro.serve.telemetry"
TELEMETRY_VERSION = 1

#: The ways one query can be answered, as histogram labels.
SERVE_OUTCOMES = (
    "cold",
    "warm-memory",
    "warm-disk",
    "skeleton",
    "skeleton-batch",
    "partial",
)


class ServiceTelemetry:
    """Lifetime instrumentation for one :class:`QueryService`.

    Parameters
    ----------
    journal_path:
        Optional JSONL path for the on-disk event journal (rotating);
        ``None`` keeps the journal memory-only.
    journal:
        A pre-built :class:`EventJournal` (overrides ``journal_path``).
    clock:
        Monotonic clock shared with the service (drives eviction ages
        and journal timestamps).
    enabled:
        ``False`` makes every recording method an early return and keeps
        the journal memory-only (``journal_path`` is not opened).
    """

    def __init__(
        self,
        journal_path: Optional[str] = None,
        journal: Optional[EventJournal] = None,
        clock: Callable[[], float] = time.monotonic,
        enabled: bool = True,
    ):
        self.enabled = enabled
        self.clock = clock
        self.started_at = clock()
        self.metrics = MetricsRegistry()
        if journal is None:
            journal = EventJournal(
                path=journal_path if enabled else None, clock=clock
            )
        self.journal = journal
        self.runs_merged = 0

    # ------------------------------------------------------------------
    # Serving outcomes
    # ------------------------------------------------------------------
    def record_serve(
        self, outcome: str, seconds: float, query_fp: Optional[str] = None
    ) -> None:
        """One answered query: latency into the outcome's histogram."""
        if not self.enabled:
            return
        if outcome not in SERVE_OUTCOMES:
            raise ValueError(
                f"unknown serve outcome {outcome!r}; expected one of "
                f"{SERVE_OUTCOMES}"
            )
        self.metrics.inc("serves", outcome=outcome)
        self.metrics.observe("serve_seconds", seconds, outcome=outcome)

    def record_lookup(
        self, tier: str, key: str, dataset_fp: str, hit: bool
    ) -> None:
        """One result-cache probe (tier ``memory``/``disk``)."""
        if not self.enabled:
            return
        if hit:
            self.journal.record(
                "result_hit", tier=tier, key=key[:16], dataset=dataset_fp[:16]
            )
        else:
            self.journal.record(
                "result_miss", key=key[:16], dataset=dataset_fp[:16]
            )

    def record_store(self, key: str, dataset_fp: str, nbytes: int) -> None:
        """One completed cold run stored into the result cache."""
        if not self.enabled:
            return
        self.journal.record(
            "result_store", key=key[:16], dataset=dataset_fp[:16], nbytes=nbytes
        )

    def record_guard_trip(self, query_fp: str, reason: Any) -> None:
        """One guard-interrupted (partial) serving."""
        if not self.enabled:
            return
        self.metrics.inc("guard_trips")
        self.journal.record("guard_trip", query=query_fp[:16], reason=str(reason))

    # ------------------------------------------------------------------
    # Query server (docs/server.md)
    # ------------------------------------------------------------------
    def record_admit(self, tenant: str, query_fp: str) -> None:
        """One request admitted past rate-limit and queue checks."""
        if not self.enabled:
            return
        self.metrics.inc("server_admits", tenant=tenant)
        self.journal.record("server_admit", tenant=tenant, query=query_fp[:16])

    def record_reject(self, tenant: str, reason: str) -> None:
        """One request rejected by admission control (``rate_limit``,
        ``unknown_tenant``, ``bad_request`` ...)."""
        if not self.enabled:
            return
        self.metrics.inc("server_rejections", tenant=tenant, reason=reason)
        self.journal.record("server_reject", tenant=tenant, reason=reason)

    def record_shed(self, tenant: str) -> None:
        """One request shed because the bounded global queue was full."""
        if not self.enabled:
            return
        self.metrics.inc("server_sheds", tenant=tenant)
        self.journal.record("server_shed", tenant=tenant)

    def record_dedup(self, key: str, waiters: int) -> None:
        """One single-flight join: ``waiters`` requests shared a leader's
        execution instead of mining themselves."""
        if not self.enabled:
            return
        self.metrics.inc("flight_dedup_hits", waiters)
        self.journal.record("flight_dedup", key=key[:16], waiters=waiters)

    def record_coalesce(self, dataset_fp: str, width: int) -> None:
        """One coalesced dispatch of ``width`` distinct in-flight queries
        as a single shared-scan batch."""
        if not self.enabled:
            return
        self.metrics.inc("coalesced_batches")
        self.metrics.observe("coalesce_width", width)
        self.journal.record(
            "server_coalesce", dataset=dataset_fp[:16], width=width
        )

    def set_queue_depth(self, depth: int) -> None:
        """Point-in-time depth of the server's bounded work queue."""
        if not self.enabled:
            return
        self.metrics.set_gauge("server_queue_depth", depth)

    # ------------------------------------------------------------------
    # Fault tolerance (docs/fault-tolerance.md)
    # ------------------------------------------------------------------
    def record_disk_retry(self, op: str, error: str) -> None:
        """One failed disk-tier attempt that a later retry recovered."""
        if not self.enabled:
            return
        self.metrics.inc("disk_retries", op=op)
        self.journal.record("disk_retry", op=op, error=error[:120])

    def record_disk_error(self, op: str, error: str, state: str) -> None:
        """One absorbed disk-tier I/O failure (after its own retries)."""
        if not self.enabled:
            return
        self.metrics.inc("disk_errors", op=op)
        self.journal.record(
            "disk_error", op=op, error=error[:120], breaker=state
        )

    def record_disk_transition(self, new_state: str, old_state: str) -> None:
        """The disk-tier circuit breaker changed state."""
        if not self.enabled:
            return
        self.metrics.set_gauge(
            "disk_breaker_open", 0.0 if new_state == "closed" else 1.0
        )
        if new_state == "closed":
            self.journal.record("disk_recovered", from_state=old_state)
        elif new_state == "open":
            self.journal.record("disk_degraded", from_state=old_state)

    def record_quarantine(self, path: str, reason: str) -> None:
        """One corrupt disk artifact renamed aside (never re-read)."""
        if not self.enabled:
            return
        self.metrics.inc("quarantined")
        self.journal.record(
            "result_quarantine",
            file=path.rsplit("/", 1)[-1][:48],
            reason=reason[:120],
        )

    def record_refresh_fallback(self, domain_fp: str, reason: str) -> None:
        """One skeleton whose delta refresh failed and was dropped (its
        queries fall back to cold rebuilds)."""
        if not self.enabled:
            return
        self.metrics.inc("refresh_fallbacks")
        self.journal.record(
            "refresh_fallback", domain=domain_fp[:16], reason=reason[:120]
        )

    def record_checkpoint_degraded(self, failures: int) -> None:
        """A run downgraded to checkpoint-less execution."""
        if not self.enabled:
            return
        self.metrics.inc("checkpoint_degradations")
        self.journal.record("checkpoint_degraded", failures=failures)

    # ------------------------------------------------------------------
    # Skeleton tier
    # ------------------------------------------------------------------
    def record_skeleton_build(
        self, domain_fp: str, seconds: float, nbytes: int
    ) -> None:
        if not self.enabled:
            return
        self.metrics.observe("skeleton_build_seconds", seconds)
        self.journal.record(
            "skeleton_store", domain=domain_fp[:16], nbytes=nbytes,
            seconds=round(seconds, 6),
        )

    def record_skeleton_reuse(self, domain_fp: str) -> None:
        if not self.enabled:
            return
        self.journal.record("skeleton_hit", domain=domain_fp[:16])

    # ------------------------------------------------------------------
    # Batches, deltas, sweeps, clears
    # ------------------------------------------------------------------
    def record_batch(
        self,
        n_queries: int,
        build_seconds: float,
        sources: Dict[str, int],
        wall_seconds: float,
    ) -> None:
        if not self.enabled:
            return
        self.metrics.inc("batches")
        self.metrics.inc("batch_queries", n_queries)
        self.metrics.observe("batch_seconds", wall_seconds)
        if build_seconds:
            self.metrics.observe("batch_skeleton_build_seconds", build_seconds)
        self.journal.record(
            "batch_execute",
            queries=n_queries,
            skeleton_build_seconds=round(build_seconds, 6),
            wall_seconds=round(wall_seconds, 6),
            sources=dict(sorted(sources.items())),
        )

    def record_delta(self, report: Any) -> None:
        """One :meth:`QueryService.apply_delta` maintenance pass."""
        if not self.enabled:
            return
        self.metrics.inc("deltas_applied")
        self.metrics.observe("delta_apply_seconds", report.wall_seconds)
        for stats in getattr(report, "refreshes", ()):
            self.metrics.observe("skeleton_refresh_seconds", stats.seconds)
        self.journal.record(
            "delta_refresh",
            base=report.base_fingerprint[:16],
            new=report.new_fingerprint[:16],
            skeletons_refreshed=report.skeletons_refreshed,
            skeletons_dropped=report.skeletons_dropped,
            results_invalidated=report.results_invalidated,
            wall_seconds=round(report.wall_seconds, 6),
        )

    def record_sweep(self, dataset_fp: str, removed: int) -> None:
        if not self.enabled:
            return
        if removed:
            self.metrics.inc("disk_swept", removed)
        self.journal.record(
            "disk_sweep", dataset=dataset_fp[:16], removed=removed
        )

    def record_clear(self, removed: int) -> None:
        if not self.enabled:
            return
        self.journal.record("service_clear", removed=removed)

    # ------------------------------------------------------------------
    # Cache departure events (wired as LRUCache.on_event)
    # ------------------------------------------------------------------
    def cache_event_hook(
        self, tier: str
    ) -> Optional[Callable[[str, str, Any], None]]:
        """The ``on_event`` callback for one cache tier (``result`` or
        ``skeleton``): journals the departure and feeds the
        eviction-age histogram/gauge.  ``None`` when disabled, which
        the caches treat as "no hook"."""
        if not self.enabled:
            return None
        kind_map = {
            "evict": f"{tier}_evict",
            "replace": f"{tier}_evict",
            "expire": f"{tier}_expire",
            "invalidate": f"{tier}_invalidate",
        }

        def hook(event: str, key: str, entry: Any) -> None:
            if not self.enabled:
                return
            age = max(0.0, self.clock() - entry.stored_at)
            if event in ("evict", "expire", "replace"):
                self.metrics.observe("eviction_age_seconds", age, tier=tier)
                self.metrics.set_gauge(
                    "last_eviction_age_seconds", age, tier=tier
                )
            fields: Dict[str, Any] = {
                "key": key[:16],
                "age_seconds": round(age, 6),
                "nbytes": entry.nbytes,
            }
            if event == "replace":
                fields["reason"] = "replace"
            self.journal.record(kind_map[event], **fields)

        return hook

    # ------------------------------------------------------------------
    # Gauges / roll-ups
    # ------------------------------------------------------------------
    def update_cache_gauges(
        self,
        stats: Any,
        result_entries: int,
        result_capacity: int,
        skeleton_entries: int,
        skeleton_capacity: int,
    ) -> None:
        """Refresh point-in-time cache gauges from the shared stats."""
        if not self.enabled:
            return
        self.metrics.set_gauge("cache_hit_ratio", round(stats.hit_rate, 6))
        self.metrics.set_gauge("cache_bytes_held", stats.bytes_held)
        self.metrics.set_gauge("cache_entries", result_entries, tier="result")
        self.metrics.set_gauge(
            "cache_entries", skeleton_entries, tier="skeleton"
        )
        self.metrics.set_gauge(
            "cache_occupancy",
            round(result_entries / result_capacity, 6),
            tier="result",
        )
        self.metrics.set_gauge(
            "cache_occupancy",
            round(skeleton_entries / skeleton_capacity, 6),
            tier="skeleton",
        )

    def merge_run(self, registry: Optional[MetricsRegistry]) -> None:
        """Fold one run's metrics registry into the lifetime registry
        (counters add, gauges last-write, histograms merge)."""
        if not self.enabled or registry is None or not registry.enabled:
            return
        self.metrics.merge(registry)
        self.runs_merged += 1

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def outcome_latencies(self) -> Dict[str, Dict[str, float]]:
        """Per-outcome latency summaries (only outcomes actually seen)."""
        out: Dict[str, Dict[str, float]] = {}
        for outcome in SERVE_OUTCOMES:
            hist = self.metrics.histogram("serve_seconds", outcome=outcome)
            if hist is not None and hist.count:
                out[outcome] = hist.as_dict()
        return out

    def snapshot(self, stats: Any = None) -> Dict[str, Any]:
        """The serializable telemetry document (run-report v5's
        ``telemetry`` block; ``repro stats`` input)."""
        document: Dict[str, Any] = {
            "schema": TELEMETRY_SCHEMA,
            "version": TELEMETRY_VERSION,
            "enabled": self.enabled,
            "uptime_seconds": round(self.clock() - self.started_at, 6),
            "runs_merged": self.runs_merged,
            "outcomes": self.outcome_latencies(),
            "metrics": self.metrics.to_state(),
            "journal": self.journal.snapshot(),
        }
        if stats is not None:
            document["cache"] = stats.as_dict()
        return document

    def write(self, path: str, stats: Any = None) -> str:
        """Write :meth:`snapshot` as JSON; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(stats=stats), handle, indent=2)
            handle.write("\n")
        return path

    def to_prometheus(self) -> str:
        """The lifetime registry in Prometheus text exposition format."""
        return render_prometheus(self.metrics)


#: The disabled telemetry ``QueryService(telemetry=False)`` shares.
NULL_TELEMETRY = ServiceTelemetry(enabled=False)


def resolve_telemetry(
    telemetry: Any,
    journal_path: Optional[str] = None,
    clock: Callable[[], float] = time.monotonic,
) -> Any:
    """Normalize ``QueryService``'s ``telemetry`` argument.

    ``None``/``True`` → a fresh enabled :class:`ServiceTelemetry`;
    ``False`` → :data:`NULL_TELEMETRY`; an existing telemetry object
    passes through (shared across services if the caller wants).
    """
    if telemetry is False:
        return NULL_TELEMETRY
    if telemetry is None or telemetry is True:
        return ServiceTelemetry(journal_path=journal_path, clock=clock)
    return telemetry

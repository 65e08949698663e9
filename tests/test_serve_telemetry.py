"""ServiceTelemetry: outcome classification, journal, gauges, nulls.

``QueryService`` owns one :class:`~repro.serve.telemetry.ServiceTelemetry`
for its whole life.  These tests pin (a) the outcome label every tier
gets — ``cold`` / ``warm-memory`` / ``warm-disk`` / ``skeleton`` /
``skeleton-batch`` / ``partial``, (b) the journal narration and gauges
behind them, and (c) that ``telemetry=False`` is genuinely inert.
"""

import json

import pytest

from repro.datagen.workloads import quickstart_workload
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.runtime.guard import RunGuard
from repro.serve import NULL_TELEMETRY, QueryService, ServiceTelemetry
from repro.serve.telemetry import resolve_telemetry


@pytest.fixture(scope="module")
def workload():
    return quickstart_workload(n_transactions=200)


def _outcome_counts(service):
    return {
        outcome: summary["count"]
        for outcome, summary in service.telemetry.outcome_latencies().items()
    }


# ----------------------------------------------------------------------
# Outcome classification across the serving tiers
# ----------------------------------------------------------------------
def test_cold_then_warm_memory_outcomes(workload):
    service = QueryService()
    service.execute(workload.db, workload.cfq())
    service.execute(workload.db, workload.cfq())
    service.execute(workload.db, workload.cfq())
    assert _outcome_counts(service) == {"cold": 1, "warm-memory": 2}
    kinds = service.telemetry.journal.counts()
    assert kinds["result_store"] == 1
    assert kinds["result_hit"] == 2


def test_warm_disk_outcome_in_fresh_process(workload, tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = QueryService(cache_dir=cache_dir)
    first.execute(workload.db, workload.cfq())

    second = QueryService(cache_dir=cache_dir)  # fresh memory tier
    result = second.execute(workload.db, workload.cfq())
    assert result.cache_info["tier"] == "disk"
    assert _outcome_counts(second) == {"warm-disk": 1}
    (hit,) = [
        e for e in second.telemetry.journal if e["kind"] == "result_hit"
    ]
    assert hit["tier"] == "disk"

    # Now cached in memory again: the next hit is warm-memory.
    second.execute(workload.db, workload.cfq())
    assert _outcome_counts(second) == {"warm-disk": 1, "warm-memory": 1}


def test_skeleton_outcomes_single_and_batch(workload):
    service = QueryService()
    cfqs = [workload.cfq(minsup=0.03), workload.cfq(minsup=0.05)]
    report = service.execute_batch(workload.db, cfqs)
    assert all(item.source == "skeleton" for item in report.items)
    assert _outcome_counts(service) == {"skeleton-batch": 2}

    # A third query served individually off the now-warm skeleton tier.
    single = service.execute(workload.db, workload.cfq(minsup=0.04))
    assert single.cache_info["source"] == "skeleton"
    counts = _outcome_counts(service)
    assert counts["skeleton"] == 1 and counts["skeleton-batch"] == 2

    kinds = service.telemetry.journal.counts()
    assert kinds["batch_execute"] == 1
    assert kinds["skeleton_store"] >= 1
    batch_events = [
        e for e in service.telemetry.journal if e["kind"] == "batch_execute"
    ]
    assert batch_events[0]["queries"] == 2
    assert batch_events[0]["sources"] == {"skeleton": 2}


def test_partial_outcome_records_guard_trip(workload):
    service = QueryService()
    result = service.execute(
        workload.db, workload.cfq(), guard=RunGuard(max_candidates=1)
    )
    assert result.status == "partial"
    assert _outcome_counts(service) == {"partial": 1}
    assert service.telemetry.metrics.counter("guard_trips") == 1
    (trip,) = [
        e for e in service.telemetry.journal if e["kind"] == "guard_trip"
    ]
    assert trip["reason"]


# ----------------------------------------------------------------------
# Gauges and maintenance
# ----------------------------------------------------------------------
def test_cache_gauges_reflect_service_state(workload):
    service = QueryService(max_entries=4, max_skeletons=2)
    service.execute(workload.db, workload.cfq())
    service.execute(workload.db, workload.cfq())
    metrics = service.telemetry.metrics
    assert metrics.gauge("cache_entries", tier="result") == 1
    assert metrics.gauge("cache_occupancy", tier="result") == 0.25
    assert metrics.gauge("cache_bytes_held") == service.stats.bytes_held
    assert metrics.gauge("cache_hit_ratio") == pytest.approx(
        service.stats.hit_rate, abs=1e-6
    )


def test_eviction_feeds_age_histogram_and_journal(workload):
    service = QueryService(max_entries=1)
    service.execute(workload.db, workload.cfq(minsup=0.03))
    service.execute(workload.db, workload.cfq(minsup=0.05))  # evicts first
    evictions = [
        e for e in service.telemetry.journal if e["kind"] == "result_evict"
    ]
    assert len(evictions) == 1
    assert evictions[0]["age_seconds"] >= 0.0
    hist = service.telemetry.metrics.histogram(
        "eviction_age_seconds", tier="result"
    )
    assert hist is not None and hist.count == 1
    assert service.telemetry.metrics.gauge(
        "last_eviction_age_seconds", tier="result"
    ) is not None


def test_apply_delta_records_maintenance(workload):
    service = QueryService()
    service.execute_batch(workload.db, [workload.cfq()])
    db2, delta = workload.db.append([workload.db.transactions[0]])
    service.apply_delta(db2, delta)
    metrics = service.telemetry.metrics
    assert metrics.counter("deltas_applied") == 1
    hist = metrics.histogram("delta_apply_seconds")
    assert hist is not None and hist.count == 1
    (event,) = [
        e for e in service.telemetry.journal if e["kind"] == "delta_refresh"
    ]
    assert event["skeletons_refreshed"] + event["skeletons_dropped"] >= 1


# ----------------------------------------------------------------------
# merge_run and snapshots
# ----------------------------------------------------------------------
def test_merge_run_folds_registries_and_skips_nulls():
    telemetry = ServiceTelemetry()
    run = MetricsRegistry()
    run.inc("candidates", 5, var="S")
    run.observe("level_seconds", 0.25, var="S")
    telemetry.merge_run(run)
    telemetry.merge_run(run)
    assert telemetry.runs_merged == 2
    assert telemetry.metrics.counter("candidates", var="S") == 10
    assert telemetry.metrics.histogram("level_seconds", var="S").count == 2

    telemetry.merge_run(None)
    telemetry.merge_run(NULL_METRICS)
    assert telemetry.runs_merged == 2  # nulls never count


def test_snapshot_shape_and_write(workload, tmp_path):
    service = QueryService()
    service.execute(workload.db, workload.cfq())
    path = str(tmp_path / "telemetry.json")
    service.telemetry.write(path, stats=service.stats)
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["schema"] == "repro.serve.telemetry"
    assert document["version"] == 1
    assert document["enabled"] is True
    assert "cold" in document["outcomes"]
    assert document["cache"]["stores"] == 1
    assert document["journal"]["seq"] >= 2
    # The metrics block is the lossless registry state: histograms
    # round-trip through it.
    restored = MetricsRegistry.from_state(document["metrics"])
    assert restored.histogram("serve_seconds", outcome="cold").count == 1


def test_record_serve_rejects_unknown_outcome():
    telemetry = ServiceTelemetry()
    with pytest.raises(ValueError):
        telemetry.record_serve("lukewarm", 0.1)


def test_telemetry_prometheus_export_lints(workload):
    from repro.obs.export import lint_prometheus

    service = QueryService()
    service.execute(workload.db, workload.cfq())
    service.execute(workload.db, workload.cfq())
    text = service.telemetry.to_prometheus()
    assert lint_prometheus(text) == []
    assert 'repro_serves_total{outcome="warm-memory"} 1.0' in text


# ----------------------------------------------------------------------
# The disabled path
# ----------------------------------------------------------------------
def test_disabled_telemetry_is_inert(workload):
    service = QueryService(telemetry=False)
    assert service.telemetry is NULL_TELEMETRY
    warm = service.execute(workload.db, workload.cfq())
    warm = service.execute(workload.db, workload.cfq())
    assert warm.cache_info["source"] == "result-cache"  # serving still works
    assert service.telemetry.outcome_latencies() == {}
    assert len(service.telemetry.journal) == 0
    assert service.telemetry.metrics.as_dict() == {
        "counters": {}, "gauges": {}, "histograms": {},
    }
    snap = service.telemetry.snapshot()
    assert snap["enabled"] is False and snap["outcomes"] == {}
    # The caches got no departure hook at all — not even a no-op call.
    assert service._results.on_event is None
    assert service._skeletons.on_event is None


def test_disabled_telemetry_opens_no_journal_file(tmp_path):
    path = tmp_path / "journal.jsonl"
    telemetry = ServiceTelemetry(journal_path=str(path), enabled=False)
    telemetry.record_disk_retry("write", "OSError: boom")
    telemetry.record_store("k" * 16, "d" * 16, 10)
    assert telemetry.journal.path is None
    assert not path.exists()
    assert len(telemetry.journal) == 0
    assert telemetry.cache_event_hook("result") is None


def test_resolve_telemetry_contract():
    assert resolve_telemetry(False) is NULL_TELEMETRY
    fresh = resolve_telemetry(None)
    assert isinstance(fresh, ServiceTelemetry) and fresh.enabled
    assert isinstance(resolve_telemetry(True), ServiceTelemetry)
    shared = ServiceTelemetry()
    assert resolve_telemetry(shared) is shared


def test_shared_telemetry_across_services(workload):
    """Two services can adopt one telemetry object — the fleet view."""
    telemetry = ServiceTelemetry()
    a = QueryService(telemetry=telemetry)
    b = QueryService(telemetry=telemetry)
    a.execute(workload.db, workload.cfq())
    b.execute(workload.db, workload.cfq())
    counts = {
        outcome: summary["count"]
        for outcome, summary in telemetry.outcome_latencies().items()
    }
    assert counts == {"cold": 2}  # separate caches: both ran cold

"""The degradation ladder, one registered fault site at a time.

For every site in :data:`repro.runtime.faults.FAULT_SITES` this file
injects the site's characteristic faults into a live
:class:`~repro.serve.QueryService` (or checkpoint manager / journal) and
asserts the three-part contract of ``docs/fault-tolerance.md``:

1. **never wrong** — the served answer is bit-identical to a fault-free
   cold run;
2. **visibly degraded** — the failure is counted
   (``CacheStats.disk_errors``/``quarantined``, journal ``io_errors``,
   checkpoint ``failures``) and narrated in the event journal
   (``disk_error``, ``result_quarantine``, ``disk_degraded``, ...);
3. **recoverable** — once the faults clear (``plan.clear_rules()``)
   and the breaker's cooldown elapses, the service returns to full
   health (artifacts persist again, ``disk_recovered`` is journaled).
"""

from functools import lru_cache

import os

import pytest

from repro.core.optimizer import CFQOptimizer
from repro.datagen.workloads import quickstart_workload
from repro.obs.events import EventJournal
from repro.runtime import faults
from repro.runtime.checkpoint import (
    Checkpoint,
    CheckpointManager,
    run_fingerprint,
)
from repro.db.stats import OpCounters
from repro.runtime.faults import FaultPlan
from repro.serve import QueryService

WORKLOAD = quickstart_workload(n_transactions=120)
MINSUPS = (0.03, 0.05, 0.06, 0.08)


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.uninstall()
    yield
    faults.uninstall()


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


@lru_cache(maxsize=None)
def _cold(minsup):
    result = CFQOptimizer(WORKLOAD.cfq(minsup=minsup)).execute(WORKLOAD.db)
    return _answer(result)


def _answer(result):
    return {
        "frequent_valid": {
            var: tuple(result.frequent_valid(var).items())
            for var in result.cfq.variables
        },
        "pairs": tuple(result.pairs(limit=None)),
        "bounds": {
            key: tuple(history)
            for key, history in result.raw.bound_histories.items()
        },
    }


def _service(tmp_path, clock, **kwargs):
    kwargs.setdefault("disk_retries", 1)
    kwargs.setdefault("disk_backoff_seconds", 0.0)
    kwargs.setdefault("disk_failure_threshold", 2)
    kwargs.setdefault("disk_cooldown_seconds", 30.0)
    return QueryService(cache_dir=str(tmp_path / "cache"), clock=clock,
                        **kwargs)


def _serve(service, minsup):
    result = service.execute(WORKLOAD.db, WORKLOAD.cfq(minsup=minsup))
    assert result.status == "complete"
    assert _answer(result) == _cold(minsup)
    return result


def _journal_kinds(service):
    return [e["kind"] for e in service.telemetry.journal.tail()]


# ----------------------------------------------------------------------
# serve.disk.write / serve.disk.replace
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind,site", [
    ("enospc", "serve.disk.write"),
    ("eacces", "serve.disk.write"),
    ("torn", "serve.disk.write"),
    ("rename", "serve.disk.replace"),
])
def test_write_faults_leave_entry_memory_only(tmp_path, kind, site):
    clock = FakeClock()
    service = _service(tmp_path, clock)
    plan = FaultPlan().add(site, kind, times=-1)
    with faults.installed(plan):
        _serve(service, 0.03)
    assert plan.fired_kinds(site), "the planned fault never fired"
    assert service.stats.disk_errors >= 1
    assert "disk_error" in _journal_kinds(service)
    # No artifact (and no torn temp file shadowing one) on disk ...
    cache = tmp_path / "cache"
    assert not list(cache.glob("*.json"))
    # ... but the *memory* tier still warm-serves bit-identically.
    warm = _serve(service, 0.03)
    assert warm.cache_info["source"] == "result-cache"
    # Faults cleared: the next store persists again (full health).
    _serve(service, 0.05)
    assert list(cache.glob("*.json"))


def test_persistent_write_faults_open_the_breaker_then_recover(tmp_path):
    clock = FakeClock()
    service = _service(tmp_path, clock)
    plan = FaultPlan().add("serve.disk.write", "enospc", times=-1)
    with faults.installed(plan):
        _serve(service, 0.03)
        _serve(service, 0.05)  # second failure trips threshold=2
        assert service.disk_breaker.state == "open"
        kinds = _journal_kinds(service)
        assert "disk_degraded" in kinds
        # Open breaker: the disk tier is skipped wholesale — no new
        # site hits even though this store "fails" to persist.
        hits_before = plan.hits.get("serve.disk.write", 0)
        _serve(service, 0.06)
        assert plan.hits.get("serve.disk.write", 0) == hits_before
        # Faults clear + cooldown elapses: half-open probe re-closes.
        plan.clear_rules()
        clock.now += 31.0
        _serve(service, 0.08)
    assert service.disk_breaker.state == "closed"
    assert "disk_recovered" in _journal_kinds(service)
    assert list((tmp_path / "cache").glob("*.json"))
    snap = service.disk_breaker.snapshot()
    assert snap["opens"] == 1 and snap["closes"] == 1


# ----------------------------------------------------------------------
# serve.disk.read
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["eio", "eacces", "enospc"])
def test_unreadable_artifact_is_a_miss_not_a_crash(tmp_path, kind):
    clock = FakeClock()
    service = _service(tmp_path, clock, disk_retries=0)
    _serve(service, 0.03)  # stores to disk fault-free
    service.clear()  # force the next lookup through the disk tier
    plan = FaultPlan().add("serve.disk.read", kind, times=-1)
    with faults.installed(plan):
        result = _serve(service, 0.03)  # cold re-mine, bit-identical
    assert result.cache_info["source"] == "cold"
    assert service.stats.disk_errors >= 1
    # The artifact itself is intact; once faults clear it serves again.
    service.clear()
    warm = _serve(service, 0.03)
    assert warm.cache_info["source"] == "result-cache"
    assert warm.cache_info["tier"] == "disk"


def test_read_retry_rides_through_a_transient_fault(tmp_path):
    clock = FakeClock()
    service = _service(tmp_path, clock, disk_retries=1)
    _serve(service, 0.03)
    service.clear()
    plan = FaultPlan().add("serve.disk.read", "eio", times=1)
    with faults.installed(plan):
        warm = _serve(service, 0.03)
    # One fault, one retry: still a warm disk hit, no degradation, and
    # the recovered attempt is journaled.
    assert warm.cache_info["source"] == "result-cache"
    assert service.stats.disk_errors == 0
    assert _journal_kinds(service).count("disk_retry") == 1


@pytest.mark.parametrize("kind", ["short", "corrupt"])
def test_corrupt_reads_quarantine_and_fall_through_cold(tmp_path, kind):
    clock = FakeClock()
    service = _service(tmp_path, clock, disk_retries=0)
    _serve(service, 0.03)
    service.clear()
    cache = tmp_path / "cache"
    [artifact] = cache.glob("*.json")
    plan = FaultPlan(seed=5).add("serve.disk.read", kind, times=1)
    with faults.installed(plan):
        result = _serve(service, 0.03)
    assert result.cache_info["source"] == "cold"
    assert service.stats.quarantined == 1
    assert "result_quarantine" in _journal_kinds(service)
    # Renamed aside, never re-read; the cold run re-stored a *fresh*
    # artifact at the original path, which now warm-serves again.
    assert artifact.with_suffix(".json.quarantined").exists()
    service.clear()
    warm = _serve(service, 0.03)
    assert warm.cache_info["source"] == "result-cache"
    assert warm.cache_info["tier"] == "disk"


# ----------------------------------------------------------------------
# serve.disk.remove (TTL expiry dropping the disk copy)
# ----------------------------------------------------------------------
def test_failed_disk_drop_is_absorbed(tmp_path):
    clock = FakeClock()
    service = QueryService(cache_dir=str(tmp_path / "cache"), clock=clock,
                           ttl_seconds=60.0, disk_backoff_seconds=0.0)
    _serve(service, 0.03)
    clock.now += 61.0  # expire the memory entry; lookup drops disk too
    plan = FaultPlan().add("serve.disk.remove", "eio", times=-1)
    with faults.installed(plan):
        result = _serve(service, 0.03)  # expired ≡ cold, still identical
    assert result.cache_info["source"] == "cold"
    assert plan.fired_kinds("serve.disk.remove")
    assert service.stats.disk_errors >= 1


# ----------------------------------------------------------------------
# journal.open / journal.write / journal.rotate
# ----------------------------------------------------------------------
def test_journal_write_faults_never_reach_the_service(tmp_path):
    clock = FakeClock()
    plan = FaultPlan().add("journal.write", "eio", times=-1)
    with faults.installed(plan):
        service = QueryService(
            cache_dir=str(tmp_path / "cache"), clock=clock,
            journal_path=str(tmp_path / "journal.jsonl"),
            disk_backoff_seconds=0.0,
        )
        _serve(service, 0.03)  # no exception anywhere
    journal = service.telemetry.journal
    assert journal.io_errors >= 1
    assert journal.degraded  # disk file abandoned ...
    assert len(journal) > 0  # ... memory window keeps narrating


def test_journal_open_fault_degrades_to_memory_only(tmp_path):
    plan = FaultPlan().add("journal.open", "eacces")
    with faults.installed(plan):
        journal = EventJournal(path=str(tmp_path / "j.jsonl"))
    assert journal.degraded
    event = journal.record("result_hit", tier="memory")
    assert event["seq"] == 1  # recording continues in memory


def test_journal_rotation_fault_is_atomic_or_abandoned(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = EventJournal(path=path, max_bytes=64, max_files=2)
    plan = FaultPlan().add("journal.rotate", "eio")
    with faults.installed(plan):
        for _ in range(6):
            journal.record("result_hit", tier="memory")
    assert journal.rotation_failures >= 1
    assert journal.io_errors == 0  # live file reopened, appends continue
    assert not journal.degraded
    # Later rotations (fault cleared) succeed normally.
    for _ in range(6):
        journal.record("result_hit", tier="memory")
    assert journal.rotations >= 1
    snap = journal.snapshot()
    assert snap["rotation_failures"] == journal.rotation_failures


# ----------------------------------------------------------------------
# checkpoint.save / checkpoint.load
# ----------------------------------------------------------------------
def _checkpoint(fp):
    return Checkpoint(fingerprint=fp, events=(),
                      counters=OpCounters().snapshot())


def test_checkpoint_save_faults_degrade_to_checkpointless(tmp_path):
    manager = CheckpointManager(str(tmp_path), "f" * 64)
    plan = FaultPlan().add("checkpoint.save", "enospc", times=-1)
    with faults.installed(plan):
        for _ in range(manager.FAILURE_THRESHOLD):
            assert manager.save(_checkpoint("f" * 64)) is None
        assert manager.degraded
        hits = plan.hits["checkpoint.save"]
        assert manager.save(_checkpoint("f" * 64)) is None  # skipped
        assert plan.hits["checkpoint.save"] == hits  # no further I/O
    assert manager.failures == manager.FAILURE_THRESHOLD
    assert manager.saves == 0


def test_checkpointed_run_survives_save_faults_bit_identically(tmp_path):
    cfq = WORKLOAD.cfq(minsup=0.03)
    plan = FaultPlan().add("checkpoint.save", "enospc", times=-1)
    with faults.installed(plan):
        result = CFQOptimizer(cfq).execute(
            WORKLOAD.db, checkpoint_dir=str(tmp_path)
        )
    assert result.status == "complete"
    assert plan.fired_kinds("checkpoint.save")
    assert _answer(result) == _cold(0.03)


def test_unreadable_checkpoint_starts_fresh(tmp_path):
    fp = run_fingerprint("q", WORKLOAD.db, {})
    manager = CheckpointManager(str(tmp_path), fp)
    manager.save(_checkpoint(fp))
    plan = FaultPlan().add("checkpoint.load", "eio")
    with faults.installed(plan):
        assert manager.load_for_resume() is None  # fresh start, no crash
    # Fault cleared: the stored checkpoint is still there and loads.
    assert manager.load_for_resume() is not None


def test_corrupt_checkpoint_read_is_quarantined(tmp_path):
    fp = run_fingerprint("q", WORKLOAD.db, {})
    manager = CheckpointManager(str(tmp_path), fp)
    manager.save(_checkpoint(fp))
    plan = FaultPlan(seed=2).add("checkpoint.load", "corrupt")
    with faults.installed(plan):
        assert manager.load_for_resume() is None
    assert manager.quarantined == 1
    assert os.path.exists(manager.path + ".quarantined")
    assert not os.path.exists(manager.path)  # never re-read
    assert manager.load_for_resume() is None  # fresh start thereafter


# ----------------------------------------------------------------------
# skeleton.refresh
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["error", "eio"])
def test_refresh_faults_drop_skeletons_and_fall_back_cold(tmp_path, kind):
    clock = FakeClock()
    service = _service(tmp_path, clock)
    cfqs = [WORKLOAD.cfq(minsup=m) for m in (0.03, 0.05)]
    service.execute_batch(WORKLOAD.db, cfqs)  # builds skeletons
    new_db, delta = WORKLOAD.db.append([list(WORKLOAD.db.transactions[0])])
    plan = FaultPlan().add("skeleton.refresh", kind, times=-1)
    with faults.installed(plan):
        report = service.apply_delta(new_db, delta)
    assert plan.fired_kinds("skeleton.refresh")
    assert report.skeletons_dropped >= 1
    assert report.skeletons_refreshed == 0
    assert "refresh_fallback" in _journal_kinds(service)
    # The dropped skeletons force cold rebuilds — still bit-identical.
    batch = service.execute_batch(new_db, cfqs)
    for item in batch.items:
        cold = CFQOptimizer(item.cfq).execute(new_db)
        assert _answer(item.result) == _answer(cold)
    # Faults cleared: the *next* delta migrates skeletons again.
    newer_db, delta2 = new_db.append([list(new_db.transactions[1])])
    report2 = service.apply_delta(newer_db, delta2)
    assert report2.skeletons_refreshed >= 1


# ----------------------------------------------------------------------
# clock (TTL jumps through the fault plan's wrapped clock)
# ----------------------------------------------------------------------
def test_clock_jump_expires_ttl_but_answers_stay_identical(tmp_path):
    clock = FakeClock()
    plan = FaultPlan().add("clock", "clock_jump", jump_seconds=3600.0,
                           after=8)
    jumpy = plan.wrap_clock(clock)
    service = QueryService(cache_dir=str(tmp_path / "cache"), clock=jumpy,
                           ttl_seconds=60.0, disk_backoff_seconds=0.0)
    first = _serve(service, 0.03)
    assert first.cache_info["source"] == "cold"
    # Eventually the jump fires, TTL-expiring everything; whatever tier
    # answers, the answer is the cold answer.
    for _ in range(6):
        _serve(service, 0.03)
    assert plan.fired_kinds("clock") == ["clock_jump"]

"""Unit tests for :mod:`repro.runtime.guard`.

The differential/resume behavior lives in ``test_resume_differential``;
partial-result semantics live in ``test_partial_results``.  This file
covers the guard itself: budgets, cooperative checks, signal routing,
the disabled NULL_GUARD contract, and telemetry.
"""

import os
import signal

import pytest

from repro.errors import ExecutionError, RunInterrupted
from repro.runtime.guard import (
    NULL_GUARD,
    GuardTrip,
    RunGuard,
    resolve_guard,
)


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"deadline_seconds": -1.0},
        {"max_memory_mb": 0},
        {"max_memory_mb": -5},
        {"max_candidates": 0},
        {"check_every": 0},
    ],
)
def test_invalid_budgets_rejected(kwargs):
    with pytest.raises(ExecutionError):
        RunGuard(**kwargs)


def test_unstarted_guard_has_zero_elapsed():
    guard = RunGuard(deadline_seconds=0.0)
    assert guard.elapsed() == 0.0
    assert not guard.started
    # Deadline is measured from start(): an unstarted guard never trips it.
    guard.check("anywhere")


def test_start_is_idempotent():
    guard = RunGuard().start()
    first = guard._started_at
    guard.start()
    assert guard._started_at == first


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
def test_deadline_trips_on_check():
    guard = RunGuard(deadline_seconds=0.0).start()
    with pytest.raises(RunInterrupted) as excinfo:
        guard.check("counting")
    trip = excinfo.value.trip
    assert trip is not None and trip.reason == "deadline"
    assert trip.where == "counting"
    assert guard.trip is trip


def test_tripped_guard_keeps_raising():
    guard = RunGuard(deadline_seconds=0.0).start()
    with pytest.raises(RunInterrupted):
        guard.check()
    # Later checks re-raise even though the deadline condition already
    # fired — a swallowed RunInterrupted must not let work continue.
    with pytest.raises(RunInterrupted):
        guard.check()
    with pytest.raises(RunInterrupted):
        guard.level_completed("S", 3)


def test_tick_only_checks_every_n_units():
    guard = RunGuard(deadline_seconds=0.0, check_every=1000).start()
    # 999 accumulated units: below the threshold, no full check yet.
    guard.tick(999)
    with pytest.raises(RunInterrupted):
        guard.tick(1)  # crosses the threshold -> full check -> deadline


# ----------------------------------------------------------------------
# Memory watermark
# ----------------------------------------------------------------------
def test_memory_watermark_trips_at_level_boundary():
    # Any live Python process is way over a 1 MiB watermark.
    guard = RunGuard(max_memory_mb=1.0).start()
    with pytest.raises(RunInterrupted) as excinfo:
        guard.level_completed("S", 1)
    trip = excinfo.value.trip
    assert trip.reason == "memory"
    assert trip.rss_mb is not None and trip.rss_mb > 1.0


def test_memory_sampling_is_strided_inside_loops():
    guard = RunGuard(max_memory_mb=1.0, memory_sample_every=1000).start()
    # Non-boundary checks below the stride never sample RSS.
    for _ in range(10):
        guard.check("counting")
    with pytest.raises(RunInterrupted):
        guard.check("level")  # boundary checks always sample


def test_generous_watermark_records_peak_without_tripping():
    guard = RunGuard(max_memory_mb=1024 * 1024).start()
    guard.level_completed("S", 1)
    peak = guard.telemetry()["consumed"]["peak_rss_mb"]
    assert peak is not None and peak > 0


# ----------------------------------------------------------------------
# Candidate budget
# ----------------------------------------------------------------------
def test_candidate_budget_trips_before_counting():
    guard = RunGuard(max_candidates=100).start()
    guard.check_candidates(100, "S", 2)  # at the budget: fine
    with pytest.raises(RunInterrupted) as excinfo:
        guard.check_candidates(101, "T", 3)
    trip = excinfo.value.trip
    assert trip.reason == "candidates"
    assert "T" in trip.detail and "101" in trip.detail
    assert trip.where == "candidates T:L3"


# ----------------------------------------------------------------------
# Cancellation and signals
# ----------------------------------------------------------------------
def test_request_cancel_trips_next_check():
    guard = RunGuard().start()
    guard.request_cancel()
    with pytest.raises(RunInterrupted) as excinfo:
        guard.check("loop")
    assert excinfo.value.trip.reason == "cancelled"


def test_first_cancel_reason_wins():
    guard = RunGuard().start()
    guard.request_cancel("sigint", "received SIGINT")
    guard.request_cancel("sigterm", "received SIGTERM")
    with pytest.raises(RunInterrupted) as excinfo:
        guard.check()
    assert excinfo.value.trip.reason == "sigint"


def test_signals_route_sigint_and_restore_handler():
    guard = RunGuard().start()
    before = signal.getsignal(signal.SIGINT)
    with guard.signals():
        assert signal.getsignal(signal.SIGINT) is not before
        os.kill(os.getpid(), signal.SIGINT)
        with pytest.raises(RunInterrupted) as excinfo:
            guard.check("after signal")
        assert excinfo.value.trip.reason == "sigint"
    assert signal.getsignal(signal.SIGINT) is before


def test_level_completed_tracks_deepest_level():
    guard = RunGuard().start()
    guard.level_completed("S", 1)
    guard.level_completed("S", 2)
    guard.level_completed("T", 1)
    assert guard.levels_completed == {"S": 2, "T": 1}
    guard.request_cancel()
    with pytest.raises(RunInterrupted) as excinfo:
        guard.check()
    assert excinfo.value.trip.levels_completed == {"S": 2, "T": 1}


def test_level_completed_is_subclassable_interruption_hook():
    class TripAfterLevels(RunGuard):
        def __init__(self, n):
            super().__init__()
            self.n = n

        def level_completed(self, var, level):
            super().level_completed(var, level)
            self.n -= 1
            if self.n <= 0:
                self.request_cancel("cancelled", "test trip")
                self.check("level")

    guard = TripAfterLevels(2).start()
    guard.level_completed("S", 1)
    with pytest.raises(RunInterrupted):
        guard.level_completed("T", 1)


# ----------------------------------------------------------------------
# Telemetry and GuardTrip rendering
# ----------------------------------------------------------------------
def test_telemetry_shape():
    guard = RunGuard(deadline_seconds=60.0, max_candidates=10_000).start()
    guard.check("x")
    doc = guard.telemetry()
    assert doc["budgets"] == {
        "deadline_seconds": 60.0,
        "max_memory_mb": None,
        "max_candidates": 10_000,
    }
    assert doc["consumed"]["checks"] == 1
    assert doc["consumed"]["elapsed_seconds"] >= 0
    assert doc["trip"] is None


def test_telemetry_includes_trip():
    guard = RunGuard(deadline_seconds=0.0).start()
    with pytest.raises(RunInterrupted):
        guard.check()
    doc = guard.telemetry()
    assert doc["trip"]["reason"] == "deadline"


def test_guard_trip_round_trips_to_dict():
    trip = GuardTrip(
        reason="memory", detail="d", where="w",
        elapsed_seconds=1.23456789, rss_mb=512.0,
        levels_completed={"S": 4},
    )
    doc = trip.as_dict()
    assert doc["reason"] == "memory"
    assert doc["elapsed_seconds"] == pytest.approx(1.234568)
    assert doc["levels_completed"] == {"S": 4}
    assert "memory after 1.23s" in trip.summary()
    assert "S:L4" in trip.summary()


def test_guard_trip_summary_without_levels_or_rss():
    trip = GuardTrip(reason="deadline", detail="d")
    assert "levels completed: none" in trip.summary()
    assert "rss" not in trip.summary()


# ----------------------------------------------------------------------
# NULL_GUARD contract (a RunGuard switched off)
# ----------------------------------------------------------------------
def test_null_guard_is_inert():
    guard = NULL_GUARD
    assert isinstance(guard, RunGuard)
    assert guard.enabled is False
    assert guard.start() is guard
    guard.request_cancel("sigint")
    guard.check("anywhere")
    guard.tick(10**9)
    guard.check_candidates(10**9, "S", 99)
    guard.level_completed("S", 1)
    with guard.signals():
        pass
    assert guard.trip is None
    assert guard.telemetry() == {}
    assert guard.elapsed() == 0.0


def test_resolve_guard():
    assert resolve_guard(None) is NULL_GUARD
    live = RunGuard()
    assert resolve_guard(live) is live

"""Chaos differential harness: degraded, never wrong — then healthy again.

Hypothesis drives one :class:`~repro.serve.QueryService` through random
interleavings of queries (single and batch), dataset churn with
``apply_delta``, TTL clock jumps, and **fault injection at every
registered serving fault site** (disk write/read/replace/remove, journal
append/rotation, skeleton refresh, clock).  After every query event the
served answer — frequent sets with supports, pairs, bound histories —
is compared against a fault-free cold oracle for that exact dataset
content; any deviation fails the property.

Each sequence ends with a **return-to-full-health epilogue**: faults
clear, the breaker cooldown elapses, and the harness asserts the
service serves (and persists) normally again, with the circuit breaker
re-closed and every degradation that happened visible in telemetry.

Every event is ``note()``-d, so a shrunk failure reads as a minimal
chaos schedule that can be replayed as a ``--fault-plan``.
"""

import random
import tempfile
from functools import lru_cache

from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from repro.core.optimizer import CFQOptimizer
from repro.datagen.workloads import quickstart_workload
from repro.db.transactions import TransactionDatabase
from repro.runtime import faults
from repro.runtime.faults import FaultPlan
from repro.serve import QueryService

WORKLOAD = quickstart_workload(n_transactions=120)
MINSUPS = (0.03, 0.06)

#: Every (site, kind) combination the chaos schedule may inject.  One
#: entry per registered serving site — the acceptance criterion is that
#: *every* site is attackable, not a cherry-picked subset.
CHAOS_FAULTS = (
    ("serve.disk.write", "enospc"),
    ("serve.disk.write", "eacces"),
    ("serve.disk.write", "torn"),
    ("serve.disk.read", "eio"),
    ("serve.disk.read", "short"),
    ("serve.disk.read", "corrupt"),
    ("serve.disk.replace", "rename"),
    ("serve.disk.remove", "eio"),
    ("journal.write", "eio"),
    ("journal.rotate", "eio"),
    ("skeleton.refresh", "error"),
    ("skeleton.refresh", "eio"),
    ("clock", "clock_jump"),
)


@lru_cache(maxsize=None)
def _cold_answer_content(transactions, minsup):
    cfq = WORKLOAD.cfq(minsup=minsup)
    db = TransactionDatabase([list(t) for t in transactions])
    result = CFQOptimizer(cfq).execute(db)
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


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


_events = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.sampled_from(MINSUPS),
                  st.sampled_from(["single", "batch"])),
        st.tuples(st.just("inject"),
                  st.sampled_from(range(len(CHAOS_FAULTS))),
                  st.sampled_from([1, 2, -1])),
        st.tuples(st.just("clear-faults")),
        st.tuples(st.just("churn"), st.sampled_from(["append", "delete"]),
                  st.integers(min_value=1, max_value=4),
                  st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("advance"), st.sampled_from([5.0, 61.0])),
        st.tuples(st.just("clear-cache")),
    ),
    min_size=1,
    max_size=8,
)


def _churn(db, op, n, seed):
    rng = random.Random((seed, n, len(db)).__hash__())
    if op == "delete" and len(db) > n + 1:
        return db.delete(rng.sample(range(len(db)), n))
    universe = sorted(db.item_universe() or {1})
    return db.append([
        rng.sample(universe, min(len(universe), rng.randint(1, 4)))
        for _ in range(n)
    ])


@settings(max_examples=10, deadline=None)
@given(events=_events)
# One ENOSPC on a store that its retry absorbs: no disk error, but the
# retry must still leave evidence.
@example(events=[("inject", 0, 1), ("query", 0.03, "single")])
def test_chaos_schedule_never_serves_a_wrong_answer(events):
    clock = FakeClock()
    plan = FaultPlan(seed=11)
    cache_dir = tempfile.mkdtemp(prefix="chaos-cache-")
    with faults.installed(plan):
        service = QueryService(
            cache_dir=cache_dir,
            ttl_seconds=60.0,
            clock=plan.wrap_clock(clock),
            journal_path=tempfile.mktemp(prefix="chaos-journal-"),
            disk_retries=1,
            disk_backoff_seconds=0.0,
            disk_failure_threshold=2,
            disk_cooldown_seconds=30.0,
        )
        db = WORKLOAD.db
        for event in events:
            note(f"event: {event}")
            if event[0] == "query":
                _, minsup, mode = event
                expected = _cold_answer_content(db.transactions, minsup)
                if mode == "single":
                    result = service.execute(db, WORKLOAD.cfq(minsup=minsup))
                    answers = [result]
                else:
                    report = service.execute_batch(
                        db, [WORKLOAD.cfq(minsup=minsup)]
                    )
                    answers = report.results()
                for result in answers:
                    assert result.status == "complete"
                    assert _answer(result) == expected, (
                        "served answer differs from the fault-free cold "
                        f"oracle under schedule {events}"
                    )
            elif event[0] == "inject":
                _, index, times = event
                site, kind = CHAOS_FAULTS[index]
                jump = 120.0 if kind == "clock_jump" else 0.0
                plan.add(site, kind, times=times,
                         after=plan.hits.get(site, 0), jump_seconds=jump)
            elif event[0] == "clear-faults":
                plan.clear_rules()
            elif event[0] == "churn":
                _, op, n, seed = event
                db, delta = _churn(db, op, n, seed)
                service.apply_delta(db, delta)
            elif event[0] == "advance":
                clock.now += event[1]
            elif event[0] == "clear-cache":
                service.clear()

        # ------------------------------------------------------------------
        # Return to full health: faults clear, cooldown passes, the disk
        # tier probes, and the breaker must re-close.
        # ------------------------------------------------------------------
        had_faults = bool(plan.fired)
        plan.clear_rules()
        clock.now += 31.0
        service.clear()  # force the next lookups through the disk tier
        for minsup in MINSUPS:
            expected = _cold_answer_content(db.transactions, minsup)
            result = service.execute(db, WORKLOAD.cfq(minsup=minsup))
            assert _answer(result) == expected
        assert service.disk_breaker.state == "closed", (
            f"breaker stuck {service.disk_breaker.state!r} after faults "
            f"cleared (schedule {events})"
        )
        # Every disk failure left telemetry evidence: a disk error if it
        # outlived its retries, a journaled retry if one recovered it.
        kinds = [e["kind"] for e in service.telemetry.journal.tail()]
        disk_fired = [
            (s, k) for s, k, _ in plan.fired
            if s.startswith("serve.disk.") and k not in ("short", "corrupt")
        ]
        if disk_fired:
            assert service.stats.disk_errors >= 1 or "disk_retry" in kinds
        quarantine_fired = [
            (s, k) for s, k, _ in plan.fired
            if s == "serve.disk.read" and k in ("short", "corrupt")
        ]
        if quarantine_fired:
            assert service.stats.quarantined >= 1 or "result_miss" in kinds
        if had_faults:
            note(f"faults fired: {plan.fired}")

"""Concurrency proofs for the query server's sharing machinery.

Three load-bearing properties, each driven with barrier-synchronised
threads so the interleavings are *deterministic*, not hopeful:

* **single-flight executes once** — N identical concurrent queries run
  the engine exactly once (spy-counted), and the other N-1 responses are
  byte-identical copies of the leader's with ``serving.dedup`` set;
* **coalesced batches are answer-invisible** — N *distinct* queries
  admitted in one window dispatch as one shared-scan batch whose every
  answer is bit-identical to that query's cold single-threaded run;
* **guard trips propagate without poisoning** — a leader cut short by a
  tenant budget hands ``status == "partial"`` to every waiter, and the
  next request re-executes fresh (nothing partial was cached).

Every request with the same text, minsup and options on one dataset
version reads one memoized ``CFQ``; a burst of them leaves it unchanged.
"""

import json
import sys
import threading
import time

import pytest

from repro.core.optimizer import CFQOptimizer
from repro.datagen.workloads import quickstart_workload, refinement_queries
from repro.serve import (
    QueryServer,
    QueryService,
    TenantProfile,
    TenantRegistry,
    answer_document,
    query_fingerprint,
    result_key,
)
import repro.serve.server as server_module
import repro.serve.service as service_module
from repro.serve.replay import query_text

WORKLOAD = quickstart_workload(n_transactions=120)


@pytest.fixture
def spy(monkeypatch):
    """Count (and optionally gate) engine executions inside the service.

    ``spy.calls`` collects one entry per real ``CFQOptimizer.execute``;
    ``spy.gate`` (when armed) blocks every execution until released, so
    a test can pile joiners onto a leader mid-flight.
    """

    class Spy:
        def __init__(self):
            self.calls = []
            self.gate = None
            self._lock = threading.Lock()

    spy = Spy()
    real_execute = CFQOptimizer.execute

    class CountingOptimizer(CFQOptimizer):
        def execute(self, db, **kwargs):
            with spy._lock:
                spy.calls.append(str(self.cfq))
            if spy.gate is not None and not spy.gate.wait(10):
                raise AssertionError("spy gate never released")
            return real_execute(self, db, **kwargs)

    monkeypatch.setattr(service_module, "CFQOptimizer", CountingOptimizer)
    return spy


def _server(**overrides) -> QueryServer:
    options = {
        "window_seconds": 0.0,
        "queue_limit": 64,
    }
    options.update(overrides)
    return QueryServer(
        QueryService(telemetry=True),
        WORKLOAD.db,
        WORKLOAD.domains,
        **options,
    )


def _request(cfq, tenant="t"):
    return {"query": query_text(cfq), "tenant": tenant}


def _flight_key(core: QueryServer, cfq) -> str:
    defaulted = core.service._defaulted({})
    return result_key(cfq, core.db, defaulted)


def _run_threads(n, target):
    barrier = threading.Barrier(n)
    results = [None] * n
    errors = []

    def runner(i):
        try:
            barrier.wait(timeout=10)
            results[i] = target(i)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors
    assert all(result is not None for result in results)
    return results


# ----------------------------------------------------------------------
# Single-flight: one execution per fingerprint
# ----------------------------------------------------------------------
def test_identical_concurrent_queries_execute_once(spy):
    core = _server()
    cfq = WORKLOAD.cfq(minsup=0.05)
    key = _flight_key(core, cfq)
    n = 6

    # Hold the leader's execution open until all five joiners are
    # counted on its flight — the dedup is then forced, not lucky.
    spy.gate = threading.Event()
    releaser_error = []

    def release_when_joined():
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if core.flights.waiters(key) >= n - 1:
                spy.gate.set()
                return
            time.sleep(0.001)
        releaser_error.append("joiners never arrived")
        spy.gate.set()

    releaser = threading.Thread(target=release_when_joined)
    releaser.start()
    responses = _run_threads(n, lambda i: core.handle_query(_request(cfq)))
    releaser.join()
    assert not releaser_error, releaser_error

    assert len(spy.calls) == 1, spy.calls
    statuses = [status for status, _ in responses]
    assert statuses == [200] * n
    answers = [body["answer"] for _, body in responses]
    assert all(answer == answers[0] for answer in answers)
    dedup_flags = sorted(body["serving"]["dedup"] for _, body in responses)
    assert dedup_flags == [False] + [True] * (n - 1)
    # The flight table drained: nothing in flight, nothing leaked.
    assert core.flights.waiters(key) == 0

    telemetry = core.service.telemetry.snapshot(core.service.stats)
    counters = telemetry["metrics"]["counters"]
    assert counters.get("flight_dedup_hits", 0) >= n - 1


def test_post_flight_request_is_served_from_cache_not_a_new_flight(
    spy, monkeypatch
):
    core = _server()
    cfq = WORKLOAD.cfq(minsup=0.05)
    status, first = core.handle_query(_request(cfq))
    assert status == 200
    executed = len(spy.calls)
    # The repeat is answered from the request memo and the document
    # cache: nothing is parsed or hashed again.
    called = []
    for name in ("parse_cfq", "result_key", "query_fingerprint"):
        monkeypatch.setattr(
            server_module, name, lambda *a, name=name, **k: called.append(name)
        )
    status, second = core.handle_query(_request(cfq))
    assert called == []
    assert status == 200
    assert len(spy.calls) == executed  # warm path, no re-execution
    assert second["serving"]["source"] == "doc-cache"
    assert second["serving"]["result_key"] == first["serving"]["result_key"]
    assert second["answer"] == first["answer"]
    assert second["serving"]["dedup"] is False


def test_memoized_query_is_unchanged_by_a_concurrent_burst():
    """Threads outnumbering the cores, a short switch interval: budget-
    capped requests (partials are never cached, so each one executes)
    and unguarded ones share one memoized CFQ, which keeps its text,
    its fingerprint and its key."""
    tenants = TenantRegistry(
        {
            "capped": TenantProfile(
                name="capped", rate=1e6, burst=1e6, max_candidates=1
            ),
            "roomy": TenantProfile(name="roomy", rate=1e6, burst=1e6),
        }
    )
    core = _server(tenants=tenants)
    cfq = WORKLOAD.cfq(minsup=0.05)
    status, __ = core.handle_query(_request(cfq, tenant="roomy"))
    assert status == 200
    ((__, entry),) = core._requests.items()
    memoized, key, fingerprint = entry.value
    assert key == _flight_key(core, cfq)
    assert fingerprint == query_fingerprint(cfq, WORKLOAD.db)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        responses = _run_threads(
            8,
            lambda i: [
                core.handle_query(
                    _request(cfq, tenant=("capped", "roomy")[(i + j) % 2])
                )
                for j in range(4)
            ],
        )
    finally:
        sys.setswitchinterval(interval)

    for status, body in (r for batch in responses for r in batch):
        assert status == 200
        assert body["serving"]["result_key"] == key
        assert body["serving"]["query_fingerprint"] == fingerprint
    assert [entry.value[0] for __, entry in core._requests.items()] == [memoized]
    assert str(memoized) == str(cfq)
    assert query_fingerprint(memoized, WORKLOAD.db) == fingerprint
    assert _flight_key(core, memoized) == key


def test_skeleton_served_answer_is_not_stored_as_a_result_artifact():
    """A skeleton-served answer skipped the database passes, so it is not
    stored as a result artifact (those carry a cold run's counters): the
    repeat comes from the document cache, and the service keeps serving
    the query from the skeleton."""
    core = _server()
    cfq = WORKLOAD.cfq(minsup=0.05)
    core.service.prepare(WORKLOAD.db, [cfq])
    status, first = core.handle_query(_request(cfq))
    assert status == 200
    assert first["serving"]["source"] == "skeleton"
    assert core.service.stats.stores == 0
    status, again = core.handle_query(_request(cfq))
    assert status == 200
    assert again["serving"]["source"] == "doc-cache"
    assert again["answer"] == first["answer"]
    served = core.service.execute(WORKLOAD.db, cfq)
    assert served.cache_info["source"] == "skeleton"


# ----------------------------------------------------------------------
# Coalescing: shared-scan batches, bit-identical to cold runs
# ----------------------------------------------------------------------
def test_coalesced_batch_answers_are_bit_identical_to_cold_runs():
    session = refinement_queries(WORKLOAD, steps=3)
    n = len(session)
    core = _server(window_seconds=5.0, max_width=n)

    responses = _run_threads(
        n, lambda i: core.handle_query(_request(session[i]))
    )

    widths = [body["serving"]["coalesced_width"] for _, body in responses]
    assert widths == [n] * n  # the barrier packed one full group
    for (status, body), cfq in zip(responses, session):
        assert status == 200
        cold = CFQOptimizer(cfq).execute(WORKLOAD.db)
        oracle = json.loads(json.dumps(answer_document(cold)))
        assert body["answer"] == oracle

    telemetry = core.service.telemetry.snapshot(core.service.stats)
    counters = telemetry["metrics"]["counters"]
    assert counters.get("coalesced_batches", 0) == 1
    journal_kinds = [
        event["kind"] for event in core.service.telemetry.journal.tail(50)
    ]
    assert "server_coalesce" in journal_kinds


def test_singleton_group_falls_back_to_single_execution(spy):
    core = _server(window_seconds=0.005, max_width=8)
    cfq = WORKLOAD.cfq(minsup=0.05)
    status, body = core.handle_query(_request(cfq))
    assert status == 200
    assert body["serving"]["coalesced_width"] == 1
    assert body["serving"]["path"] == "single"
    assert len(spy.calls) == 1


# ----------------------------------------------------------------------
# Guard trips: propagate to every waiter, poison nothing
# ----------------------------------------------------------------------
def test_guard_tripped_leader_propagates_partial_to_all_waiters(spy):
    tenants = TenantRegistry(
        {
            "capped": TenantProfile(
                name="capped", rate=1000, burst=1000, max_candidates=1
            ),
            "roomy": TenantProfile(name="roomy", rate=1000, burst=1000),
        }
    )
    core = _server(tenants=tenants)
    cfq = WORKLOAD.cfq(minsup=0.05)
    key = _flight_key(core, cfq)
    n = 4

    spy.gate = threading.Event()

    def release_when_joined():
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if core.flights.waiters(key) >= n - 1:
                break
            time.sleep(0.001)
        spy.gate.set()

    releaser = threading.Thread(target=release_when_joined)
    releaser.start()
    # Every thread asks as the budget-capped tenant; the leader's guard
    # trips and all waiters share the partial.
    responses = _run_threads(
        n, lambda i: core.handle_query(_request(cfq, tenant="capped"))
    )
    releaser.join()

    assert len(spy.calls) == 1
    for status, body in responses:
        assert status == 200
        assert body["answer"]["status"] == "partial"
        assert body["serving"]["interruption"]["reason"] == "candidates"
        assert "pairs" not in body["answer"]  # the pair phase never ran

    # Nothing poisoned: the partial reached no cache tier, so a roomy
    # tenant's next identical query re-executes and completes.
    spy.gate = None
    status, body = core.handle_query(_request(cfq, tenant="roomy"))
    assert status == 200
    assert len(spy.calls) == 2  # fresh execution, not a cache hit
    assert body["answer"]["status"] == "complete"
    cold = CFQOptimizer(cfq).execute(WORKLOAD.db)
    assert body["answer"] == json.loads(json.dumps(answer_document(cold)))


def test_leader_exception_reaches_every_waiter_as_500(spy, monkeypatch):
    core = _server()
    cfq = WORKLOAD.cfq(minsup=0.05)
    key = _flight_key(core, cfq)
    n = 3

    def explode(*args, **kwargs):
        if spy.gate is not None and not spy.gate.wait(10):
            raise AssertionError("gate never released")
        raise RuntimeError("engine crashed mid-run")

    monkeypatch.setattr(core.service, "execute", explode)
    spy.gate = threading.Event()

    def release_when_joined():
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if core.flights.waiters(key) >= n - 1:
                break
            time.sleep(0.001)
        spy.gate.set()

    releaser = threading.Thread(target=release_when_joined)
    releaser.start()
    responses = _run_threads(n, lambda i: core.handle_query(_request(cfq)))
    releaser.join()

    for status, body in responses:
        assert status == 500
        assert body["code"] == "internal"
    # The failed flight left the table; a retry opens a fresh one.
    assert core.flights.waiters(key) == 0
    assert core.queue_depth == 0

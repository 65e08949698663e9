"""Admission control: token buckets, tenant budgets, shedding, errors.

Unit-level pins for :mod:`repro.serve.admission` plus the server-side
admission pipeline ordering (tenant → rate limit → bounded queue →
parse), all on injected clocks so every refill boundary is exact.
"""

import json
import threading

import pytest

from repro.core.cfq_parser import parse_cfq
from repro.core.optimizer import CFQOptimizer
from repro.errors import ExecutionError
from repro.datagen.workloads import quickstart_workload
from repro.runtime.faults import FaultPlan
from repro.serve import (
    ERROR_SCHEMA,
    QueryServer,
    QueryService,
    TenantProfile,
    TenantRegistry,
    TokenBucket,
    answer_document,
    error_body,
    validate_error_body,
)

WORKLOAD = quickstart_workload(n_transactions=120)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# TokenBucket refill boundaries
# ----------------------------------------------------------------------
def test_bucket_starts_full_and_spends_to_empty():
    clock = FakeClock()
    bucket = TokenBucket(rate=1.0, burst=3, clock=clock)
    assert [bucket.allow() for _ in range(4)] == [True, True, True, False]
    assert bucket.retry_after() == pytest.approx(1.0)


def test_bucket_refills_continuously_at_rate():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
    assert bucket.allow() and bucket.allow()
    assert not bucket.allow()
    clock.now += 0.499  # 0.998 tokens: one short of a whole token
    assert not bucket.allow()
    clock.now += 0.002  # crosses 1.0
    assert bucket.allow()
    assert not bucket.allow()


def test_bucket_never_overfills_past_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
    clock.now += 1000.0
    assert bucket.tokens == pytest.approx(2.0)
    assert [bucket.allow() for _ in range(3)] == [True, True, False]


def test_zero_burst_bucket_never_admits():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=0, clock=clock)
    assert not bucket.allow()
    clock.now += 1e6
    assert not bucket.allow()
    # A cost above capacity can never be satisfied: no retry hint.
    assert bucket.retry_after() is None


def test_zero_rate_bucket_is_burst_only():
    clock = FakeClock()
    bucket = TokenBucket(rate=0.0, burst=1, clock=clock)
    assert bucket.allow()
    clock.now += 1e6
    assert not bucket.allow()
    assert bucket.retry_after() is None  # suspended tenant: never retry


def test_negative_parameters_rejected():
    with pytest.raises(ExecutionError):
        TokenBucket(rate=-1.0, burst=1)
    with pytest.raises(ExecutionError):
        TokenBucket(rate=1.0, burst=-1)


def test_backwards_clock_keeps_tokens_and_never_double_credits():
    clock = FakeClock(now=100.0)
    bucket = TokenBucket(rate=1.0, burst=5, clock=clock)
    assert bucket.allow()  # 4 left
    clock.now = 40.0  # clock went backwards 60s
    assert bucket.tokens == pytest.approx(4.0)  # kept, not un-refilled
    # The anchor moved to 40: recovering to 100 must NOT credit 60s of
    # refill twice — only forward motion from the new anchor counts.
    clock.now = 41.0
    assert bucket.tokens == pytest.approx(5.0)


def test_fault_plan_clock_jump_refills_deterministically():
    clock = FakeClock()
    # Reads: 1 = constructor anchor, 2-3 = the draining allows, 4 = the
    # jump (after=3 skips the first three), all deterministic by plan.
    plan = FaultPlan().add("clock", "clock_jump", times=1, after=3,
                           jump_seconds=60.0)
    bucket = TokenBucket(rate=1.0, burst=2, clock=plan.wrap_clock(clock))
    assert bucket.allow() and bucket.allow()  # drains the burst
    # The jump lands on the next refill: back to burst, spends down.
    assert bucket.allow() and bucket.allow()
    assert not bucket.allow()


def test_bucket_allow_is_atomic_under_threads():
    clock = FakeClock()
    bucket = TokenBucket(rate=0.0, burst=200, clock=clock)
    admitted = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        admitted.append(sum(bucket.allow() for _ in range(100)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sum(admitted) == 200  # exactly burst, no over-admission


# ----------------------------------------------------------------------
# TenantProfile → RunGuard budgets
# ----------------------------------------------------------------------
def test_profile_budgets_map_onto_runguard():
    profile = TenantProfile(
        name="t", deadline_seconds=5.0, max_memory_mb=64.0,
        max_candidates=1000,
    )
    guard = profile.guard()
    assert guard is not None
    assert guard.deadline_seconds == 5.0
    assert guard.max_memory_mb == 64.0
    assert guard.max_candidates == 1000
    # A fresh guard per call: budgets never leak between runs.
    assert profile.guard() is not guard


def test_budgetless_profile_runs_unguarded():
    assert TenantProfile(name="t").guard() is None


def test_profile_from_dict_rejects_unknown_and_invalid_keys():
    with pytest.raises(ExecutionError):
        TenantProfile.from_dict("t", {"rate": 1, "qps": 5})
    with pytest.raises(ExecutionError):  # invalid budget fails at load
        TenantProfile.from_dict("t", {"deadline_seconds": -1})
    with pytest.raises(ExecutionError):
        TenantProfile.from_dict("t", {"rate": -3})


def test_registry_round_trips_tenants_json(tmp_path):
    path = tmp_path / "tenants.json"
    path.write_text(json.dumps({
        "tenants": {
            "alice": {"rate": 5, "burst": 10, "deadline_seconds": 2},
            "default": {"rate": 1, "burst": 1},
        }
    }))
    registry = TenantRegistry.load(str(path), clock=FakeClock())
    assert registry.resolve("alice").deadline_seconds == 2
    assert registry.resolve("stranger").name == "default"
    # Unknown tenants share ONE default bucket: minting names must not
    # mint rate-limit capacity.
    assert registry.bucket("stranger") is registry.bucket("other-stranger")
    assert registry.bucket("alice") is not registry.bucket("stranger")


def test_registry_without_default_rejects_unknown_tenants():
    registry = TenantRegistry({"a": TenantProfile(name="a")})
    assert registry.resolve("b") is None
    assert registry.bucket("b") is None


# ----------------------------------------------------------------------
# Error bodies
# ----------------------------------------------------------------------
def test_error_body_round_trips_through_json():
    body = error_body(429, "rate_limit", "slow down", tenant="t",
                      retry_after_seconds=1.25)
    parsed = json.loads(json.dumps(body))
    validate_error_body(parsed)
    assert parsed["schema"] == ERROR_SCHEMA
    assert parsed["status"] == 429
    assert parsed["retry_after_seconds"] == 1.25


def test_error_body_rejects_unknown_codes():
    with pytest.raises(ExecutionError):
        error_body(500, "kaboom", "nope")


@pytest.mark.parametrize("mutation", [
    {"schema": "other"},
    {"version": 99},
    {"status": 200},
    {"code": "kaboom"},
    {"message": 7},
    {"retry_after_seconds": -1},
])
def test_validate_error_body_rejects_malformed(mutation):
    body = error_body(503, "queue_full", "busy")
    body.update(mutation)
    with pytest.raises(ExecutionError):
        validate_error_body(body)


# ----------------------------------------------------------------------
# The server-side admission pipeline
# ----------------------------------------------------------------------
def _core(registry=None, **overrides):
    options = {"window_seconds": 0.0}
    options.update(overrides)
    return QueryServer(
        QueryService(telemetry=True),
        WORKLOAD.db,
        WORKLOAD.domains,
        tenants=registry,
        **options,
    )


def _query(tenant="t"):
    return {"query": str(WORKLOAD.cfq()), "minsup": 0.05, "tenant": tenant}


def test_rate_limited_request_gets_429_with_retry_hint():
    clock = FakeClock()
    registry = TenantRegistry(
        {"t": TenantProfile(name="t", rate=1.0, burst=1)}, clock=clock
    )
    core = _core(registry, clock=clock)
    status, _ = core.handle_query(_query())
    assert status == 200
    status, body = core.handle_query(_query())
    assert status == 429
    validate_error_body(body)
    assert body["code"] == "rate_limit"
    assert body["retry_after_seconds"] == pytest.approx(1.0)
    clock.now += 1.0  # the hint was honest: waiting it out re-admits
    status, _ = core.handle_query(_query())
    assert status == 200
    rejections = core.service.telemetry.metrics.counter(
        "server_rejections", tenant="t", reason="rate_limit"
    )
    assert rejections == 1


def test_unknown_tenant_gets_403():
    registry = TenantRegistry({"a": TenantProfile(name="a")})
    core = _core(registry)
    status, body = core.handle_query(_query(tenant="b"))
    assert status == 403
    validate_error_body(body)
    assert body["code"] == "unknown_tenant"


def test_full_queue_sheds_with_503_before_any_parse_work():
    core = _core(queue_limit=1)
    release = threading.Event()
    entered = threading.Event()

    def slow_execute(*args, **kwargs):
        entered.set()
        if not release.wait(10):
            raise AssertionError("never released")
        raise RuntimeError("not reached in this test")

    core.service.execute = slow_execute
    holder_result = {}

    def holder():
        holder_result["response"] = core.handle_query(_query())

    thread = threading.Thread(target=holder)
    thread.start()
    assert entered.wait(10)
    # Queue slot is held by the in-flight query; next arrival is shed —
    # even a *malformed* one is shed before parsing spends any work.
    status, body = core.handle_query({"query": "((garbage", "tenant": "t"})
    assert status == 503
    validate_error_body(body)
    assert body["code"] == "queue_full"
    sheds = core.service.telemetry.metrics.counter("server_sheds", tenant="t")
    assert sheds == 1
    release.set()
    thread.join(timeout=10)
    assert holder_result["response"][0] == 500  # the gated run's failure
    # Slot released: admission works again (400 now — it parses).
    status, body = core.handle_query({"query": "((garbage", "tenant": "t"})
    assert status == 400
    assert body["code"] == "bad_request"


@pytest.mark.parametrize("payload,fragment", [
    ("not a dict", "JSON object"),
    ({"tenant": "t"}, "query"),
    ({"query": 7, "tenant": "t"}, "query"),
    ({"query": "{(S) | freq(S)}", "minsup": 2.0, "tenant": "t"}, "minsup"),
    ({"query": "{(S) | freq(S)}", "tenant": "t", "extra": 1}, "unknown"),
    ({"query": "{(S) | freq(S)}", "tenant": "t",
      "options": {"bogus": True}}, "bogus"),
    ({"query": "SELECT *", "tenant": "t"}, ""),
    ({"query": "{(S) | freq(S)}", "tenant": "t",
      "options": {"dovetail": "no"}}, "'dovetail' must be true or false"),
    ({"query": "{(S) | freq(S)}", "tenant": "t",
      "options": {"use_jmax": 1}}, "'use_jmax' must be true or false"),
    ({"query": "{(S) | freq(S)}", "tenant": "t",
      "options": {"reduction_rounds": True}}, "'reduction_rounds' must be"),
    ({"query": "{(S) | freq(S)}", "tenant": "t",
      "options": {"reduction_rounds": 0}}, "'reduction_rounds' must be"),
    ({"query": "{(S) | freq(S)}", "tenant": "t",
      "options": {"reduction_rounds": 2.0}}, "'reduction_rounds' must be"),
    ({"query": "{(S) | freq(S)}", "tenant": "t", "options": []}, "object"),
    ({"query": "{(S) | freq(S)}", "tenant": "t", "options": 0}, "object"),
    ({"query": "{(S) | freq(S)}", "tenant": "t", "options": ""}, "object"),
    ({"query": "{(S) | freq(S)}", "tenant": "t", "options": False}, "object"),
    ({"query": "{(S) | freq(S)}", "minsup": True, "tenant": "t"}, "minsup"),
])
def test_malformed_requests_get_schemad_400s(payload, fragment):
    core = _core()
    status, body = core.handle_query(payload)
    assert status == 400
    validate_error_body(json.loads(json.dumps(body)))
    assert fragment in body["message"]


def test_null_option_runs_the_default_its_key_names():
    """``null`` is keyed as the option's default, so it must also run as
    the default: the document it stores is what a plain request for the
    same key is served, and that must be a cold default run's answer.

    The parsed-request memo is keyed on the same defaulted options:
    absent and ``null`` share one entry, and a request whose options
    change the run gets an entry, a key and an answer of its own."""
    workload = quickstart_workload(n_transactions=300, seed=7)
    core = QueryServer(
        QueryService(), workload.db, workload.domains, window_seconds=0.0
    )
    text = "{(S, T) | sum(S.Price) <= sum(T.Price)}"
    request = {"query": text, "minsup": 0.05, "tenant": "t"}
    status, first = core.handle_query(
        dict(request, options={"dovetail": None, "reduction_rounds": None})
    )
    assert status == 200
    status, again = core.handle_query(request)
    assert status == 200
    assert again["serving"]["source"] == "doc-cache"
    assert len(core._requests) == 1
    cfq = parse_cfq(text, workload.domains, default_minsup=0.05)

    def cold_run(**options):
        result = CFQOptimizer(cfq).execute(workload.db, **options)
        return json.loads(json.dumps(answer_document(result)))

    cold = cold_run()
    assert first["answer"] == cold
    assert again["answer"] == cold
    assert cold["counters"]["sets_counted"] == 2682

    status, no_dovetail = core.handle_query(
        dict(request, options={"dovetail": False})
    )
    assert status == 200
    assert no_dovetail["serving"]["source"] != "doc-cache"
    key = first["serving"]["result_key"]
    assert no_dovetail["serving"]["result_key"] != key
    assert no_dovetail["answer"] == cold_run(dovetail=False)
    assert no_dovetail["answer"]["counters"]["sets_counted"] == 2676
    assert len(core._requests) == 2

    status, no_jmax = core.handle_query(
        dict(request, options={"use_jmax": False})
    )
    assert status == 200
    assert no_jmax["serving"]["source"] != "doc-cache"
    assert no_jmax["answer"] == cold_run(use_jmax=False)
    assert no_jmax["answer"]["counters"] != cold["counters"]
    assert len(core._requests) == 3


def test_queue_depth_gauge_tracks_admissions():
    core = _core()
    status, _ = core.handle_query(_query())
    assert status == 200
    assert core.queue_depth == 0
    assert core.service.telemetry.metrics.gauge("server_queue_depth") == 0

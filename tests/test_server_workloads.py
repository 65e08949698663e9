"""Randomized server workloads: wrong or stale answers never escape.

Hypothesis drives one :class:`~repro.serve.server.QueryServer` core
(the HTTP-agnostic layer — exactly what every worker thread runs)
through random event interleavings: queries from tenants with very
different admission profiles, with engine options absent, null,
well-typed or ill-typed, repeats of the last query's text under fresh
options (what a memo keyed on the text alone would confuse), live
dataset churn migrated with ``apply_delta``, fake-clock advances past
the cache TTL, a fault plan injecting skeleton-refresh failures and a
clock jump mid-run.

The property: every ``200`` response carrying a *complete* answer is
bit-identical to a cold single-threaded run against the dataset version
that was live when the request was admitted, with the request's
defaulted options — regardless of which cache tier, flight, or fallback
produced it.  Everything else must be an *honest* degradation: a
schema-valid 4xx rejection (400 only for an ill-typed field, 429 only
for the rate-limited tenant), or a partial answer that says so (and
that never poisons what an unguarded tenant sees next).  A shrunk
failure reads as a minimal event log via ``note()``.
"""

import json
import random
from functools import lru_cache

import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from repro.core.optimizer import CFQOptimizer
from repro.datagen.workloads import quickstart_workload
from repro.db.transactions import TransactionDatabase
from repro.runtime import faults
from repro.runtime.faults import FaultPlan
from repro.serve import (
    QueryServer,
    QueryService,
    TenantProfile,
    TenantRegistry,
    answer_document,
    validate_error_body,
)
from repro.serve.replay import query_text

WORKLOAD = quickstart_workload(n_transactions=120)

MINSUPS = (0.03, 0.06)
CONSTRAINT_SETS = (
    tuple(WORKLOAD.constraints),
    tuple(WORKLOAD.constraints[:2]),
    # J^k_max bounds this one, so ``use_jmax`` changes its counters: a
    # run whose options differ from its key's cannot match the oracle.
    (WORKLOAD.constraints[0], "sum(S.Price) <= sum(T.Price)"),
)

#: ``capped`` trips its candidate budget on anything non-trivial;
#: ``bob`` is two requests of burst with no refill; ``alice`` and the
#: ``default`` profile (serving strangers) are unconstrained.  Partials
#: and 429s are *expected* outcomes for some tenants — what the
#: property forbids is those outcomes leaking to the tenants that did
#: not earn them.
TENANTS = ("alice", "bob", "stranger", "capped")
UNGUARDED = {"alice", "stranger"}

#: Extra request fields: engine options absent, null (the default) or
#: well-typed, then ill-typed values, which must be refused with a 400.
#: ``use_jmax: false`` is the one value that changes an answer document
#: here (constraint set 2's, at both minsups).
WELL_TYPED = (
    {},
    {"options": None},
    {"options": {"dovetail": None}},
    {"options": {"dovetail": False}},
    {"options": {"use_jmax": False}},
    {"options": {"use_jmax": None, "reduction_rounds": 2}},
)
ILL_TYPED = (
    {"options": {"dovetail": "no"}},
    {"options": {"reduction_rounds": 0}},
    {"options": {"use_reduction": 1}},
    {"options": []},
    {"options": 0},
    {"options": ""},
    {"options": False},
    {"minsup": True},
)
FIELDS = WELL_TYPED + ILL_TYPED
ENGINE_DEFAULTS = {
    "dovetail": True,
    "use_reduction": True,
    "use_jmax": True,
    "reduction_rounds": 1,
}


def _defaulted(options):
    """The engine options a request runs with: null means the default."""
    run = dict(ENGINE_DEFAULTS)
    run.update({k: v for k, v in (options or {}).items() if v is not None})
    return tuple(sorted(run.items()))


def _registry(clock):
    return TenantRegistry(
        {
            "alice": TenantProfile(name="alice", rate=1000.0, burst=1000.0),
            "bob": TenantProfile(name="bob", rate=0.0, burst=2.0),
            "capped": TenantProfile(
                name="capped", rate=1000.0, burst=1000.0, max_candidates=1
            ),
        },
        default=TenantProfile(name="default", rate=1000.0, burst=1000.0),
        clock=clock,
    )


@lru_cache(maxsize=None)
def _cold_oracle(transactions, minsup, c_index, options):
    """JSON-normalized cold answer keyed by dataset *content* and the
    defaulted engine options."""
    cfq = WORKLOAD.cfq(
        constraints=list(CONSTRAINT_SETS[c_index]), minsup=minsup
    )
    db = TransactionDatabase([list(t) for t in transactions])
    result = CFQOptimizer(cfq).execute(db, **dict(options))
    return json.loads(json.dumps(answer_document(result)))


def _churn_payload(db, op, n, seed):
    rng = random.Random((seed, n, len(db)).__hash__())
    if op == "delete" and len(db) > n:
        return db.delete(rng.sample(range(len(db)), n))
    universe = sorted(db.item_universe() or {1})
    return db.append([
        tuple(sorted(rng.sample(universe, min(4, len(universe)))))
        for _ in range(n)
    ])


_query_events = st.tuples(
    st.just("query"),
    st.sampled_from(TENANTS),
    st.sampled_from(MINSUPS),
    st.sampled_from(range(len(CONSTRAINT_SETS))),
    st.sampled_from(FIELDS),
)
# The last query's text again, from a fresh tenant with fresh options:
# only well-typed ones, since an ill-typed request never reaches a cache.
_requery_events = st.tuples(
    st.just("requery"),
    st.sampled_from(TENANTS),
    st.sampled_from(WELL_TYPED),
)
_churn_events = st.tuples(
    st.just("churn"),
    st.sampled_from(["append", "delete"]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
)
_other_events = st.one_of(
    st.tuples(st.just("advance"), st.sampled_from([5.0, 61.0])),
    st.tuples(st.just("clear")),
)
_events = st.lists(
    st.one_of(_query_events, _requery_events, _churn_events, _other_events),
    min_size=1,
    max_size=8,
)


#: The same text asked under options that change its answer: random
#: draws reach this in about one example in a hundred, so it always runs.
OPTION_MIX_UP = [
    ("query", "alice", 0.03, 2, {}),
    ("requery", "stranger", {"options": {"use_jmax": False}}),
]


@settings(max_examples=10, deadline=None)
@given(events=_events, fault_seed=st.integers(0, 3))
@example(events=OPTION_MIX_UP, fault_seed=0)
def test_random_server_workload_serves_no_wrong_answer(events, fault_seed):
    _serve_workload(events, fault_seed)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(events=_events, fault_seed=st.integers(0, 3))
def test_random_server_workload_serves_no_wrong_answer_at_200_examples(
    events, fault_seed
):
    _serve_workload(events, fault_seed)


def _serve_workload(events, fault_seed):
    class FakeClock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = FakeClock()
    # Deterministic chaos underneath the whole run: one skeleton
    # refresh fails mid-churn (the service must fall back, not serve
    # junk), and one clock read jumps past the TTL (expiring caches at
    # a moment no event chose).
    plan = (
        FaultPlan(seed=fault_seed)
        .add("skeleton.refresh", "error", times=1, after=1)
        .add("clock", "clock_jump", times=1, after=20, jump_seconds=120.0)
    )
    wrapped_clock = plan.wrap_clock(clock)
    service = QueryService(
        max_entries=3, max_skeletons=2, ttl_seconds=60,
        clock=wrapped_clock, telemetry=True,
    )
    core = QueryServer(
        service,
        WORKLOAD.db,
        WORKLOAD.domains,
        tenants=_registry(wrapped_clock),
        window_seconds=0.0,
        doc_cache_entries=2,  # tiny: doc-cache eviction happens in-run
        clock=wrapped_clock,
    )
    live_db = WORKLOAD.db
    last_query = None  # (minsup, constraint set) of the last query event

    with faults.installed(plan):
        for event in events:
            kind = event[0]
            if kind == "churn":
                _, op, n, seed = event
                live_db, delta = _churn_payload(live_db, op, n, seed)
                report = core.apply_delta(live_db, delta)
                note(f"churn {op} n={n} seed={seed} -> {len(live_db)} txns "
                     f"(refreshed={report.skeletons_refreshed})")
                assert core.db is live_db
            elif kind in ("query", "requery"):
                if kind == "query":
                    _, tenant, minsup, c_index, fields = event
                    last_query = (minsup, c_index)
                elif last_query is None:
                    continue
                else:
                    _, tenant, fields = event
                    minsup, c_index = last_query
                cfq = WORKLOAD.cfq(
                    constraints=list(CONSTRAINT_SETS[c_index]), minsup=minsup
                )
                request = dict(fields, query=query_text(cfq), tenant=tenant)
                status, body = core.handle_query(request)
                if status != 200:
                    validate_error_body(json.loads(json.dumps(body)))
                    note(f"{kind} {tenant} minsup={minsup} c={c_index} "
                         f"fields={fields} -> {status} {body['code']}")
                    # Single-threaded driving can never fill the queue,
                    # and every tenant name resolves to a profile:
                    # rejection here means rate limiting or an
                    # ill-typed field, nothing else.
                    if status == 429:
                        assert body["code"] == "rate_limit"
                        assert tenant == "bob"
                    else:
                        assert status == 400 and body["code"] == "bad_request"
                        assert fields in ILL_TYPED
                    continue
                assert fields not in ILL_TYPED
                answer = body["answer"]
                serving = body["serving"]
                note(f"{kind} {tenant} minsup={minsup} c={c_index} "
                     f"fields={fields} -> 200 "
                     f"{answer['status']} source={serving['source']}")
                if answer["status"] == "partial":
                    # Honest degradation: self-identified, attributed,
                    # truncated — and only for the budget-capped tenant.
                    assert tenant == "capped"
                    assert serving.get("interruption") is not None
                    assert "pairs" not in answer
                    continue
                assert answer["status"] == "complete"
                oracle = _cold_oracle(
                    live_db.transactions, minsup, c_index,
                    _defaulted(fields.get("options")),
                )
                assert answer == oracle, (tenant, minsup, c_index, serving)
                if tenant in UNGUARDED:
                    # No guard, so nothing may have truncated it — a
                    # partial here means a poisoned cache or flight.
                    assert serving.get("interruption") is None
            elif kind == "advance":
                clock.now += event[1]
                note(f"advance +{event[1]}s (now {clock.now})")
            else:  # clear
                removed = service.clear()
                note(f"clear removed={removed}")
            assert core.queue_depth == 0

    status, health = core.healthz()
    assert status == 200 and health["status"] == "ok"
    status, stats = core.stats()
    assert status == 200
    assert stats["telemetry"]["metrics"] is not None
    assert service.stats.bytes_held >= 0

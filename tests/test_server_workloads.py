"""Randomized server workloads: wrong or stale answers never escape.

Hypothesis drives one :class:`~repro.serve.server.QueryServer` core
(the HTTP-agnostic layer — exactly what every worker thread runs)
through random event interleavings: queries from tenants with very
different admission profiles, with engine options absent, null,
well-typed or ill-typed, live dataset churn migrated with
``apply_delta``, fake-clock advances past the cache TTL, a fault plan
injecting skeleton-refresh failures and a clock jump mid-run.

The property: every ``200`` response carrying a *complete* answer is
bit-identical to a cold single-threaded run against the dataset version
that was live when the request was admitted, with the request's
defaulted options — regardless of which cache tier, flight, or fallback
produced it.  Everything else must be an *honest* degradation: a
schema-valid 4xx rejection (400 only for an ill-typed option, 429 only
for the rate-limited tenant), or a partial answer that says so (and
that never poisons what an unguarded tenant sees next).  A shrunk
failure reads as a minimal event log via ``note()``.
"""

import json
import random
from functools import lru_cache

from hypothesis import given, note, settings
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

#: The request's ``options``: absent, null (the default) and well-typed
#: values, then ill-typed ones, which must be refused with a 400.
ILL_TYPED = (
    {"dovetail": "no"},
    {"reduction_rounds": 0},
    {"use_reduction": 1},
)
OPTIONS = (
    None,
    {"dovetail": None},
    {"dovetail": False},
    {"use_jmax": None, "reduction_rounds": 2},
) + ILL_TYPED
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
    st.sampled_from(OPTIONS),
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
    st.one_of(_query_events, _churn_events, _other_events),
    min_size=1,
    max_size=8,
)


@settings(max_examples=10, deadline=None)
@given(events=_events, data=st.data())
def test_random_server_workload_serves_no_wrong_answer(events, data):
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
        FaultPlan(seed=data.draw(st.integers(0, 3), label="fault-seed"))
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
            elif kind == "query":
                _, tenant, minsup, c_index, options = event
                cfq = WORKLOAD.cfq(
                    constraints=list(CONSTRAINT_SETS[c_index]), minsup=minsup
                )
                request = {"query": query_text(cfq), "tenant": tenant}
                if options is not None:
                    request["options"] = options
                status, body = core.handle_query(request)
                if status != 200:
                    validate_error_body(json.loads(json.dumps(body)))
                    note(f"query {tenant} minsup={minsup} c={c_index} "
                         f"options={options} -> {status} {body['code']}")
                    # Single-threaded driving can never fill the queue,
                    # and every tenant name resolves to a profile:
                    # rejection here means rate limiting or an
                    # ill-typed option, nothing else.
                    if status == 429:
                        assert body["code"] == "rate_limit"
                        assert tenant == "bob"
                    else:
                        assert status == 400 and body["code"] == "bad_request"
                        assert options in ILL_TYPED
                    continue
                assert options not in ILL_TYPED
                answer = body["answer"]
                serving = body["serving"]
                note(f"query {tenant} minsup={minsup} c={c_index} "
                     f"options={options} -> 200 "
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
                    live_db.transactions, minsup, c_index, _defaulted(options)
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

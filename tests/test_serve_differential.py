"""Differential proof of the serving layer's bit-identity contract.

The claim (``docs/serving.md``): an answer served warm — from the
result cache or re-executed against a cached frequency skeleton — is
**bit-identical** to a cold run: the same frequent sets with the same
supports *in the same dict insertion order* (pair formation iterates
those dicts, so order is answer-bearing), the same valid pairs in the
same order, the same ``J^k_max`` bound histories, and — for result-cache
hits — the same full operation counters.  Proven here on three workload
families (quickstart, Figure 8(b), and the Section 7.3 Jmax query).

Skeleton-served runs execute the *normal* engine with dictionary
lookups substituted for database passes, so their answer-bearing
counters (the per-``(var, level)`` counting ledger, constraint checks,
pair checks) match a cold run exactly while scans and subset tests are
legitimately ~0 — the comparison below splits along that line.
"""

import json
import math

import pytest

from repro.core.optimizer import CFQOptimizer
from repro.datagen.workloads import (
    fig8b_workload,
    jmax_workload,
    quickstart_workload,
)
from repro.serve import (
    QueryService,
    parse_artifact,
    rebuild_counters,
    rebuild_result,
    serialize_result,
)

WORKLOADS = {
    "quickstart": lambda: quickstart_workload(n_transactions=300),
    "fig8b": lambda: fig8b_workload(40.0, n_items=120, n_transactions=300),
    "jmax": lambda: jmax_workload(600.0, n_transactions=200, core_size=8),
}

#: OpCounters.as_dict fields a skeleton-served run must reproduce
#: exactly (answer-bearing); scans/subset_tests/tuples_read are the
#: database-pass meters an oracle run legitimately skips.
ANSWER_COUNTERS = (
    "sets_counted",
    "constraint_checks_singleton",
    "constraint_checks_larger",
    "pair_checks",
)


def _lattice_state(result):
    """Everything answer-bearing, with order made explicit."""
    state = {}
    for var, lattice in result.raw.lattices.items():
        state[var] = {
            "frequent": {
                level: list(sets.items())
                for level, sets in lattice.frequent.items()
            },
            "level1": list(lattice.level1_supports.items()),
            "counted": list(lattice.counted_per_level.items()),
            "prunes": {
                level: list(counts.items())
                for level, counts in lattice.prune_counts.items()
            },
        }
    return state


def _answers(result):
    return {
        "lattices": _lattice_state(result),
        "frequent_valid": {
            var: list(result.frequent_valid(var).items())
            for var in result.cfq.variables
        },
        "pairs": result.pairs(limit=40),
        "bounds": dict(result.raw.bound_histories),
        "disabled_jmax": list(result.raw.disabled_jmax),
    }


@pytest.mark.parametrize(
    "name, prepared",
    [pytest.param(name, False, id=name) for name in sorted(WORKLOADS)]
    + [
        pytest.param(name, True, id=f"{name}-prepared")
        for name in sorted(WORKLOADS)
    ],
)
def test_result_cache_hit_is_bit_identical_to_cold(name, prepared):
    workload = WORKLOADS[name]()
    cfq = workload.cfq()
    baseline = CFQOptimizer(cfq).execute(workload.db)

    service = QueryService()
    cold = service.execute(workload.db, cfq)
    if prepared:
        # A servable skeleton must not shadow the stored cold artifact:
        # the hit still wins over the skeleton tier.
        service.prepare(workload.db, [cfq])
    warm = service.execute(workload.db, cfq)

    assert cold.cache_info["source"] == "cold"
    assert warm.cache_info["source"] == "result-cache"

    cold_answers = _answers(cold)
    assert _answers(baseline) == cold_answers, name
    assert _answers(warm) == cold_answers, name
    # Result-cache hits restore the *full* cold counters, scans included.
    assert warm.counters.as_dict() == baseline.counters.as_dict(), name
    assert warm.counters.snapshot() == baseline.counters.snapshot(), name
    assert warm.status == "complete"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_skeleton_served_batch_is_bit_identical_on_answers(name):
    workload = WORKLOADS[name]()
    cfq = workload.cfq()
    baseline = CFQOptimizer(cfq).execute(workload.db)

    service = QueryService()
    report = service.execute_batch(workload.db, [cfq])
    (item,) = report.items
    assert item.source == "skeleton", name
    served = item.result

    assert _answers(served) == _answers(baseline), name
    cold_counts = baseline.counters.as_dict()
    warm_counts = served.counters.as_dict()
    for field in ANSWER_COUNTERS:
        assert warm_counts[field] == cold_counts[field], (name, field)
    # The per-(var, level) counting ledger is itself order-identical.
    assert (
        served.counters.snapshot()["support_counted"]
        == baseline.counters.snapshot()["support_counted"]
    ), name
    # ... while the database-pass meters show the shared scan paid off.
    assert warm_counts["scans"] < cold_counts["scans"], name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_skeleton_then_single_execute_is_bit_identical(name):
    """After a batch warmed the skeleton tier, a *single* execute of a
    previously unseen query over the same dataset is served from the
    skeleton and still matches its cold run."""
    workload = WORKLOADS[name]()
    cfq = workload.cfq()
    # A sibling query: same dataset and domains, tighter threshold,
    # fewer constraints — never stored in the result cache.
    scale = (
        (lambda s: {v: x * 1.5 for v, x in s.items()})
        if isinstance(workload.minsup, dict)
        else (lambda s: s * 1.5)
    )
    sibling = workload.cfq(
        constraints=workload.constraints[:1], minsup=scale(workload.minsup)
    )
    baseline = CFQOptimizer(sibling).execute(workload.db)

    service = QueryService()
    service.execute_batch(workload.db, [cfq])  # builds the skeletons
    served = service.execute(workload.db, sibling)
    assert served.cache_info["source"] == "skeleton", name
    assert _answers(served) == _answers(baseline), name


def test_artifact_roundtrip_is_lossless_including_nonfinite_bounds():
    """``rebuild(serialize(x))`` reproduces lattices, counters, and bound
    histories exactly — including the ``inf`` a fresh ``J^k_max`` series
    starts from, which must survive JSON."""
    workload = WORKLOADS["jmax"]()
    result = CFQOptimizer(workload.cfq()).execute(workload.db)
    raw = result.raw
    # Make the non-finite case explicit rather than hoping the workload
    # produced one.
    raw.bound_histories["T.synthetic"] = [(1, float("inf")), (2, 42.5)]

    text = serialize_result(raw, result.counters, meta={"query": "q"})
    document = parse_artifact(text)
    rebuilt = rebuild_result(document)

    assert {var: _dictitems(l) for var, l in rebuilt.lattices.items()} == {
        var: _dictitems(l) for var, l in raw.lattices.items()
    }
    assert rebuilt.bound_histories == raw.bound_histories
    assert math.isinf(dict(rebuilt.bound_histories["T.synthetic"])[1])
    assert rebuilt.disabled_jmax == list(raw.disabled_jmax)
    assert rebuild_counters(document) == result.counters.snapshot()
    # keep_candidates runs bypass the cache, so logs rebuild empty.
    assert rebuilt.candidate_logs == {}


def _dictitems(lattice):
    return {
        "frequent": {k: list(v.items()) for k, v in lattice.frequent.items()},
        "level1": list(lattice.level1_supports.items()),
        "counted": list(lattice.counted_per_level.items()),
        "prunes": {k: list(v.items()) for k, v in lattice.prune_counts.items()},
    }


def test_disk_tier_roundtrip_is_bit_identical(tmp_path):
    """A fresh process (modeled by a fresh service over the same
    ``cache_dir``) serves the stored artifact bit-identically."""
    workload = WORKLOADS["quickstart"]()
    cfq = workload.cfq()
    first = QueryService(cache_dir=str(tmp_path))
    cold = first.execute(workload.db, cfq)
    assert cold.cache_info["source"] == "cold"

    second = QueryService(cache_dir=str(tmp_path))
    warm = second.execute(workload.db, cfq)
    assert warm.cache_info["source"] == "result-cache"
    assert _answers(warm) == _answers(cold)
    assert warm.counters.as_dict() == cold.counters.as_dict()
    # The artifact on disk is standard-library-parseable JSON text.
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    document = json.loads(files[0].read_text())
    assert document["schema"] == "repro.serve.result"


def test_artifact_validation_rejects_malformed_documents():
    from repro.errors import ExecutionError
    from repro.serve import (
        ARTIFACT_SCHEMA,
        ARTIFACT_VERSION,
        validate_artifact,
    )

    with pytest.raises(ExecutionError, match="JSON object"):
        validate_artifact(["not", "an", "object"])
    with pytest.raises(ExecutionError, match="not a result artifact"):
        validate_artifact({"schema": "something.else", "version": 1})
    with pytest.raises(ExecutionError, match="version"):
        validate_artifact({"schema": ARTIFACT_SCHEMA, "version": 99})
    with pytest.raises(ExecutionError, match="missing required key"):
        validate_artifact(
            {"schema": ARTIFACT_SCHEMA, "version": ARTIFACT_VERSION}
        )
    with pytest.raises(ExecutionError, match="not valid JSON"):
        parse_artifact("{definitely not json")

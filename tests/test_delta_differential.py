"""Differential proof of incremental maintenance under dataset churn.

The claim (``docs/serving.md``): after ``db.append``/``db.delete`` plus
``QueryService.apply_delta``, every answer served over the mutated
dataset is **bit-identical** to cold-mining that dataset from scratch —
the same frequent sets with the same supports in the same order, the
same pairs, the same bound histories, and the same answer-bearing
counters.  Equivalently: a skeleton refreshed through any chain of
deltas has the same ``supports`` as one built from the final
transactions on the hybrid list path, which shares no counting code
with the default bitmap index a refresh rebuilds on.

Proven here on the same three workload families as
``test_serve_differential.py``, plus randomized churn sequences and a
derived Type domain; this suite runs in the fast lane (no ``slow``
marker) because the workloads are small.
"""

import random

import pytest

from repro.core.optimizer import CFQOptimizer
from repro.datagen.workloads import (
    fig8b_workload,
    jmax_workload,
    quickstart_workload,
)
from repro.db.domain import derived_type_domain
from repro.errors import ExecutionError
from repro.serve import (
    QueryService,
    build_skeleton,
    refresh_skeleton,
    scaled_min_count,
)

from tests.test_serve_differential import ANSWER_COUNTERS, WORKLOADS, _answers


def _churn_transactions(db, n, rng):
    universe = sorted(db.item_universe())
    lengths = [len(t) for t in db.transactions if t] or [1]
    return [
        tuple(sorted(rng.sample(universe,
                                min(rng.choice(lengths), len(universe)))))
        for _ in range(n)
    ]


def _assert_served_equals_cold(item, db, name):
    """The suite's core assertion: a skeleton-served answer over the
    mutated dataset vs a cold optimizer run on the same dataset."""
    assert item.source == "skeleton", (name, item.source)
    cold = CFQOptimizer(item.cfq).execute(db)
    assert _answers(item.result) == _answers(cold), name
    warm_counts = item.result.counters.as_dict()
    cold_counts = cold.counters.as_dict()
    for field in ANSWER_COUNTERS:
        assert warm_counts[field] == cold_counts[field], (name, field)
    assert (
        item.result.counters.snapshot()["support_counted"]
        == cold.counters.snapshot()["support_counted"]
    ), name


# ----------------------------------------------------------------------
# Service-level: append / delete / chained churn, per workload family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_serve_after_append_is_bit_identical_to_cold(name):
    workload = WORKLOADS[name]()
    cfq = workload.cfq()
    service = QueryService()
    service.execute_batch(workload.db, [cfq])  # warm the skeleton tier

    rng = random.Random(11)
    db, delta = workload.db.append(
        _churn_transactions(workload.db, 10, rng)
    )
    report = service.apply_delta(db, delta)
    assert report.skeletons_refreshed >= 1, name
    assert report.skeletons_dropped == 0, name

    (item,) = service.execute_batch(db, [cfq]).items
    _assert_served_equals_cold(item, db, name)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_serve_after_delete_is_bit_identical_to_cold(name):
    workload = WORKLOADS[name]()
    cfq = workload.cfq()
    service = QueryService()
    service.execute_batch(workload.db, [cfq])

    rng = random.Random(13)
    tids = rng.sample(range(len(workload.db)), 10)
    db, delta = workload.db.delete(tids)
    report = service.apply_delta(db, delta)
    assert report.skeletons_refreshed >= 1, name

    (item,) = service.execute_batch(db, [cfq]).items
    _assert_served_equals_cold(item, db, name)


@pytest.mark.parametrize("seed", [3, 17])
def test_randomized_churn_sequence_stays_bit_identical(seed):
    """Every step of a random append/delete walk serves answers
    identical to cold runs — refreshes chain without drift."""
    workload = quickstart_workload(n_transactions=250)
    cfq = workload.cfq()
    service = QueryService()
    db = workload.db
    service.execute_batch(db, [cfq])

    rng = random.Random(seed)
    for step in range(4):
        if rng.random() < 0.5 and len(db) > 30:
            db, delta = db.delete(
                rng.sample(range(len(db)), rng.randint(1, 12))
            )
        else:
            db, delta = db.append(
                _churn_transactions(db, rng.randint(1, 12), rng)
            )
        report = service.apply_delta(db, delta)
        assert report.skeletons_refreshed >= 1, (seed, step)
        (item,) = service.execute_batch(db, [cfq]).items
        _assert_served_equals_cold(item, db, (seed, step))


def test_apply_delta_invalidates_base_results_and_rejects_mismatch():
    workload = quickstart_workload(n_transactions=200)
    cfq = workload.cfq()
    service = QueryService()
    service.execute(workload.db, cfq)  # cold -> result tier under base fp

    db, delta = workload.db.append([[1, 2, 3]])
    report = service.apply_delta(db, delta)
    assert report.results_invalidated >= 1
    # The base result is gone: same query over the base dataset is cold.
    assert service.execute(workload.db, cfq).cache_info["source"] == "cold"

    # A delta that does not lead to the presented database is an error —
    # apply_delta must never re-key caches onto the wrong content.
    other_db, _ = workload.db.append([[4, 5, 6]])
    with pytest.raises(ExecutionError):
        service.apply_delta(other_db, delta)


# ----------------------------------------------------------------------
# Skeleton-level: default build and refresh == hybrid list build
# ----------------------------------------------------------------------
SKELETON_DOMAINS = {
    "items": lambda workload: workload.domains["S"],
    "types": lambda workload: derived_type_domain(workload.catalog),
}


def _skeleton_fixture(n=250, min_count=15, domain="items"):
    workload = quickstart_workload(n_transactions=n)
    domain = SKELETON_DOMAINS[domain](workload)
    skeleton = build_skeleton(workload.db, domain, min_count)
    return workload.db, domain, skeleton


@pytest.mark.parametrize("domain_name", sorted(SKELETON_DOMAINS))
def test_refresh_equals_cold_build(domain_name):
    db, domain, skeleton = _skeleton_fixture(domain=domain_name)
    listed = build_skeleton(db, domain, skeleton.min_count, backend="hybrid")
    assert skeleton.supports == listed.supports
    rng = random.Random(5)
    db2, delta = db.append(_churn_transactions(db, 12, rng))

    refreshed, stats = refresh_skeleton(skeleton, db2, delta)
    cold = build_skeleton(db2, domain, refreshed.min_count, backend="hybrid")
    assert refreshed.supports == cold.supports
    assert refreshed.dataset == delta.new_digest
    assert refreshed.n_transactions == len(db2)
    assert stats.probed == cold.mining_counters.total_counted > 0


def test_refresh_chains_across_mixed_churn():
    db, domain, skeleton = _skeleton_fixture()
    rng = random.Random(23)
    for _ in range(3):
        if rng.random() < 0.5:
            db, delta = db.delete(rng.sample(range(len(db)), 8))
        else:
            db, delta = db.append(_churn_transactions(db, 8, rng))
        skeleton, _ = refresh_skeleton(skeleton, db, delta)
    cold = build_skeleton(db, domain, skeleton.min_count)
    assert skeleton.supports == cold.supports


def test_refresh_rejects_a_stale_base():
    """A skeleton can only consume a delta that starts from the dataset
    it was mined over — anything else must refuse, not serve stale."""
    db, domain, skeleton = _skeleton_fixture()
    db2, _ = db.append([[1, 2]])
    db3, later_delta = db2.append([[3, 4]])
    with pytest.raises(ExecutionError):
        refresh_skeleton(skeleton, db3, later_delta)


def test_empty_delta_refresh_is_pure_rekeying():
    db, domain, skeleton = _skeleton_fixture()
    db2, delta = db.append([])
    refreshed, __ = refresh_skeleton(skeleton, db2, delta)
    assert refreshed.supports == skeleton.supports


# ----------------------------------------------------------------------
# Threshold rescaling: the serving-guarantee invariant
# ----------------------------------------------------------------------
@pytest.mark.parametrize("m,n,n2", [
    (15, 300, 312), (15, 300, 285), (1, 100, 1000), (30, 300, 150),
    (7, 100, 100), (2, 10, 10000),
])
def test_scaled_min_count_preserves_every_served_minsup(m, n, n2):
    """Every relative minsup the old skeleton served (ceil(minsup*n) >= m)
    is still served by the rescaled threshold (ceil(minsup*n2) >= m')."""
    import math

    m2 = scaled_min_count(m, n, n2)
    assert m2 >= 1
    for numerator in range(1, 4 * n + 1):
        minsup = numerator / (4 * n)
        if math.ceil(minsup * n) >= m:
            assert math.ceil(minsup * n2) >= m2, (minsup, m2)


@pytest.mark.parametrize("m,n,n2", [
    (15, 300, 312), (15, 300, 285), (30, 300, 150), (7, 100, 100),
])
def test_scaled_min_count_is_maximal(m, n, n2):
    """One notch tighter would drop a minsup the old skeleton served —
    the rescaling is not merely sound but as strong as possible.  The
    witness is the smallest minsup the old skeleton served, expressed
    exactly: minsup0 = ((m-1)*n2 + 1) / (n*n2)."""
    import math
    from fractions import Fraction

    m2 = scaled_min_count(m, n, n2)
    minsup0 = Fraction((m - 1) * n2 + 1, n * n2)
    assert math.ceil(minsup0 * n) == m       # old skeleton served it...
    assert math.ceil(minsup0 * n2) == m2     # ...and m2+1 would refuse it

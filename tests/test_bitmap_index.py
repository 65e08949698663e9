"""The database's bitmap index and the default counting path over it.

``TransactionDatabase.bitmap`` packs the transactions into per-item TID
rows on the first count and keeps them; under the bitmap backend (the
default when no backend is named) the CFQ engines count against a
``DomainIndex``, the domain's view of that index, and project nothing.
The slow-lane differential (``tests/test_backend_differential.py``)
proves whole runs bit-identical to the hybrid list path; these are the
fast-lane unit checks of the pieces.
"""

from __future__ import annotations

import pytest

from repro.core.optimizer import CFQOptimizer
from repro.datagen.workloads import quickstart_workload
from repro.db.domain import Domain, derived_type_domain
from repro.db.transactions import TransactionDatabase
from repro.mining import bitmap as bitmap_mod
from repro.mining.aprioriplus import apriori_plus
from repro.mining.backends import HybridBackend
from repro.mining.bitmap import (
    BitmapBackend,
    DomainIndex,
    count_with_bitmap,
    domain_view,
)
from repro.mining.lattice import counting_source
from repro.obs.trace import Tracer


@pytest.fixture
def workload():
    return quickstart_workload(n_transactions=200, seed=3)


@pytest.fixture
def pack_calls(monkeypatch):
    """Every ``build_bitmap`` call the database makes."""
    calls = []
    original = bitmap_mod.build_bitmap

    def counting(transactions, use_numpy=None):
        calls.append(len(transactions))
        return original(transactions, use_numpy=use_numpy)

    monkeypatch.setattr(bitmap_mod, "build_bitmap", counting)
    return calls


@pytest.fixture
def project_calls(monkeypatch):
    """Every ``Domain.project`` call, derived domains included."""
    calls = []
    original = Domain.project

    def counting(self, transaction):
        calls.append(transaction)
        return original(self, transaction)

    monkeypatch.setattr(Domain, "project", counting)
    return calls


def test_construction_append_and_delete_build_no_index(pack_calls):
    """Like the digest, the index is built on first use, never by the
    constructor or by churn."""
    db = TransactionDatabase([[1, 2], [2, 3], [1, 3]])
    appended, __ = db.append([[1, 2, 3]])
    deleted, __ = appended.delete([0])
    for each in (db, appended, deleted):
        assert not each.has_bitmap()
    assert pack_calls == []
    assert deleted.bitmap() is deleted.bitmap()
    assert pack_calls == [3]
    assert deleted.has_bitmap() and not appended.has_bitmap()


def test_a_default_run_packs_the_index_on_its_first_count(
    workload, pack_calls
):
    db = workload.db
    cfq = workload.cfq()
    result = CFQOptimizer(cfq).execute(db)
    assert pack_calls == [len(db)]
    stats = result.backend.stats
    assert (stats.builds, stats.cache_hits) == (1, len(stats.levels) - 1)
    # A second query reuses the database's index.
    again = CFQOptimizer(cfq).execute(db)
    assert pack_calls == [len(db)]
    assert again.backend.stats.builds == 0
    hybrid = CFQOptimizer(cfq).execute(db, backend="hybrid")
    assert hybrid.backend.name == "hybrid"
    assert pack_calls == [len(db)]


def test_counting_source_picks_the_index_only_for_bitmap(workload):
    domain = workload.domains["S"]
    source = counting_source(BitmapBackend(), workload.db, domain)
    assert isinstance(source, DomainIndex) and len(source) == len(workload.db)
    assert source.view is None  # nothing resolved until a count
    listed = counting_source(HybridBackend(), workload.db, domain)
    assert listed == [domain.project(t) for t in workload.db]


@pytest.mark.parametrize("derived", [False, True], ids=["items", "types"])
def test_skeleton_build_and_refresh_project_nothing(
    workload, project_calls, derived
):
    """A default skeleton is mined on the database's index, and a refresh
    rebuilds on the new version's index: neither projects a
    transaction.  The hybrid list build projects every one."""
    from repro.serve import build_skeleton, refresh_skeleton

    db = workload.db
    domain = (
        derived_type_domain(workload.catalog) if derived
        else workload.domains["S"]
    )
    skeleton = build_skeleton(db, domain, min_count=10)
    db2, delta = db.append([[1, 2, 3], [2, 4]])
    refreshed, __ = refresh_skeleton(skeleton, db2, delta)
    assert skeleton.supports and refreshed.supports
    assert project_calls == []
    build_skeleton(db, domain, min_count=10, backend="hybrid")
    assert len(project_calls) == len(db)


@pytest.mark.parametrize("use_numpy", [True, False])
def test_derived_domain_view_holds_each_elements_transactions(
    workload, use_numpy
):
    """A derived domain's row for an element is exactly the TIDs whose
    projection contains it."""
    if use_numpy and not bitmap_mod.HAVE_NUMPY:
        pytest.skip("numpy unavailable")
    types = derived_type_domain(workload.catalog)
    db = workload.db
    view = domain_view(db.bitmap(use_numpy), types)
    projected = [types.project(t) for t in db]
    for element in types.elements:
        expected = sum(1 for t in projected if element in t)
        assert count_with_bitmap(view, [(element,)]) == {(element,): expected}
    pairs = [(a, b) for a in types.elements for b in types.elements if a < b]
    assert count_with_bitmap(view, pairs) == {
        pair: sum(1 for t in projected if set(pair) <= set(t))
        for pair in pairs
    }


def test_item_domain_view_is_the_database_index(workload):
    subset = Domain.items(workload.catalog, subset=range(10))
    assert domain_view(workload.db.bitmap(), subset) is workload.db.bitmap()


def test_level_one_keys_follow_set_order_like_the_singleton_kernel(workload):
    """Pair formation iterates the level-1 dicts, so their key order is
    answer-bearing: the index path must yield count_singletons' order."""
    cfq = workload.cfq()
    default = CFQOptimizer(cfq).execute(workload.db)
    hybrid = CFQOptimizer(cfq).execute(workload.db, backend="hybrid")
    for var in cfq.variables:
        got = default.raw.lattices[var].level1_supports
        want = hybrid.raw.lattices[var].level1_supports
        assert list(got.items()) == list(want.items())


def test_span_labels_name_the_backend_that_counted(workload):
    cfq = workload.cfq()
    for backend, label in ((None, "bitmap"), ("hybrid", "hybrid"),
                           ("vertical", "vertical")):
        tracer = Tracer()
        CFQOptimizer(cfq).execute(workload.db, backend=backend, tracer=tracer)
        runs = tracer.find("dovetail.run")
        assert [s.attributes["backend"] for s in runs] == [label]
        tracer = Tracer()
        apriori_plus(workload.db, cfq, backend=backend, tracer=tracer)
        runs = tracer.find("aprioriplus.run")
        assert [s.attributes["backend"] for s in runs] == [label]


def test_cap_span_names_an_unnamed_duck_typed_backend():
    from repro.mining.cap import cap_mine

    class Counting:  # no ``name`` attribute
        def count(self, *args, **kwargs):
            return HybridBackend().count(*args, **kwargs)

    catalog_workload = quickstart_workload(n_transactions=60, seed=2)
    domain = catalog_workload.domains["S"]
    tracer = Tracer()
    cap_mine("S", domain, [domain.project(t) for t in catalog_workload.db],
             min_count=3, backend=Counting(), tracer=tracer)
    runs = tracer.find("cap.run")
    assert [s.attributes["backend"] for s in runs] == ["Counting"]


def test_default_run_meters_like_the_bitmap_kernel_on_projected_lists(
    workload,
):
    """Level 1 over the index is metered in the singleton scan's unit, so
    the whole counter dict equals a bitmap-kernel run on the list path
    (the one-worker sharded backend counts in process)."""
    from repro.mining.backends import ParallelBackend

    cfq = workload.cfq()
    default = CFQOptimizer(cfq).execute(workload.db)
    listed = CFQOptimizer(cfq).execute(
        workload.db, backend=ParallelBackend(workers=1, kernel="bitmap")
    )
    assert default.counters.as_dict() == listed.counters.as_dict()
    assert default.counters.support_counted == listed.counters.support_counted

"""The constrained lattice: Apriori equivalence, pruning forms, stepper
protocol, and the MGF ordering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.onevar import OneVarView
from repro.constraints.parser import parse_constraint
from repro.constraints.pruners import CompiledPruning, compile_onevar
from repro.db.catalog import ItemCatalog
from repro.db.domain import Domain
from repro.db.stats import OpCounters
from repro.errors import ExecutionError
from repro.mining.lattice import ConstrainedLattice
from tests.conftest import brute_frequent


def run_lattice(transactions, elements, min_count, pruning=None, **kwargs):
    lattice = ConstrainedLattice(
        "S", tuple(elements), transactions, min_count, pruning=pruning, **kwargs
    )
    while lattice.count_and_absorb():
        pass
    return lattice


def test_unconstrained_equals_brute_force(market_db):
    lattice = run_lattice(market_db.transactions, range(1, 7), 3)
    assert lattice.result().all_sets() == brute_frequent(
        market_db.transactions, range(1, 7), 3
    )


@settings(max_examples=50, deadline=None)
@given(
    raw=st.lists(
        st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=6),
        min_size=1,
        max_size=25,
    ),
    min_count=st.integers(min_value=1, max_value=5),
)
def test_unconstrained_equals_brute_force_property(raw, min_count):
    transactions = [tuple(sorted(set(t))) for t in raw]
    universe = sorted({i for t in transactions for i in t})
    if not universe:
        return
    lattice = run_lattice(transactions, universe, min_count)
    assert lattice.result().all_sets() == brute_frequent(
        transactions, universe, min_count
    )


def pruned_lattice(market_catalog, market_db, text, min_count=2):
    domain = Domain.items(market_catalog)
    pruning = compile_onevar(OneVarView.of(parse_constraint(text)), domain)
    return run_lattice(market_db.transactions, domain.elements, min_count, pruning)


@pytest.mark.parametrize(
    "text",
    [
        "max(S.Price) <= 40",          # item filter
        "min(S.Price) <= 20",          # required bucket (MGF)
        "S.Type = {snack}",            # filter + bucket
        "sum(S.Price) <= 70",          # anti-monotone check
        "count(S) <= 2",               # anti-monotone check on cardinality
        "avg(S.Price) >= 30",          # bucket relaxation + post filter
        "min(S.Price) = 10",           # filter + bucket
    ],
)
def test_constrained_lattice_matches_filtered_brute_force(
    market_catalog, market_db, text
):
    """Frequent valid sets == frequent sets (oracle) that satisfy the
    constraint (oracle filtering)."""
    from repro.constraints.evaluate import evaluate_constraint

    domain = Domain.items(market_catalog)
    constraint = parse_constraint(text)
    lattice = pruned_lattice(market_catalog, market_db, text)
    mined = lattice.result().all_sets()
    oracle = {
        itemset: support
        for itemset, support in brute_frequent(
            market_db.transactions, domain.elements, 2
        ).items()
        if evaluate_constraint(constraint, {"S": itemset}, {"S": domain})
    }
    assert mined == oracle, text


def test_bucket_lattice_counts_fewer_sets(market_catalog, market_db):
    counters_plain = OpCounters()
    run_lattice(market_db.transactions, range(1, 7), 2, counters=counters_plain)
    counters_bucket = OpCounters()
    domain = Domain.items(market_catalog)
    pruning = compile_onevar(
        OneVarView.of(parse_constraint("min(S.Price) >= 30")), domain
    )
    run_lattice(market_db.transactions, domain.elements, 2, pruning,
                counters=counters_bucket)
    assert counters_bucket.total_counted < counters_plain.total_counted


def test_level1_supports_kept_for_mgf(market_catalog, market_db):
    """Bucket constraints still count all frequent singletons (the MGF
    needs their supports for the reduction constants), but only
    bucket-hitting singletons are valid answers."""
    lattice = pruned_lattice(market_catalog, market_db, "min(S.Price) <= 20")
    assert set(lattice.level1_supports) == {1, 2, 3, 4, 5}  # all frequent items
    valid_singletons = {s for s in lattice.result().frequent[1]}
    assert valid_singletons == {(1,), (2,)}


def test_empty_bucket_yields_no_multi_sets(market_catalog, market_db):
    lattice = pruned_lattice(market_catalog, market_db, "min(S.Price) <= 5")
    result = lattice.result()
    assert all(not sets for level, sets in result.frequent.items())


def test_max_level_cap(market_db):
    lattice = run_lattice(market_db.transactions, range(1, 7), 2, max_level=2)
    assert lattice.result().max_level == 2


def test_stepper_protocol_errors(market_db):
    lattice = ConstrainedLattice("S", tuple(range(1, 7)), market_db.transactions, 2)
    with pytest.raises(ExecutionError):
        lattice.absorb({})
    with pytest.raises(ExecutionError):
        ConstrainedLattice("S", (1,), [], 0)


def test_lattice_without_transactions_steps_but_cannot_count():
    """An oracle-served lattice holds no transactions: supports fed to
    absorb() drive it as usual, but a count against it raises instead
    of counting an empty list to zero supports."""
    lattice = ConstrainedLattice("S", (1, 2, 3), None, 2)
    lattice.candidates()
    lattice.absorb({(1,): 3, (2,): 2, (3,): 1})
    assert lattice.level1_supports == {1: 3, 2: 2}
    assert lattice.candidates() == [(1, 2)]
    with pytest.raises(ExecutionError, match="holds no transactions"):
        lattice.transactions
    lattice = ConstrainedLattice("S", (1, 2, 3), None, 2)
    with pytest.raises(ExecutionError, match="holds no transactions"):
        lattice.count_and_absorb()


def test_late_filter_installation_rejected(market_db):
    lattice = ConstrainedLattice("S", tuple(range(1, 7)), market_db.transactions, 2)
    lattice.count_and_absorb()  # level 1
    lattice.count_and_absorb()  # level 2 freezes the order
    with pytest.raises(ExecutionError):
        lattice.install_pruning(
            CompiledPruning(filters=[__import__("repro.constraints.pruners",
                                                fromlist=["ItemFilter"]).ItemFilter(
                frozenset({1}), "late")])
        )


def test_install_filter_after_level1_refilters(market_catalog, market_db):
    from repro.constraints.pruners import ItemFilter

    lattice = ConstrainedLattice(
        "S", tuple(range(1, 7)), market_db.transactions, 2
    )
    lattice.count_and_absorb()
    lattice.install_pruning(
        CompiledPruning(filters=[ItemFilter(frozenset({1, 2, 4}), "test")])
    )
    assert set(lattice.level1_supports) <= {1, 2, 4}
    while lattice.count_and_absorb():
        pass
    mined = lattice.result().all_sets()
    assert all(set(s) <= {1, 2, 4} for s in mined)


def test_candidate_log(market_db):
    lattice = ConstrainedLattice(
        "S", tuple(range(1, 7)), market_db.transactions, 2, keep_candidates=True
    )
    while lattice.count_and_absorb():
        pass
    assert 1 in lattice.candidate_log and 2 in lattice.candidate_log
    assert len(lattice.candidate_log[2]) == lattice.counted_per_level[2]


def test_dynamic_am_check_via_mutable_bound(market_catalog, market_db):
    """A tightening bound installed as an anti-monotone check prunes later
    levels — the Jmax integration mechanism."""
    from repro.constraints.pruners import AntiMonotoneCheck

    domain = Domain.items(market_catalog)
    prices = domain.catalog.column("Price")
    bound_holder = {"bound": 1000.0}

    def check(elements):
        return sum(prices[e] for e in elements) <= bound_holder["bound"]

    lattice = ConstrainedLattice(
        "S", domain.elements, market_db.transactions, 2,
        CompiledPruning(am_checks=[AntiMonotoneCheck(check, "dyn")]),
    )
    lattice.count_and_absorb()  # level 1
    bound_holder["bound"] = 35.0
    while lattice.count_and_absorb():
        pass
    mined = lattice.result().all_sets()
    assert mined  # singletons <= 35 survive
    assert all(sum(prices[e] for e in s) <= 35.0 for s in mined)

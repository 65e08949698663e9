"""The answer oracle against brute force, and against corrupted answers.

Run: ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import itertools
import random

import pytest

import inputs
import oracle
from measure import Outcome


def _random_case(seed, n_items=7, n_transactions=60):
    rng = random.Random(seed)
    transactions = [
        tuple(sorted(rng.sample(range(n_items), rng.randint(0, 5))))
        for _ in range(n_transactions)
    ]
    prices = {i: rng.randint(0, 20) for i in range(n_items)}
    types = {i: rng.choice("abc") for i in range(n_items)}
    return transactions, prices, types


def _brute_support(transactions, itemset):
    return sum(1 for t in transactions if set(itemset) <= set(t))


def _brute_frequent(transactions, domain, threshold):
    found = {}
    for size in range(1, len(domain) + 1):
        for itemset in itertools.combinations(sorted(domain), size):
            support = _brute_support(transactions, itemset)
            if support >= threshold:
                found[itemset] = support
    return found


@pytest.mark.parametrize("seed", range(12))
def test_frequent_itemsets_match_power_set_enumeration(seed):
    transactions, _, _ = _random_case(seed)
    rng = random.Random(seed)
    domain = sorted(rng.sample(range(7), rng.randint(1, 7)))
    threshold = rng.randint(1, 12)
    bitsets = oracle.Bitsets(transactions)
    assert oracle.frequent_itemsets(bitsets, domain, threshold) == _brute_frequent(
        transactions, domain, threshold
    )


def test_bitsets_follow_appends_and_deletes():
    transactions, _, _ = _random_case(3)
    bitsets = oracle.Bitsets()
    slots = [bitsets.add(t) for t in transactions]
    live = list(transactions)
    rng = random.Random(3)
    for step in range(6):
        if step % 2:
            drop = sorted(rng.sample(range(len(live)), 5))
            for position in drop:
                bitsets.remove(slots[position])
            slots = [s for p, s in enumerate(slots) if p not in set(drop)]
            live = [t for p, t in enumerate(live) if p not in set(drop)]
        else:
            added = [tuple(sorted(rng.sample(range(7), 3))) for _ in range(5)]
            slots += [bitsets.add(t) for t in added]
            live += added
        assert len(bitsets) == len(live)
        for itemset in [(0,), (1, 2), (0, 3, 5), ()]:
            assert bitsets.support(itemset) == _brute_support(live, itemset)
        assert oracle.frequent_itemsets(bitsets, range(7), 4) == _brute_frequent(live, range(7), 4)


def test_min_count_reads_minsup_as_written():
    assert oracle.min_count(0.01, 100_000) == 1000
    assert oracle.min_count(0.0075, 20_200) == 152
    assert oracle.min_count(0.001, 10) == 1


_FORMS = {
    "max_le_min": lambda s, t, p, ty: max(p[i] for i in s) <= min(p[i] for i in t),
    "sum_le_sum": lambda s, t, p, ty: sum(p[i] for i in s) <= sum(p[i] for i in t),
    "type_eq": lambda s, t, p, ty: {ty[i] for i in s} == {ty[i] for i in t},
}


@pytest.mark.parametrize("form", sorted(_FORMS))
@pytest.mark.parametrize("seed", range(4))
def test_pairs_match_nested_loops(form, seed):
    transactions, prices, types = _random_case(seed)
    domains = {"S": (0, 1, 2, 3, 4), "T": (2, 3, 4, 5, 6)}
    onevar = {"S": [("min", "Price", ">=", 3)], "T": [("max", "Price", "<=", 18)]}
    expected = oracle.answer(
        oracle.Bitsets(transactions), domains, {"S": 0.1, "T": 0.1}, onevar,
        (form, "Price"), prices, types,
    )
    threshold = oracle.min_count(0.1, len(transactions))
    s_sets = [
        s for s in _brute_frequent(transactions, domains["S"], threshold)
        if min(prices[i] for i in s) >= 3
    ]
    t_sets = [
        t for t in _brute_frequent(transactions, domains["T"], threshold)
        if max(prices[i] for i in t) <= 18
    ]
    brute = {(s, t) for s in s_sets for t in t_sets if _FORMS[form](s, t, prices, types)}
    assert expected.pairs == brute


def test_type_constant_constraint():
    transactions, prices, types = _random_case(5)
    onevar = [("typeset", "Type", "=", frozenset("a"))]
    assert oracle.satisfies_onevar((0,), onevar, prices, {0: "a"})
    assert not oracle.satisfies_onevar((0, 1), onevar, prices, {0: "a", 1: "b"})


# ----------------------------------------------------------------------
# The program's answers pass; corrupted ones are counted as failed
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_paper_run():
    from repro import CFQOptimizer
    from cfq_paper import build_program_inputs

    raw = inputs.paper_inputs(seed=5, n_fig8=3000, n_jmax=1500)
    databases, cfqs = build_program_inputs(raw)
    picked = [0, 5, 9]  # Figure 8(a), Figure 8(b), Section 7.3
    runs = []
    for index in picked:
        query = raw.queries[index]
        result = CFQOptimizer(cfqs[index]).execute(databases[query.dataset])
        expected = oracle.answer(
            oracle.Bitsets(raw.datasets[query.dataset]), query.domains, query.minsup,
            query.onevar, query.twovar, query.prices, query.types,
        )
        reported = {
            var: [(list(s), n) for s, n in result.frequent_valid(var).items()]
            for var in ("S", "T")
        }
        pairs = [(list(s), list(t)) for s, t in result.pairs()]
        runs.append((query.name, expected, reported, pairs))
    return runs


def test_program_answers_agree_with_oracle(small_paper_run):
    for name, expected, reported, pairs in small_paper_run:
        assert pairs, name  # a check over empty answers would prove little
        assert oracle.check(expected, reported, pairs) == [], name


def test_dropped_pair_is_counted_as_failed(small_paper_run):
    outcome = Outcome()
    for name, expected, reported, pairs in small_paper_run:
        outcome.record_check(name, oracle.check(expected, reported, pairs[1:]))
    assert outcome.failed == len(small_paper_run)
    assert all("missing" in line for line in outcome.problems)


def test_support_off_by_one_is_counted_as_failed(small_paper_run):
    outcome = Outcome()
    for name, expected, reported, pairs in small_paper_run:
        var = "S" if reported["S"] else "T"
        corrupted = dict(reported)
        items, support = corrupted[var][0]
        corrupted[var] = [(items, support + 1)] + corrupted[var][1:]
        outcome.record_check(name, oracle.check(expected, corrupted, pairs))
    assert outcome.failed == len(small_paper_run)
    assert all("support" in line for line in outcome.problems)


def test_extra_and_repeated_pairs_are_caught(small_paper_run):
    name, expected, reported, pairs = small_paper_run[0]
    assert oracle.check(expected, reported, pairs + pairs[:1])
    s_sets = [s for s, _ in reported["S"]]
    t_sets = [t for t, _ in reported["T"]]
    extra = next(
        (s, t) for s in s_sets for t in t_sets
        if (tuple(s), tuple(t)) not in expected.pairs
    )
    assert oracle.check(expected, reported, pairs + [extra])

"""Candidate generation: the apriori-gen join + prune."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.candidates import generate_pairs, join_and_prune


def test_generate_pairs_all():
    assert generate_pairs([1, 2, 3]) == [(1, 2), (1, 3), (2, 3)]


def test_generate_pairs_admission():
    # Only the rows of the first two ranked elements (a bucket ranked
    # first): every pair's lower-ranked element is one of them.
    pairs = generate_pairs([0, 1, 2, 3], rows=2)
    assert (2, 3) not in pairs
    assert (0, 3) in pairs and (1, 2) in pairs


def test_join_and_prune_classic_example():
    # The textbook apriori-gen example: L3 = {abc, abd, acd, ace, bcd};
    # join gives abcd and acde; prune removes acde (cde missing).
    frequent = {(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 4)}
    candidates = join_and_prune(frequent, 4)
    assert sorted(candidates) == [(1, 2, 3, 4)]


def test_join_and_prune_rejects_small_k():
    with pytest.raises(ValueError):
        join_and_prune({(1, 2)}, 2)


def test_subset_gate_skips_ungated_subsets():
    # Without the gate, (2,3) missing kills the candidate; with a gate
    # that only requires subsets containing element 1, it survives.
    frequent = {(1, 2), (1, 3)}
    assert join_and_prune(frequent, 3) == []
    gated = join_and_prune(frequent, 3, subset_gate=lambda s: 1 in s)
    assert gated == [(1, 2, 3)]


@settings(max_examples=50, deadline=None)
@given(
    sets=st.sets(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
        ),
        max_size=20,
    )
)
def test_join_prune_is_exactly_the_closure(sets):
    """Candidates are exactly the 4-sets all of whose 3-subsets are in
    the given frequent collection (classic prune, rank space)."""
    frequent = {tuple(sorted(set(t))) for t in sets if len(set(t)) == 3}
    candidates = set(join_and_prune(frequent, 4))
    universe = sorted({e for s in frequent for e in s})
    expected = {
        combo
        for combo in combinations(universe, 4)
        if all(sub in frequent for sub in combinations(combo, 3))
    }
    assert candidates == expected

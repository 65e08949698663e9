"""Candidate generation: the apriori-gen join + prune, bucket-aware.

Generation works in *rank space*: a per-run rank orders the elements.
For unconstrained mining the rank is the element id; for CAP's
member-generating-function case (a required bucket), bucket elements get
the lowest ranks, so any candidate containing a bucket element has one in
front — which makes "the candidate hits the bucket" a structural property
of the join rather than a constraint check (this is what lets CAP meet
condition (2) of ccc-optimality for succinct constraints).  Level 2 reads
the rank order and emits canonical pairs directly; the join for k >= 3
works on rank-sorted tuples.

The prune step is *validity-aware*: under constraints, only subsets that
would themselves have been valid candidates had their support counted, so
the caller supplies a predicate saying which subsets must be checked for
frequency.  This is CAP's relaxation of the classic prune; it is sound
because frequency of invalid subsets is simply unknown, never assumed.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.mining.itemsets import Itemset

SubsetGate = Callable[[Itemset], bool]


def generate_pairs(order: Sequence[int], rows: Optional[int] = None) -> List[Itemset]:
    """All 2-candidates from frequent 1-sets, as canonical pairs.

    ``order`` lists the elements by rank.  Row ``i`` pairs ``order[i]``
    with every later element, so only the first ``rows`` rows are used
    when the lower-ranked element must come from them (a required
    bucket ranked first); pairs outside those rows are never
    materialized.  Each pair is made canonical (id-sorted) once.
    """
    return [
        (a, b) if a < b else (b, a)
        for i, a in enumerate(order[:rows])
        for b in order[i + 1:]
    ]


def join_and_prune(
    frequent_prev: Set[Itemset],
    k: int,
    subset_gate: Optional[SubsetGate] = None,
) -> List[Itemset]:
    """The apriori-gen step for k >= 3, in rank space.

    Parameters
    ----------
    frequent_prev:
        Frequent (and valid) (k-1)-itemsets as rank-space tuples.
    k:
        Target candidate size.
    subset_gate:
        Predicate deciding whether a (k-1)-subset *would have been a
        candidate* (valid under the installed pruning).  Only gated
        subsets are required to appear in ``frequent_prev``.  ``None``
        means the classic prune (every subset must be frequent).

    Returns
    -------
    Candidates as rank-space k-tuples.
    """
    if k < 3:
        raise ValueError("join_and_prune handles k >= 3; use generate_pairs for k=2")
    by_prefix: Dict[Itemset, List[int]] = {}
    for itemset in frequent_prev:
        by_prefix.setdefault(itemset[:-1], []).append(itemset[-1])

    candidates: List[Itemset] = []
    for prefix, tails in by_prefix.items():
        if len(tails) < 2:
            continue
        tails.sort()
        for i in range(len(tails)):
            for j in range(i + 1, len(tails)):
                candidate = prefix + (tails[i], tails[j])
                if _prune_ok(candidate, frequent_prev, subset_gate):
                    candidates.append(candidate)
    return candidates


def _prune_ok(
    candidate: Itemset,
    frequent_prev: Set[Itemset],
    subset_gate: Optional[SubsetGate],
) -> bool:
    # The two subsets dropping one of the last two elements are the join
    # parents — present by construction; checking them anyway is cheap and
    # keeps the code obviously correct.
    for subset in combinations(candidate, len(candidate) - 1):
        if subset_gate is not None and not subset_gate(subset):
            continue
        if subset not in frequent_prev:
            return False
    return True

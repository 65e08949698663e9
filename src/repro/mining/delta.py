"""Delta recounting: support arithmetic over added/removed transactions.

Incremental skeleton maintenance (:mod:`repro.serve.delta`) adjusts the
support of *known* itemsets by counting them only over the delta's
transactions — supports are per-transaction sums, so for any itemset
``X``::

    support_new(X) = support_old(X) + count(X, added) - count(X, removed)

This module supplies the delta-pass counting shape refresh needs,
reusing the audited counting kernels so metering stays comparable:
:func:`count_over` counts a mixed-size candidate set over a (small)
transaction list.  Candidates the old skeleton never counted (children
of promoted sets, or everything a dropped threshold newly generates) are
probed against the new database's bitmap index instead (see
:mod:`repro.serve.delta`).

Scan accounting is left to the caller: refresh records one scan per
delta pass and one for the probes, so its cost shows up honestly in the
refresh stats.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.stats import OpCounters
from repro.mining.counting import count_candidates, count_singletons
from repro.mining.itemsets import Itemset

Transaction = Tuple[int, ...]


def relevant_candidates(
    candidates: Iterable[Itemset], touched_items: frozenset
) -> List[Itemset]:
    """The candidates whose items all occur in the delta's touched set.

    A candidate with any item outside ``touched_items`` is contained in
    no delta transaction, so its delta count is zero — filtering these
    up front keeps the delta pass proportional to the delta, not to the
    skeleton.
    """
    return [c for c in candidates if all(item in touched_items for item in c)]


def count_over(
    transactions: Sequence[Transaction],
    candidates: Iterable[Itemset],
    counters: Optional[OpCounters] = None,
    var: str = "S",
    guard=None,
) -> Dict[Itemset, int]:
    """Exact supports of a mixed-size candidate set over one list.

    Candidates are grouped by size and each group is counted with the
    standard kernels (:func:`~repro.mining.counting.count_singletons` /
    :func:`~repro.mining.counting.count_candidates`), so the work is
    metered in the same units as cold mining.
    """
    by_size: Dict[int, List[Itemset]] = {}
    for candidate in candidates:
        by_size.setdefault(len(candidate), []).append(candidate)
    supports: Dict[Itemset, int] = {}
    for k in sorted(by_size):
        group = by_size[k]
        if k == 1:
            singles = count_singletons(
                transactions, (c[0] for c in group), counters, var, guard=guard
            )
            supports.update({(e,): n for e, n in singles.items()})
        else:
            supports.update(
                count_candidates(transactions, group, k, counters, var,
                                 guard=guard)
            )
    return supports

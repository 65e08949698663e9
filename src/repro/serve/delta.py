"""Incremental skeleton maintenance under dataset churn.

:func:`refresh_skeleton` turns a cached frequency skeleton of the *base*
dataset into the skeleton a cold :func:`~repro.serve.skeleton.build_skeleton`
would mine over the *mutated* dataset — mapping-identical ``supports``
and ``border`` — while touching the full database only for candidates
the base skeleton never counted.

Soundness argument
------------------
Supports are per-transaction sums, so for any itemset ``X``::

    support_new(X) = support_old(X) + count(X, added) - count(X, removed)

Because skeletons retain the **negative border** (every generated-but-
infrequent candidate, with exact support — see
:class:`~repro.serve.skeleton.Skeleton`), the base skeleton knows the
exact support of every candidate plain Apriori generated at its
threshold; one pass over the delta's transactions updates them all
exactly.  The refresh then replays Apriori's levelwise candidate
generation at the new threshold using those exact supports:

* a generated candidate the base skeleton counted is resolved by
  arithmetic alone (this covers every promotion/demotion whose parents
  were already frequent, and — at level 1 — the whole domain universe,
  since frequent ∪ border covers every singleton);
* a generated candidate the base skeleton never counted (possible only
  when a parent was promoted across the threshold, or the threshold
  dropped) is probed in one batch per level against the new database's
  bitmap index (:meth:`~repro.db.transactions.TransactionDatabase.bitmap`,
  through the domain's :func:`~repro.mining.bitmap.domain_view`).

By induction over levels the refreshed frequent sets equal cold-mined
ones with exact supports, and the refreshed border is again the complete
negative border — so refreshes chain: a skeleton refreshed N times is
mapping-identical to one cold-built from the final dataset (the delta
differential suite asserts exactly this).  This is the paper's
anti-monotonicity argument run incrementally; the framing of supports as
bounded inference over known counts follows Tatti, "Computational
Complexity of Queries Based on Itemsets" (arXiv:1902.00633).

Threshold rescaling
-------------------
Relative minsups resolve through ``db.min_count(minsup) =
ceil(minsup * len(db))``, so ``len(db)`` changes move every query's
absolute threshold.  :func:`scaled_min_count` picks the largest new
threshold that still serves every relative minsup the base skeleton
served: the base skeleton (threshold ``m`` over ``n`` transactions)
serves exactly the minsups with ``minsup > (m - 1) / n``; for those,
``ceil(minsup * n') > (m - 1) * n' / n``, hence
``ceil(minsup * n') >= floor((m - 1) * n' / n) + 1`` — the returned
value.  Serving guarantees therefore survive churn with no spurious
cold rebuilds, while a *stale* skeleton can never serve at all: the
skeleton tier is keyed by dataset fingerprint, so the old entry is
unreachable under the new dataset and only the re-keyed refreshed
skeleton answers.

The L1-dependent engine inputs — quasi-succinct reduction constants and
the ``J^k_max`` bound series — are *not* stored in the skeleton; every
served query re-derives them from the supports its own engine run reads
through the oracle.  A refresh therefore re-derives them implicitly and
exactly; :class:`SkeletonRefreshStats.l1_crossings` reports how many
singletons crossed the frequency threshold, which is the number of L1
inputs whose value actually changed (0 crossings ⇒ the delta pass was
pure arithmetic and no bound can move at level 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.db.delta import DatasetDelta
from repro.db.stats import OpCounters
from repro.db.transactions import TransactionDatabase
from repro.errors import ExecutionError
from repro.mining.bitmap import BitmapMatrix, count_with_bitmap, domain_view
from repro.mining.candidates import join_and_prune
from repro.mining.delta import count_over, relevant_candidates
from repro.runtime import faults
from repro.serve.skeleton import Skeleton, _approx_bytes

Itemset = Tuple[int, ...]


def scaled_min_count(old_min_count: int, old_len: int, new_len: int) -> int:
    """The largest threshold serving every minsup the old skeleton served
    (see module docstring for the derivation)."""
    if old_len <= 0:
        return max(1, old_min_count)
    return max(1, (old_min_count - 1) * new_len // old_len + 1)


@dataclass
class SkeletonRefreshStats:
    """Accounting for one skeleton's incremental refresh."""

    domain: str
    min_count_before: int
    min_count_after: int
    n_transactions_before: int
    n_transactions_after: int
    entries_before: int
    entries_after: int
    #: known candidates whose support was adjusted by delta arithmetic
    updated: int = 0
    #: itemsets newly frequent (border- or never-counted -> frequent)
    promoted: int = 0
    #: itemsets no longer frequent (frequent -> border or gone)
    demoted: int = 0
    #: never-counted candidates recounted over the full new database
    probed: int = 0
    #: levels that needed probes; all are answered from the new
    #: database's bitmap index, read (and packed, if no count has yet)
    #: at the first probe
    probe_scans: int = 0
    #: singletons whose frequent/infrequent status flipped — the L1
    #: supports whose dependent reduction constants and J^k_max inputs
    #: actually changed
    l1_crossings: int = 0
    seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "domain": self.domain,
            "min_count_before": self.min_count_before,
            "min_count_after": self.min_count_after,
            "n_transactions_before": self.n_transactions_before,
            "n_transactions_after": self.n_transactions_after,
            "entries_before": self.entries_before,
            "entries_after": self.entries_after,
            "updated": self.updated,
            "promoted": self.promoted,
            "demoted": self.demoted,
            "probed": self.probed,
            "probe_scans": self.probe_scans,
            "l1_crossings": self.l1_crossings,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class DeltaMaintenanceReport:
    """What :meth:`~repro.serve.service.QueryService.apply_delta` did."""

    base_fingerprint: str
    new_fingerprint: str
    delta: DatasetDelta
    #: result-cache entries invalidated (memory tier)
    results_invalidated: int = 0
    #: disk artifacts of the base dataset removed
    disk_invalidated: int = 0
    #: skeletons migrated to the new dataset incrementally
    skeletons_refreshed: int = 0
    #: skeletons dropped instead (guard trip or missing domain reference)
    skeletons_dropped: int = 0
    refreshes: List[SkeletonRefreshStats] = field(default_factory=list)
    wall_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "base_fingerprint": self.base_fingerprint,
            "new_fingerprint": self.new_fingerprint,
            "delta": self.delta.as_dict(),
            "results_invalidated": self.results_invalidated,
            "disk_invalidated": self.disk_invalidated,
            "skeletons_refreshed": self.skeletons_refreshed,
            "skeletons_dropped": self.skeletons_dropped,
            "refreshes": [r.as_dict() for r in self.refreshes],
            "wall_seconds": round(self.wall_seconds, 6),
        }


def refresh_skeleton(
    skeleton: Skeleton,
    new_db: TransactionDatabase,
    delta: DatasetDelta,
    min_count: Optional[int] = None,
    var: str = "S",
    guard=None,
) -> Tuple[Skeleton, SkeletonRefreshStats]:
    """Migrate one skeleton across a delta (see module docstring).

    ``min_count`` defaults to :func:`scaled_min_count`, preserving every
    relative-minsup serving guarantee; pass an explicit value to also
    strengthen/weaken the skeleton while migrating.  Raises
    :class:`~repro.errors.ExecutionError` when the skeleton does not
    describe the delta's base dataset or lacks a live domain reference;
    a guard trip during a delta or probe pass propagates as
    :class:`~repro.errors.RunInterrupted` (the caller must drop the
    skeleton, exactly like an interrupted cold build).
    """
    faults.fire("skeleton.refresh")
    if skeleton.dataset != delta.base_digest:
        raise ExecutionError(
            "refresh_skeleton: delta starts from dataset "
            f"{delta.base_digest[:16]}... but the skeleton was mined over "
            f"{skeleton.dataset[:16]}..."
        )
    domain = skeleton.domain_ref
    if domain is None:
        raise ExecutionError(
            "refresh_skeleton: skeleton carries no live domain reference; "
            "rebuild cold instead"
        )
    start = time.perf_counter()
    m_new = (
        min_count
        if min_count is not None
        else scaled_min_count(
            skeleton.min_count, skeleton.n_transactions, len(new_db)
        )
    )
    counters = OpCounters()

    # ------------------------------------------------------------------
    # Delta pass: exact adjustment of every known candidate that can
    # have changed (items ⊆ the delta's projected element set).
    # ------------------------------------------------------------------
    added_p = [domain.project(t) for t in delta.added]
    removed_p = [domain.project(t) for t in delta.removed]
    touched = frozenset(
        e for t in added_p for e in t
    ) | frozenset(e for t in removed_p for e in t)
    known: Dict[Itemset, int] = dict(skeleton.supports)
    known.update(skeleton.border)
    adjusted = dict(known)
    updated = 0
    if touched:
        relevant = relevant_candidates(known, touched)
        if added_p and relevant:
            counters.record_scan(len(added_p))
            add_counts = count_over(added_p, relevant, counters, var,
                                    guard=guard)
        else:
            add_counts = {}
        if removed_p and relevant:
            counters.record_scan(len(removed_p))
            rem_counts = count_over(removed_p, relevant, counters, var,
                                    guard=guard)
        else:
            rem_counts = {}
        for candidate in relevant:
            change = add_counts.get(candidate, 0) - rem_counts.get(candidate, 0)
            if change:
                adjusted[candidate] = known[candidate] + change
                updated += 1

    # ------------------------------------------------------------------
    # Levelwise completion at the new threshold: replay Apriori's
    # candidate generation; resolve from ``adjusted`` where known, probe
    # the new database's bitmap index (metered as ONE pass, shared by
    # every probing level) where not.
    # ------------------------------------------------------------------
    supports: Dict[Itemset, int] = {}
    border: Dict[Itemset, int] = {}
    probed = 0
    probe_scans = 0
    index: Optional[BitmapMatrix] = None

    # Level 1: frequent ∪ border of the base skeleton covers the whole
    # universe, so the adjusted map already holds every singleton.
    freq_prev: List[Itemset] = []
    for element in domain.elements:
        candidate = (element,)
        support = adjusted[candidate]
        if support >= m_new:
            supports[candidate] = support
            freq_prev.append(candidate)
        else:
            border[candidate] = support
    old_l1 = {c for c in skeleton.supports if len(c) == 1}
    l1_crossings = len(old_l1.symmetric_difference(supports))

    k = 2
    while freq_prev:
        if k == 2:
            elems = sorted(c[0] for c in freq_prev)
            cands = [
                (elems[i], elems[j])
                for i in range(len(elems))
                for j in range(i + 1, len(elems))
            ]
        else:
            # Canonical tuples are sorted by element id — for the
            # unconstrained lattice that IS the rank order, so the join
            # works on them directly.
            cands = join_and_prune(set(freq_prev), k)
        if not cands:
            break
        unknown = [c for c in cands if c not in adjusted]
        if unknown:
            if index is None:
                counters.record_scan(len(new_db))
                index = domain_view(new_db.bitmap(), domain)
            if guard is not None and getattr(guard, "enabled", False):
                guard.check(where=f"delta-probe L{k}")
            # Metered like a counting pass's ledger (``support_counted``
            # per level), so refresh stats stay in cold-mining units.
            adjusted.update(count_with_bitmap(index, unknown))
            counters.record_counted(var, k, len(unknown))
            probed += len(unknown)
            probe_scans += 1
        freq_prev = []
        for candidate in cands:
            support = adjusted[candidate]
            if support >= m_new:
                supports[candidate] = support
                freq_prev.append(candidate)
            else:
                border[candidate] = support
        k += 1

    refreshed = Skeleton(
        dataset=delta.new_digest,
        domain=skeleton.domain,
        min_count=m_new,
        supports=supports,
        border=border,
        n_transactions=len(new_db),
        nbytes=_approx_bytes(supports) + _approx_bytes(border),
        mining_counters=counters,
        domain_ref=domain,
    )
    stats = SkeletonRefreshStats(
        domain=skeleton.domain,
        min_count_before=skeleton.min_count,
        min_count_after=m_new,
        n_transactions_before=skeleton.n_transactions,
        n_transactions_after=len(new_db),
        entries_before=len(skeleton.supports) + len(skeleton.border),
        entries_after=len(supports) + len(border),
        updated=updated,
        promoted=sum(1 for c in supports if c not in skeleton.supports),
        demoted=sum(1 for c in skeleton.supports if c not in supports),
        probed=probed,
        probe_scans=probe_scans,
        l1_crossings=l1_crossings,
        seconds=time.perf_counter() - start,
    )
    return refreshed, stats

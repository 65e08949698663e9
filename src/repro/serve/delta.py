"""Skeleton maintenance under dataset churn: rebuild at a rescaled threshold.

:func:`refresh_skeleton` carries a cached frequency skeleton of the
*base* dataset across a :class:`~repro.db.delta.DatasetDelta`: it checks
that the delta starts from the skeleton's dataset, then rebuilds the
skeleton on the new version's bitmap index
(:func:`~repro.serve.skeleton.build_skeleton`, the engine's counting
rule) at the rescaled threshold below.  The result is a cold build over
the mutated dataset by construction, so refreshes chain without drift
(the delta differential suite asserts it per step and across chains).

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
through the oracle, so a refresh changes them exactly as a cold run
over the new version would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.db.delta import DatasetDelta
from repro.db.transactions import TransactionDatabase
from repro.errors import ExecutionError
from repro.runtime import faults
from repro.serve.skeleton import Skeleton, build_skeleton


def scaled_min_count(old_min_count: int, old_len: int, new_len: int) -> int:
    """The largest threshold serving every minsup the old skeleton served
    (see module docstring for the derivation)."""
    if old_len <= 0:
        return max(1, old_min_count)
    return max(1, (old_min_count - 1) * new_len // old_len + 1)


@dataclass
class SkeletonRefreshStats:
    """Accounting for one skeleton's refresh."""

    domain: str
    min_count_before: int
    min_count_after: int
    n_transactions_before: int
    n_transactions_after: int
    entries_before: int
    entries_after: int
    #: candidate sets the rebuild counted against the new version (its
    #: whole ``support_counted`` ledger)
    probed: int = 0
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
            "probed": self.probed,
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
    #: skeletons rebuilt over the new dataset and re-keyed
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
    var: str = "S",
    guard=None,
) -> Tuple[Skeleton, SkeletonRefreshStats]:
    """Carry one skeleton across a delta (see module docstring): rebuild
    it on the new version's index at :func:`scaled_min_count`.

    Raises :class:`~repro.errors.ExecutionError` when the skeleton does
    not describe the delta's base dataset or lacks a live domain
    reference; a guard trip during the rebuild propagates as
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
    m_new = scaled_min_count(
        skeleton.min_count, skeleton.n_transactions, len(new_db)
    )
    refreshed = build_skeleton(new_db, domain, m_new, var=var, guard=guard)
    stats = SkeletonRefreshStats(
        domain=skeleton.domain,
        min_count_before=skeleton.min_count,
        min_count_after=m_new,
        n_transactions_before=skeleton.n_transactions,
        n_transactions_after=len(new_db),
        entries_before=len(skeleton.supports),
        entries_after=len(refreshed.supports),
        probed=refreshed.mining_counters.total_counted,
        seconds=time.perf_counter() - start,
    )
    return refreshed, stats

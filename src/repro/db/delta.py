"""First-class dataset deltas: what changed between two database versions.

The serving layer treats a dataset as immutable content identified by an
order-sensitive digest (:mod:`repro.db.digest`).  Churn therefore never
mutates a :class:`~repro.db.transactions.TransactionDatabase` in place —
``db.append(...)`` / ``db.delete(...)`` return a **new** database plus a
:class:`DatasetDelta` describing exactly which transactions entered and
left.  A consumer holding state derived from ``base_digest`` can check
that the delta really starts from its version before it rebuilds that
state over the new database and re-keys it under ``new_digest``
(:mod:`repro.serve.delta`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

Transaction = Tuple[int, ...]


@dataclass(frozen=True)
class DatasetDelta:
    """An append/delete step between two immutable database versions.

    Attributes
    ----------
    base_digest / new_digest:
        Content digests (:func:`repro.db.digest.transactions_digest`) of
        the database before and after the step — the same strings the
        serving layer uses as dataset fingerprints, so a delta can be
        validated against live objects without trusting the caller.
    base_size / new_size:
        Transaction counts before and after (they drive ``min_count``
        rescaling under relative minsup).
    added / added_tids:
        Normalized (sorted, deduplicated) transactions appended, and the
        TIDs they occupy in the *new* database.
    removed / removed_tids:
        Transactions deleted, and the TIDs they occupied in the *base*
        database.  TIDs after a deletion shift down, which is why the
        delta carries the transactions themselves.
    """

    base_digest: str
    new_digest: str
    base_size: int
    new_size: int
    added: Tuple[Transaction, ...] = ()
    added_tids: Tuple[int, ...] = ()
    removed: Tuple[Transaction, ...] = ()
    removed_tids: Tuple[int, ...] = ()

    @property
    def churn_fraction(self) -> float:
        """Changed transactions relative to the base size (>= 0.0)."""
        if self.base_size == 0:
            return float(len(self.added) + len(self.removed))
        return (len(self.added) + len(self.removed)) / self.base_size

    @property
    def is_empty(self) -> bool:
        return not self.added and not self.removed

    def describes(self, base_digest: str, new_digest: str) -> bool:
        """Whether this delta is the step ``base -> new``."""
        return self.base_digest == base_digest and self.new_digest == new_digest

    def as_dict(self) -> Dict[str, Any]:
        """Flat summary for reports and the CLI's delta block."""
        return {
            "base_digest": self.base_digest,
            "new_digest": self.new_digest,
            "base_size": self.base_size,
            "new_size": self.new_size,
            "added": len(self.added),
            "removed": len(self.removed),
            "churn_fraction": round(self.churn_fraction, 6),
        }


def make_delta(
    base_transactions: Tuple[Transaction, ...],
    new_transactions: Tuple[Transaction, ...],
    base_digest: str,
    new_digest: str,
    added_tids: Tuple[int, ...] = (),
    removed_tids: Tuple[int, ...] = (),
) -> DatasetDelta:
    """Assemble a :class:`DatasetDelta` from resolved TID positions."""
    added = tuple(new_transactions[tid] for tid in added_tids)
    removed = tuple(base_transactions[tid] for tid in removed_tids)
    return DatasetDelta(
        base_digest=base_digest,
        new_digest=new_digest,
        base_size=len(base_transactions),
        new_size=len(new_transactions),
        added=added,
        added_tids=added_tids,
        removed=removed,
        removed_tids=removed_tids,
    )

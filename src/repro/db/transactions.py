"""The transaction database: the paper's ``trans(TID, Itemset)`` relation.

Transactions are stored as sorted tuples of int item ids.  The class keeps
its own :class:`~repro.db.stats.ScanStats` and offers :meth:`scan`, a
generator that records one database pass per full iteration — mining
strategies use it so the dovetailing experiments can report scan savings.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.db.delta import DatasetDelta, make_delta
from repro.db.digest import transactions_digest
from repro.db.stats import ScanStats
from repro.errors import DataError


class TransactionDatabase:
    """An in-memory transaction database with scan accounting.

    Parameters
    ----------
    transactions:
        Iterable of item-id collections.  Each transaction is deduplicated
        and stored sorted.  Empty transactions are kept (they simply never
        support anything) so TID arithmetic stays simple.

    Examples
    --------
    >>> db = TransactionDatabase([[3, 1], [1, 2], [1, 2, 3]])
    >>> len(db)
    3
    >>> db.support((1, 2))
    2
    """

    def __init__(self, transactions: Iterable[Sequence[int]]):
        self._transactions: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(set(t))) for t in transactions
        )
        self.stats = ScanStats()
        #: Monotonic churn counter: 0 for a freshly built database,
        #: parent + 1 for databases produced by :meth:`append`/:meth:`delete`.
        self.version = 0
        self._digest: Optional[str] = None
        #: packed bitmap indexes by representation (numpy or big-int)
        self._bitmaps: Dict[bool, object] = {}

    @classmethod
    def _from_normalized(
        cls,
        transactions: Tuple[Tuple[int, ...], ...],
        version: int,
        digest: str,
    ) -> "TransactionDatabase":
        """Internal fast path for churn: transactions already normalized
        and already hashed."""
        db = cls.__new__(cls)
        db._transactions = transactions
        db.stats = ScanStats()
        db.version = version
        db._digest = digest
        db._bitmaps = {}
        return db

    # ------------------------------------------------------------------
    # Basic access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        """Iterate without scan accounting (for tests and inspection)."""
        return iter(self._transactions)

    def __getitem__(self, tid: int) -> Tuple[int, ...]:
        return self._transactions[tid]

    @property
    def transactions(self) -> Tuple[Tuple[int, ...], ...]:
        """The transactions as an immutable tuple.

        Always the *same* tuple object for the life of the database —
        content-fingerprint memos and backend matrix caches pin digests
        by object identity, so both the immutability and the identity
        stability are load-bearing.  Mutation happens only through
        :meth:`append` / :meth:`delete`, which return new databases.
        """
        return self._transactions

    @property
    def digest(self) -> str:
        """The content digest (:func:`~repro.db.digest.transactions_digest`).

        Computed on first use, never in the constructor (a database that
        is only mined never pays for it), then cached: the content is
        immutable.  Databases made by :meth:`append`/:meth:`delete` carry
        the digest their delta already computed.  Two threads racing on
        the first use both compute the same string.
        """
        if self._digest is None:
            self._digest = transactions_digest(self._transactions)
        return self._digest

    def bitmap(self, use_numpy: Optional[bool] = None):
        """The per-item TID bitmap index of the transactions.

        A :class:`~repro.mining.bitmap.BitmapMatrix` packed by
        :func:`~repro.mining.bitmap.build_bitmap` (``use_numpy`` picks
        the representation, numpy when available by default).  Like
        :attr:`digest` it is built on first use, never in the
        constructor, and then kept: the content is immutable.  It is
        published only once complete, so a concurrent reader sees no
        index or a whole one; two threads racing on the first use both
        pack the same matrix.
        """
        from repro.mining.bitmap import HAVE_NUMPY, build_bitmap

        kind = HAVE_NUMPY if use_numpy is None else bool(use_numpy)
        bitmap = self._bitmaps.get(kind)
        if bitmap is None:
            bitmap = build_bitmap(self._transactions, use_numpy=kind)
            self._bitmaps[kind] = bitmap
        return bitmap

    def has_bitmap(self, use_numpy: Optional[bool] = None) -> bool:
        """Whether :meth:`bitmap` has packed this representation yet."""
        from repro.mining.bitmap import HAVE_NUMPY

        kind = HAVE_NUMPY if use_numpy is None else bool(use_numpy)
        return kind in self._bitmaps

    def item_universe(self) -> frozenset:
        """All item ids occurring in any transaction."""
        universe = set()
        for t in self._transactions:
            universe.update(t)
        return frozenset(universe)

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def scan(self, stats: Optional[ScanStats] = None) -> Iterator[Tuple[int, ...]]:
        """Yield every transaction, recording one full database pass.

        The pass is recorded up front (on both the database's own stats and
        the optional per-run ``stats``), matching the paper's model where a
        levelwise iteration always reads the whole database.
        """
        self.stats.record_scan(len(self._transactions))
        if stats is not None:
            stats.record_scan(len(self._transactions))
        return iter(self._transactions)

    # ------------------------------------------------------------------
    # Derived databases
    # ------------------------------------------------------------------
    def filtered(self, keep_items: Iterable[int]) -> "TransactionDatabase":
        """Project every transaction onto ``keep_items``.

        Used for transaction trimming: once the frequent items are known,
        infrequent items can never contribute to a frequent set, so
        dropping them shrinks every later scan.
        """
        keep = frozenset(keep_items)
        return TransactionDatabase(
            tuple(i for i in t if i in keep) for t in self._transactions
        )

    def projected(self, domain) -> "TransactionDatabase":
        """Project every transaction through a :class:`~repro.db.domain.Domain`."""
        return TransactionDatabase(domain.project(t) for t in self._transactions)

    # ------------------------------------------------------------------
    # Churn: appends and deletes as first-class deltas
    # ------------------------------------------------------------------
    def append(
        self, transactions: Iterable[Sequence[int]]
    ) -> Tuple["TransactionDatabase", DatasetDelta]:
        """Append transactions, returning ``(new_db, delta)``.

        The receiver is untouched (databases are immutable content); the
        new database carries ``version + 1`` and the delta records the
        appended transactions and their TIDs in the new database.  Skeleton
        maintenance (:mod:`repro.serve.delta`) checks the delta's base
        digest, then rebuilds each skeleton on the new version's index at
        the rescaled threshold.
        """
        added = tuple(tuple(sorted(set(t))) for t in transactions)
        combined = self._transactions + added
        new_digest = transactions_digest(combined)
        new_db = TransactionDatabase._from_normalized(
            combined, self.version + 1, new_digest
        )
        delta = make_delta(
            self._transactions,
            combined,
            base_digest=self.digest,
            new_digest=new_digest,
            added_tids=tuple(range(len(self._transactions), len(combined))),
        )
        return new_db, delta

    def delete(
        self, tids: Iterable[int]
    ) -> Tuple["TransactionDatabase", DatasetDelta]:
        """Delete transactions by TID, returning ``(new_db, delta)``.

        TIDs refer to positions in *this* database; the survivors keep
        their relative order (so the new content digest is deterministic)
        and are renumbered densely.  Unknown or duplicate TIDs raise
        :class:`~repro.errors.DataError` — a delta must describe exactly
        what happened.
        """
        removed_tids = tuple(sorted(set(tids)))
        for tid in removed_tids:
            if not 0 <= tid < len(self._transactions):
                raise DataError(
                    f"delete: TID {tid} out of range for database of "
                    f"{len(self._transactions)} transactions"
                )
        drop = set(removed_tids)
        survivors = tuple(
            t for tid, t in enumerate(self._transactions) if tid not in drop
        )
        new_digest = transactions_digest(survivors)
        new_db = TransactionDatabase._from_normalized(
            survivors, self.version + 1, new_digest
        )
        delta = make_delta(
            self._transactions,
            survivors,
            base_digest=self.digest,
            new_digest=new_digest,
            removed_tids=removed_tids,
        )
        return new_db, delta

    # ------------------------------------------------------------------
    # Direct support queries (reference implementations; miners count in
    # bulk via repro.mining.counting)
    # ------------------------------------------------------------------
    def support(self, itemset: Iterable[int]) -> int:
        """Absolute support of an itemset (number of containing transactions)."""
        target = frozenset(itemset)
        if not target:
            return len(self._transactions)
        return sum(1 for t in self._transactions if target.issubset(t))

    def support_fraction(self, itemset: Iterable[int]) -> float:
        """Relative support of an itemset."""
        if not self._transactions:
            return 0.0
        return self.support(itemset) / len(self._transactions)

    def min_count(self, minsup: float) -> int:
        """Absolute support threshold for a relative ``minsup`` in [0, 1].

        A set is frequent iff its absolute support is >= this value; the
        threshold is at least 1 so that empty data never declares anything
        frequent.
        """
        if not 0.0 < minsup <= 1.0:
            raise DataError(f"minsup must be in (0, 1], got {minsup}")
        import math

        return max(1, math.ceil(minsup * len(self._transactions)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(t) for t in self._transactions]
        avg = sum(sizes) / len(sizes) if sizes else 0.0
        return (
            f"TransactionDatabase({len(self._transactions)} transactions, "
            f"avg size {avg:.1f})"
        )

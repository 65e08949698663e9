"""Content digests of transaction lists.

One canonical digest is shared by every subsystem that keys on dataset
content — checkpoint fingerprints (:mod:`repro.runtime.checkpoint`), the
serving layer's dataset fingerprints (:mod:`repro.serve.fingerprint`),
the vertical/bitmap backends' content-keyed caches, and the churn layer's
:class:`~repro.db.delta.DatasetDelta` — so "same digest" means exactly
"same transactions in the same order" everywhere.
"""

from __future__ import annotations

import hashlib


def transactions_digest(transactions) -> str:
    """Order-sensitive SHA-256 digest of a transaction list.

    Streams each transaction's ids through the hash without
    materializing anything; two lists get the same digest iff they hold
    the same transactions in the same order (order matters — it
    determines counting dict order, which replay must reproduce).
    """
    digest = hashlib.sha256()
    for t in transactions:
        digest.update(",".join(map(str, t)).encode("ascii"))
        digest.update(b";")
    return digest.hexdigest()


def dataset_digest(db) -> str:
    """:func:`transactions_digest` of a whole transaction database (the
    database's cached :attr:`~repro.db.transactions.TransactionDatabase.digest`)."""
    return db.digest

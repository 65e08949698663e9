"""Content fingerprints for the serving layer's caches.

A cached answer is only as trustworthy as the identity it is keyed on.
The checkpoint machinery (:mod:`repro.runtime.checkpoint`) already
fingerprints runs, but its ``run_fingerprint`` binds to the *query text*
— which deliberately omits the support thresholds (``str(CFQ)`` renders
the constraint conjunction only) because checkpoint replay additionally
validates every stored counting pass against the live run.  A result
cache has no such second line of defense: a stale or mis-keyed entry is
returned verbatim.  The fingerprints here therefore close over every
input that can change the answer:

* ``dataset_fingerprint`` — the transaction content digest
  (:func:`repro.db.digest.transactions_digest`, sha256 over the ordered
  transaction list), which each database computes once and caches;
* ``domain_fingerprint`` — a domain's name, element universe, identity
  values, projection kind, and the full item catalog (every attribute
  column), so editing one price in ``itemInfo`` invalidates entries;
* ``query_fingerprint`` — the constraint text **plus** per-variable
  minsup, ``max_level``, and each variable's domain fingerprint;
* ``options_fingerprint`` / ``result_key`` — the result-affecting engine
  options (``dovetail``, ``use_reduction``, ``use_jmax``,
  ``reduction_rounds``) joined with the dataset and query fingerprints
  into the final cache key.

The counting ``backend`` is deliberately *excluded* from the key: every
backend is bit-identical on answers (the backend differential suite
proves it), so a result mined with one backend may be served to a query
requesting another.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any, Dict

from repro.core.query import CFQ
from repro.db.domain import Domain
from repro.db.transactions import TransactionDatabase

#: Engine options that change the answer artifacts (counters included)
#: and therefore participate in the result key; everything else —
#: backend choice, tracer, guard — does not.
RESULT_OPTIONS = ("dovetail", "use_reduction", "use_jmax", "reduction_rounds")


def _sha256(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _IdentityMemo:
    """Bounded ``id() -> (pinned object, digest)`` memo.

    Warm servings would otherwise re-hash an unchanged domain catalog on
    every lookup — the dominant cost of a cache hit.  The memo keeps a
    strong reference to each memoized object, so an id can never be
    recycled by a different object while its digest is live (the same
    invariant :class:`~repro.mining.backends.VerticalBackend` relies
    on); a domain builds its content immutably at construction, which
    is what makes identity a sound proxy for content *for the same
    object*.

    Thread safety: the memo dict is shared process-wide and the query
    server hashes from many worker threads at once.  An unlocked
    ``while len >= limit: pop(next(iter(...)))`` eviction loop races
    with concurrent stores (``RuntimeError: dictionary changed size
    during iteration``, or popping a key another thread just inserted),
    so lookup and store each hold ``_lock``; ``compute()`` runs outside
    it — hashing a large database under a global lock would serialize
    every cold fingerprint.  Two threads may both compute the digest of
    the same new object; both results are identical (content hash), so
    last-store-wins is harmless.
    """

    def __init__(self, limit: int = 16):
        self.limit = limit
        self._entries: Dict[int, tuple] = {}
        self._lock = threading.Lock()

    def digest(self, obj: Any, compute) -> str:
        with self._lock:
            memo = self._entries.get(id(obj))
            if memo is not None and memo[0] is obj:
                return memo[1]
        digest = compute()
        with self._lock:
            while len(self._entries) >= self.limit:
                self._entries.pop(next(iter(self._entries)))
            self._entries[id(obj)] = (obj, digest)
        return digest


_DOMAIN_MEMO = _IdentityMemo()


def dataset_fingerprint(db: TransactionDatabase) -> str:
    """Content digest of the transaction database (order-sensitive),
    computed once per database and cached on it."""
    return db.digest


def domain_fingerprint(domain: Domain) -> str:
    """Content digest of a domain: elements, identity values, catalog.

    Includes every catalog attribute column — a cached lattice is only
    reusable if the attribute values the constraints and bounds read are
    unchanged — and the projection mapping of derived domains (two Type
    domains with different item->type mappings project transactions
    differently even when their element universes coincide).
    """
    return _DOMAIN_MEMO.digest(domain, lambda: _domain_digest(domain))


def _domain_digest(domain: Domain) -> str:
    catalog = domain.catalog
    document: Dict[str, Any] = {
        "name": domain.name,
        "elements": list(domain.elements),
        "identity": [[e, domain.element_value(e)] for e in domain.elements],
        "derived": domain.is_derived,
        "attributes": {
            name: sorted(
                (int(item), value) for item, value in catalog.column(name).items()
            )
            for name in sorted(catalog.attribute_names)
        },
    }
    if domain.is_derived:
        mapping = getattr(domain, "_item_to_element", None) or {}
        document["item_to_element"] = sorted(
            (int(item), int(element)) for item, element in mapping.items()
        )
    return _sha256(json.dumps(document, sort_keys=True, default=str))


def query_fingerprint(cfq: CFQ, db: TransactionDatabase) -> str:
    """Identity of a query against a database's thresholds.

    ``str(cfq)`` covers the constraint conjunction and variables but NOT
    the support thresholds, so they are added explicitly — both the
    relative minsup and the absolute min_count it resolves to on this
    database (the engine consumes the absolute form, so that is what the
    answer actually depends on).
    """
    document = {
        "query": str(cfq),
        "minsup": {var: cfq.minsup_for(var) for var in cfq.variables},
        "min_count": {
            var: db.min_count(cfq.minsup_for(var)) for var in cfq.variables
        },
        "max_level": cfq.max_level,
        "domains": {
            var: domain_fingerprint(cfq.domains[var]) for var in cfq.variables
        },
    }
    return _sha256(json.dumps(document, sort_keys=True))


def options_fingerprint(options: Dict[str, Any]) -> str:
    """Digest of the result-affecting engine options (see
    :data:`RESULT_OPTIONS`); unknown keys are ignored."""
    relevant = {key: options.get(key) for key in RESULT_OPTIONS}
    return _sha256(json.dumps(relevant, sort_keys=True))


def result_key(cfq: CFQ, db: TransactionDatabase, options: Dict[str, Any]) -> str:
    """The full result-cache key: dataset + query + options."""
    return _sha256(
        json.dumps(
            {
                "dataset": dataset_fingerprint(db),
                "query": query_fingerprint(cfq, db),
                "options": options_fingerprint(options),
            },
            sort_keys=True,
        )
    )

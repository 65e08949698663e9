"""Frequency skeletons: unconstrained lattices as support oracles.

The batch tier of the serving layer rests on one observation: for a
fixed dataset and domain, **every** CFQ's lattice computation consumes
nothing from the database but candidate supports — and a complete
*unconstrained* frequent lattice mined at threshold ``m`` answers any
support lookup a query with ``min_count >= m`` can need.  The argument
(the soundness half of the differential suite):

* if a candidate's true support is ``>= min_count >= m``, every subset
  is also that frequent (anti-monotonicity), so plain Apriori at ``m``
  enumerated and kept the candidate — the skeleton returns its exact
  support;
* otherwise the skeleton returns either the exact support (if the
  candidate is frequent at ``m``) or the default ``0`` — and every such
  value is below ``min_count``, so ``frequent_only`` drops the
  candidate exactly as a counted run would.

A query served this way re-executes the *normal* engine — candidate
generation, reductions, ``J^k_max`` series, pruning attribution — with
only the database passes replaced by dictionary lookups, which is why
warm results are bit-identical to cold ones (same dicts in the same
insertion order) rather than merely equal.  This mirrors checkpoint
resume-by-replay (:mod:`repro.runtime.checkpoint`), with the skeleton
standing in for the stored count events.

Skeletons are mined once per (dataset, domain) at the **weakest**
threshold a batch needs (the union-of-thresholds rule of the batch
executor), counting as a cold query counts (on the database's bitmap
index unless a list backend is named), and cached; a churn step
rebuilds them the same way over the new version
(:mod:`repro.serve.delta`).  Mining is guard-aware — a skeleton whose
mining run was interrupted is discarded, never cached, so a partial
lattice can never masquerade as a complete oracle.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.query import CFQ
from repro.db.stats import OpCounters
from repro.db.transactions import TransactionDatabase
from repro.mining.backends import make_backend
from repro.mining.cap import cap_mine
from repro.mining.lattice import counting_source
from repro.serve.fingerprint import dataset_fingerprint, domain_fingerprint

Itemset = Tuple[int, ...]


@dataclass
class Skeleton:
    """One domain's complete unconstrained frequent lattice at a threshold.

    ``supports`` maps every itemset frequent at ``min_count`` (any size,
    singletons included) to its exact support; lookups for anything else
    default to 0, which is sound for queries whose threshold is at least
    ``min_count`` (see module docstring).
    """

    dataset: str
    domain: str
    min_count: int
    supports: Dict[Itemset, int]
    #: Transaction count of the dataset the skeleton was mined over
    #: (min_count rescaling under churn needs the old denominator).
    n_transactions: int = 0
    #: Approximate retained size, for the cache's bytes-held accounting.
    nbytes: int = 0
    #: Operation counts the skeleton mining itself spent (reported
    #: separately from any query's counters).
    mining_counters: OpCounters = field(default_factory=OpCounters)
    #: The live Domain object the skeleton was mined over.  Skeletons are
    #: memory-tier only, so holding the (immutable) domain is safe; the
    #: churn refresher needs it to rebuild over the new version.
    domain_ref: object = None

    def serves(self, min_count: int) -> bool:
        """Whether this skeleton can answer a query at ``min_count``."""
        return min_count >= self.min_count

    def lookup(self, candidate: Itemset) -> int:
        return self.supports.get(candidate, 0)


def skeleton_key(dataset_fp: str, domain_fp: str) -> str:
    """Cache key of one (dataset, domain) skeleton."""
    return f"{dataset_fp}:{domain_fp}"


def _approx_bytes(supports: Dict[Itemset, int]) -> int:
    """Retained-size estimate for one support dict.

    ``sys.getsizeof`` of the dict itself (which includes the hash-table
    slots, growing with the entry count) plus each key tuple and each
    value int — the parts the old tuple-cells-only formula undercounted,
    which let the skeleton tier's ``max_bytes`` bound hold several times
    its configured budget.  Shared small-int interning makes this an
    upper bound for the values, which is the safe direction for a cache
    bound.
    """
    total = sys.getsizeof(supports)
    for itemset, count in supports.items():
        total += sys.getsizeof(itemset) + sys.getsizeof(count)
    return total


def build_skeleton(
    db: TransactionDatabase,
    domain,
    min_count: int,
    var: str = "S",
    backend=None,
    guard=None,
    tracer=None,
) -> Skeleton:
    """Mine one (dataset, domain) skeleton at ``min_count``.

    Runs plain Apriori (an unconstrained :func:`~repro.mining.cap.cap_mine`)
    with the engine's counting rule: the backend is resolved as
    :class:`~repro.mining.dovetail.DovetailEngine` resolves it, so with
    none named it counts on the database's bitmap index and projects
    nothing, while a named list backend counts the domain-projected
    transactions.  A guard trip propagates as
    :class:`~repro.errors.RunInterrupted` — the caller must *not* cache
    anything in that case.
    """
    counters = OpCounters()
    backend = make_backend("bitmap" if backend is None else backend)
    result = cap_mine(
        var=var,
        domain=domain,
        transactions=counting_source(backend, db, domain),
        min_count=min_count,
        counters=counters,
        backend=backend,
        guard=guard,
        tracer=tracer,
    )
    supports: Dict[Itemset, int] = {}
    for sets in result.frequent.values():
        supports.update(sets)
    return Skeleton(
        dataset=dataset_fingerprint(db),
        domain=domain_fingerprint(domain),
        min_count=min_count,
        supports=supports,
        n_transactions=len(db),
        nbytes=_approx_bytes(supports),
        mining_counters=counters,
        domain_ref=domain,
    )


class SupportOracle:
    """Per-variable support lookup the engine substitutes for counting.

    Built by the service from one :class:`Skeleton` per query variable
    (two variables over the same domain share one skeleton object).  The
    :class:`~repro.mining.dovetail.DovetailEngine` calls :meth:`lookup`
    once per (variable, level) pass.
    """

    def __init__(self, skeletons: Dict[str, Skeleton]):
        self.skeletons = dict(skeletons)

    def lookup(self, var: str, candidates) -> Dict[Itemset, int]:
        """Supports of one pass's candidates, keyed in candidate order
        (the same insertion order a counted pass produces)."""
        skeleton = self.skeletons[var]
        get = skeleton.supports.get
        return {candidate: get(candidate, 0) for candidate in candidates}

    @classmethod
    def for_query(
        cls,
        cfq: CFQ,
        db: TransactionDatabase,
        skeletons: Dict[str, Optional[Skeleton]],
    ) -> Optional["SupportOracle"]:
        """An oracle for ``cfq``, or ``None`` when any variable lacks a
        servable skeleton (threshold too strong or skeleton absent)."""
        chosen: Dict[str, Skeleton] = {}
        for var in cfq.variables:
            skeleton = skeletons.get(var)
            if skeleton is None:
                return None
            if not skeleton.serves(db.min_count(cfq.minsup_for(var))):
                return None
            chosen[var] = skeleton
        return cls(chosen)

"""The CAP-style constrained levelwise lattice for one set variable.

:class:`ConstrainedLattice` is the workhorse every strategy in this
library is built from:

* with no pruning installed it is exactly classic **Apriori**;
* with the user's 1-var constraints compiled in
  (:func:`repro.constraints.pruners.compile_onevar`) it is **CAP**
  (Ng et al., SIGMOD 1998), handling all four constraint classes:
  item filters (succinct + anti-monotone), required buckets (succinct
  only — the member-generating-function case), anti-monotone checks, and
  post-filters;
* driven by :class:`repro.mining.dovetail.DovetailEngine` with reduced
  2-var constraints installed after level 1 and ``V^k`` bounds installed
  every level, it is the paper's optimized strategy.

The lattice is a *stepper*: callers ask for the next level's candidates,
count them (possibly sharing a database scan with another lattice — the
dovetailing of Section 5.2), and feed the counts back.  This inversion is
what lets two lattices interleave level by level.

Rank space
----------
Candidate generation uses a per-run *rank* ordering that places the
elements of the first required bucket ahead of all others.  A rank-sorted
candidate then hits the bucket iff its first element does — a structural
property of generation, not a constraint check — which is how CAP meets
condition (2) of ccc-optimality (Definition 6) for succinct constraints.
The ordering is frozen the first time level-2 candidates are requested;
pruners installed later (the dynamic ``V^k`` bounds) may only be
anti-monotone checks, which do not interact with the ordering.

Level 2 is read off the rank order in slices: row ``i`` pairs the
``i``-th ranked element with every later one, and with a bucket only the
rows of bucket elements are used, so no pair outside it is ever built.
Each pair is made canonical once, as it is built.  Levels 3 and up join
rank-sorted tuples and make each survivor canonical once.  Either way
the installed anti-monotone checks then run once per canonical
candidate, one check at a time over the whole level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.constraints.pruners import CompiledPruning
from repro.db.stats import OpCounters
from repro.errors import ExecutionError
from repro.mining.backends import guarded_count, make_backend
from repro.mining.bitmap import BitmapBackend, DomainIndex
from repro.mining.candidates import generate_pairs, join_and_prune
from repro.mining.counting import count_singletons, frequent_only
from repro.mining.itemsets import Itemset, canonical
from repro.runtime.guard import resolve_guard

RankTuple = Tuple[int, ...]


@dataclass
class LatticeResult:
    """The outcome of one variable's lattice computation.

    Attributes
    ----------
    var:
        The variable name.
    frequent:
        Post-filtered frequent valid itemsets per level (canonical
        element-id tuples mapped to absolute support).
    level1_supports:
        Supports of *all* frequent filter-passing singletons — the set the
        paper calls ``L1``, whose values parameterize the quasi-succinct
        reduction.
    counted_per_level:
        Number of candidate sets whose support was counted, per level.
    prune_counts:
        Per-level pruning attribution: how many sets each installed
        pruner removed before counting (keys like ``"filter:<source>"``,
        ``"bucket:<source>"``, ``"am:<source>"``), plus ``"infrequent"``
        (counted but below threshold) and ``"final_verification"``
        (dropped by the post-filter re-check in :meth:`result`).  This
        is the raw material of the run report's pruning table.
    """

    var: str
    frequent: Dict[int, Dict[Itemset, int]]
    level1_supports: Dict[int, int]
    counted_per_level: Dict[int, int]
    prune_counts: Dict[int, Dict[str, int]] = field(default_factory=dict)

    def all_sets(self) -> Dict[Itemset, int]:
        """All frequent valid itemsets across levels."""
        merged: Dict[Itemset, int] = {}
        for sets in self.frequent.values():
            merged.update(sets)
        return merged

    @property
    def max_level(self) -> int:
        """Largest level with a frequent valid set (0 if none)."""
        levels = [k for k, sets in self.frequent.items() if sets]
        return max(levels) if levels else 0


def counting_source(backend, db, domain):
    """What a lattice over ``domain`` counts against under ``backend``.

    The bitmap backend gets a :class:`~repro.mining.bitmap.DomainIndex`
    (the domain's view of the database's cached bitmap index: nothing is
    projected); every other backend gets the domain-projected
    transactions, the list path the differential suites compare against.
    """
    if isinstance(backend, BitmapBackend):
        return DomainIndex(db, domain)
    return [domain.project(t) for t in db.transactions]


class ConstrainedLattice:
    """Levelwise miner for one variable under operational pruning forms.

    Parameters
    ----------
    var:
        Variable name ("S" or "T" in the paper's queries).
    elements:
        The element universe the variable's sets draw from (a
        :class:`~repro.db.domain.Domain`'s ``elements``, or any iterable
        of ids for plain frequency mining).
    transactions:
        The domain-projected transactions (tuples of element ids); a
        :class:`~repro.mining.bitmap.DomainIndex`, the domain's view of
        the database's bitmap index, which the bitmap backend counts
        against with nothing projected, copied or trimmed; or ``None``
        for a lattice whose supports all come from elsewhere (a support
        oracle): it then holds no transaction list, and counting against
        it raises :class:`~repro.errors.ExecutionError`.
    min_count:
        Absolute support threshold.
    pruning:
        Initially installed pruning (the variable's own 1-var
        constraints); more may be installed between levels via
        :meth:`install_pruning`.
    counters:
        Shared operation counters; created if omitted.
    max_level:
        Optional hard cap on the lattice depth.
    """

    def __init__(
        self,
        var: str,
        elements: Sequence[int],
        transactions: Optional[Sequence[Tuple[int, ...]]],
        min_count: int,
        pruning: Optional[CompiledPruning] = None,
        counters: Optional[OpCounters] = None,
        max_level: Optional[int] = None,
        keep_candidates: bool = False,
        backend=None,
        guard=None,
    ):
        if min_count < 1:
            raise ExecutionError(f"min_count must be >= 1, got {min_count}")
        self.guard = resolve_guard(guard)
        self.var = var
        self.elements: Tuple[int, ...] = tuple(elements)
        self._transactions = (
            transactions
            if transactions is None or isinstance(transactions, DomainIndex)
            else list(transactions)
        )
        self.min_count = min_count
        self.pruning = pruning if pruning is not None else CompiledPruning()
        self.counters = counters if counters is not None else OpCounters()
        self.max_level_cap = max_level

        self.level = 0
        self.active = True
        self.frequent: Dict[int, Dict[Itemset, int]] = {}
        self.level1_supports: Dict[int, int] = {}
        self.counted_per_level: Dict[int, int] = {}
        self.keep_candidates = keep_candidates
        self.candidate_log: Dict[int, List[Itemset]] = {}
        self.backend = make_backend(backend if backend is not None else "hybrid")
        # Pruning attribution (level -> reason -> count): plain integer
        # bookkeeping, always on — the observability layer's trace spans
        # and run-report pruning table read it after the fact, so a
        # tracing-off run pays only these increments (on pruned branches).
        self.prune_counts: Dict[int, Dict[str, int]] = {}

        self._universe = self._admit(self.elements, self.pruning.filters)
        self._record_level1_checks(len(self.elements))
        self._frozen = False
        self._rank: Dict[int, int] = {}
        self._order: List[int] = []
        self._has_buckets = False
        self._primary_bucket_size = 0
        self._primary_bucket_source: Optional[str] = None
        self._prev_ranked: Set[RankTuple] = set()
        self._pending: Optional[List[Itemset]] = None  # canonical candidates awaiting counts
        self._pending_level = 0

    @property
    def transactions(self):
        """What counting passes read: the (trimmed) projected
        transactions, or the :class:`~repro.mining.bitmap.DomainIndex`."""
        if self._transactions is None:
            raise ExecutionError(
                f"lattice {self.var!r} holds no transactions (its supports "
                "come from a support oracle); it cannot count"
            )
        return self._transactions

    # ------------------------------------------------------------------
    # Stepper interface
    # ------------------------------------------------------------------
    def next_level(self) -> int:
        """The level whose candidates would be produced next."""
        return self.level + 1

    def candidates(self) -> List[Itemset]:
        """Produce the next level's candidates (canonical tuples).

        Level 1 candidates are the filter-passing singleton elements; the
        caller counts them and feeds the supports to :meth:`absorb`.
        Returns an empty list when the lattice has gone inactive.
        """
        if not self.active:
            return []
        k = self.level + 1
        if self.max_level_cap is not None and k > self.max_level_cap:
            self.active = False
            return []
        if k == 1:
            cands = [(e,) for e in self._universe]
        elif k == 2:
            cands = self._level2_candidates()
        else:
            cands = self._deeper_candidates(k)
        if not cands:
            self.active = False
            return []
        # Budget enforcement happens the moment a level's candidates
        # exist, before any counting work is spent on them.
        self.guard.check_candidates(len(cands), self.var, k)
        self._pending = cands
        self._pending_level = k
        return cands

    def absorb(self, support: Mapping[Itemset, int]) -> None:
        """Feed back the supports of the pending candidates."""
        if self._pending is None:
            raise ExecutionError("absorb() called with no pending candidates")
        k = self._pending_level
        self.counted_per_level[k] = self.counted_per_level.get(k, 0) + len(self._pending)
        if self.keep_candidates:
            self.candidate_log.setdefault(k, []).extend(self._pending)
        freq = frequent_only(dict(support), self.min_count)
        if len(freq) < len(self._pending):
            self._note_pruned(k, "infrequent", len(self._pending) - len(freq))
        self._pending = None
        self.level = k
        if k == 1:
            self.level1_supports = {items[0]: n for items, n in freq.items()}
            self._trim_transactions()
            self.frequent[1] = dict(freq)
        else:
            self.frequent[k] = freq
        self._prev_ranked = (
            {self._to_ranked(itemset) for itemset in freq} if self._frozen else set()
        )
        if not freq:
            self.active = False

    def count_and_absorb(self) -> bool:
        """Run one full level against this lattice's own transactions.

        Returns whether the lattice is still active.  Used by the
        single-variable strategies; the dovetail engine counts the two
        variables' candidates in a shared scan instead.
        """
        cands = self.candidates()
        if not cands:
            return False
        k = self._pending_level
        self.counters.record_scan(len(self.transactions))
        self.absorb(self.count(cands, k))
        self.guard.level_completed(self.var, k)
        return self.active

    def count(self, candidates: List[Itemset], k: int) -> Dict[Itemset, int]:
        """One counting pass over :attr:`transactions`.

        Level 1 over a projected list is the one-pass singleton kernel;
        every other pass, and level 1 over a
        :class:`~repro.mining.bitmap.DomainIndex` (row popcounts), goes
        through the backend.  Either way the level-1 supports are keyed
        in the iteration order of ``set`` over the elements, the order
        :func:`~repro.mining.counting.count_singletons` yields —
        answer-bearing, since pair formation iterates these dicts.
        """
        transactions = self.transactions
        if k == 1:
            elements = (c[0] for c in candidates)
            if not isinstance(transactions, DomainIndex):
                raw = count_singletons(transactions, elements, self.counters,
                                       self.var, guard=self.guard)
                return {(e,): n for e, n in raw.items()}
            candidates = [(e,) for e in set(elements)]
        return guarded_count(self.backend, transactions, candidates, k,
                             self.counters, self.var, guard=self.guard)

    # ------------------------------------------------------------------
    # Pruning installation (the reduction / Jmax hooks)
    # ------------------------------------------------------------------
    def install_pruning(self, extra: CompiledPruning) -> None:
        """Conjoin additional pruning, e.g. the reduced 1-var constraints
        of Figures 2/3 after level 1, or a tightened ``V^k`` bound.

        Item filters and buckets may only be installed before the ordering
        freezes (i.e. before level-2 candidates are generated);
        anti-monotone checks and post-filters may arrive at any time.
        """
        if self._frozen and (extra.filters or extra.buckets):
            raise ExecutionError(
                "item filters and buckets must be installed before level 2"
            )
        self.pruning.extend(extra)
        if extra.filters:
            # The universe already passed the earlier filters: only the
            # new ones (e.g. reduced quasi-succinct constraints arriving
            # after level 1) are tested, and own what they exclude.
            self._universe = self._admit(self._universe, extra.filters)
            if self.level >= 1:
                keep = set(self._universe)
                self.level1_supports = {
                    e: n for e, n in self.level1_supports.items() if e in keep
                }
                if 1 in self.frequent:
                    self.frequent[1] = {
                        (e,): n for e, n in self.level1_supports.items()
                    }
                self._trim_transactions()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> LatticeResult:
        """Final frequent valid sets, with post-filters applied.

        Post-filter invocations are metered as final-verification checks
        (``pair_checks``), matching the paper's accounting where the extra
        verification for induced weaker constraints happens outside the
        lattice computation.
        """
        needs_final = bool(
            self.pruning.post_filters or self.pruning.buckets or self.pruning.am_checks
        )
        filtered: Dict[int, Dict[Itemset, int]] = {}
        # Copy, never mutate, the lattice's attribution: result() must be
        # re-runnable without double-counting the final verification.
        prune_counts = {k: dict(v) for k, v in self.prune_counts.items()}
        for k, sets in self.frequent.items():
            if not needs_final:
                filtered[k] = dict(sets)
                continue
            kept: Dict[Itemset, int] = {}
            for itemset, n in sets.items():
                # Re-apply the full validity test: level-1 sets were counted
                # regardless of buckets (the MGF needs their supports), and
                # dynamic anti-monotone bounds may have tightened since a
                # set was admitted.  These are final-verification checks.
                n_checks = len(self.pruning.am_checks) + len(self.pruning.post_filters)
                self.counters.pair_checks += n_checks
                if self.pruning.lattice_valid(itemset) and (
                    self.pruning.post_filters_pass(itemset)
                ):
                    kept[itemset] = n
            filtered[k] = kept
            dropped = len(sets) - len(kept)
            if dropped:
                counts = prune_counts.setdefault(k, {})
                counts["final_verification"] = (
                    counts.get("final_verification", 0) + dropped
                )
        return LatticeResult(
            var=self.var,
            frequent=filtered,
            level1_supports=dict(self.level1_supports),
            counted_per_level=dict(self.counted_per_level),
            prune_counts=prune_counts,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _note_pruned(self, level: int, reason: str, n: int = 1) -> None:
        counts = self.prune_counts.setdefault(level, {})
        counts[reason] = counts.get(reason, 0) + n

    def _admit(self, elements, filters) -> Tuple[int, ...]:
        """The elements every filter in ``filters`` admits.  Each rejected
        element is attributed to the first filter rejecting it (one walk
        per filter installation, not per level)."""
        if not filters:
            return tuple(elements)
        admitted: List[int] = []
        for element in elements:
            for item_filter in filters:
                if not item_filter.admits(element):
                    self._note_pruned(1, f"filter:{item_filter.source}")
                    break
            else:
                admitted.append(element)
        return tuple(admitted)

    def _record_level1_checks(self, n_elements: int) -> None:
        # Constructing the filtered universe evaluates each element against
        # the installed succinct constraints — the level-1 constraint
        # checks that Definition 6's condition (2) permits.
        if not self.pruning.is_trivial:
            self.counters.record_check(1, n_elements)

    def _trim_transactions(self) -> None:
        # An index view needs no trimming: a candidate's support reads
        # only its own items' rows.
        if self._transactions is None or isinstance(
            self._transactions, DomainIndex
        ):
            return
        keep = frozenset(self.level1_supports)
        self._transactions = [
            tuple(i for i in t if i in keep) for t in self._transactions
        ]

    def _freeze_order(self) -> None:
        if self._frozen:
            return
        # Only ONE bucket can be enforced structurally (the MGF ordering);
        # a set missing the other buckets may still grow into them, so
        # they are applied as final validity filters only (see DESIGN.md).
        # The smallest bucket is chosen as the structural one, maximizing
        # pruning.
        live = set(self.level1_supports)
        buckets = [b.bucket & live for b in self.pruning.buckets]
        self._has_buckets = bool(buckets)
        if buckets:
            smallest = min(range(len(buckets)), key=lambda i: len(buckets[i]))
            primary: FrozenSet[int] = frozenset(buckets[smallest])
            self._primary_bucket_source = self.pruning.buckets[smallest].source
        else:
            primary = frozenset()
            self._primary_bucket_source = None
        front = sorted(primary)
        back = sorted(e for e in self.level1_supports if e not in primary)
        self._order = front + back
        self._rank = {e: r for r, e in enumerate(self._order)}
        self._primary_bucket_size = len(front)
        self._prev_ranked = {
            self._to_ranked(itemset) for itemset in self.frequent.get(1, {})
        }
        self._frozen = True

    def _to_ranked(self, itemset: Itemset) -> RankTuple:
        return tuple(sorted(self._rank[e] for e in itemset))

    def _to_canonical(self, ranked: RankTuple) -> Itemset:
        order = self._order
        return canonical([order[r] for r in ranked])

    def _ranked_hits_buckets(self, ranked: RankTuple) -> bool:
        return not (self._has_buckets and ranked[0] >= self._primary_bucket_size)

    def _am_filter(self, k: int, candidates: List[Itemset]) -> List[Itemset]:
        """The canonical ``candidates`` passing every anti-monotone check.

        Each candidate costs ``len(checks)`` larger-set constraint checks,
        and each rejected one is attributed to the first check it fails.
        The checks run one at a time over the level; their ``am:`` keys
        are noted in the order their first rejection comes in candidate
        order, as a per-candidate loop would note them.
        """
        checks = self.pruning.am_checks
        if not checks or not candidates:
            return candidates
        self.counters.record_check(k, len(checks) * len(candidates))
        positions = list(range(len(candidates)))
        rejections = []
        for check in checks:
            holds = check.holds
            kept = [p for p in positions if holds(candidates[p])]
            if len(kept) < len(positions):
                first = next(
                    (p for p, q in zip(positions, kept) if p != q),
                    positions[len(kept)],
                )
                rejections.append((first, check.source, len(positions) - len(kept)))
            positions = kept
            if not positions:
                break
        for __, source, n in sorted(rejections):
            self._note_pruned(k, f"am:{source}", n)
        return [candidates[p] for p in positions]

    def _level2_candidates(self) -> List[Itemset]:
        self._freeze_order()
        if self._has_buckets and self._primary_bucket_size == 0:
            return []
        rows = self._primary_bucket_size if self._has_buckets else None
        pairs = self._am_filter(2, generate_pairs(self._order, rows))
        # Bucket-pruned pairs need no per-pair bookkeeping: ranks are
        # sorted, so a pair misses the structural bucket iff its lower
        # rank does, i.e. both elements lie outside it — C(outside, 2).
        outside = len(self._order) - (rows or 0)
        if rows and outside >= 2:
            self._note_pruned(
                2,
                f"bucket:{self._primary_bucket_source}",
                outside * (outside - 1) // 2,
            )
        return pairs

    def _deeper_candidates(self, k: int) -> List[Itemset]:
        ranked = join_and_prune(self._prev_ranked, k, self._ranked_hits_buckets)
        return self._am_filter(k, [self._to_canonical(rt) for rt in ranked])

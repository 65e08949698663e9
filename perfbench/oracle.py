"""An answer oracle for constrained frequent set queries that shares no
code with ``repro``.

It works from the raw inputs alone: transactions as tuples of item ids,
and plain ``{item: price}`` / ``{item: type}`` tables.

* Supports come from its own bitsets: one Python int per item whose bit
  ``s`` is set when the transaction in slot ``s`` holds the item.  Slots
  are never renumbered, so deleting a transaction clears its bits and
  appending one takes a fresh slot.
* Frequent itemsets of a domain are enumerated level by level, a
  ``k``-set being counted only when all its ``(k-1)``-subsets are
  frequent (support is anti-monotone).  The tests check this against
  power-set enumeration.
* Constraints are evaluated by their definitions: ``min``/``max``/``sum``
  of ``Price`` over the set, and equality of the sets of ``Type``
  values.
* The valid pairs are every (S-set, T-set) of frequent sets, both
  satisfying their 1-var constraints, that satisfy the 2-var one.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

Itemset = Tuple[int, ...]


def _popcount(mask: int) -> int:
    return mask.bit_count()


if not hasattr(int, "bit_count"):  # Python < 3.10
    def _popcount(mask: int) -> int:  # noqa: F811
        return bin(mask).count("1")


def min_count(minsup: float, n_transactions: int) -> int:
    """The least support count with ``count >= minsup * n``, taking the
    threshold as the decimal the user wrote."""
    return max(1, math.ceil(Fraction(repr(minsup)) * n_transactions))


class Bitsets:
    """Per-item transaction bitsets over stable slots."""

    def __init__(self, transactions: Iterable[Sequence[int]] = ()):
        self._rows: Dict[int, bytearray] = {}
        self._slots: List[Optional[Tuple[int, ...]]] = []
        self._bits: Dict[int, int] = {}
        self._dirty = True
        self.live = 0
        for t in transactions:
            self.add(t)

    def __len__(self) -> int:
        return self.live

    def add(self, transaction: Sequence[int]) -> int:
        slot = len(self._slots)
        items = tuple(sorted(set(transaction)))
        self._slots.append(items)
        byte, bit = divmod(slot, 8)
        for item in items:
            row = self._rows.get(item)
            if row is None:
                row = self._rows[item] = bytearray()
            if len(row) <= byte:
                row.extend(bytes(byte + 1 - len(row)))
            row[byte] |= 1 << bit
        self.live += 1
        self._dirty = True
        return slot

    def remove(self, slot: int) -> None:
        items = self._slots[slot]
        if items is None:
            raise KeyError(f"slot {slot} already removed")
        byte, bit = divmod(slot, 8)
        for item in items:
            self._rows[item][byte] &= ~(1 << bit) & 0xFF
        self._slots[slot] = None
        self.live -= 1
        self._dirty = True

    def item_bits(self) -> Dict[int, int]:
        if self._dirty:
            self._bits = {
                item: int.from_bytes(row, "little") for item, row in self._rows.items()
            }
            self._dirty = False
        return self._bits

    def support(self, itemset: Iterable[int]) -> int:
        bits = self.item_bits()
        mask = -1
        for item in itemset:
            mask &= bits.get(item, 0)
        if mask == -1:
            return self.live
        return _popcount(mask)


def frequent_itemsets(
    bitsets: Bitsets, domain: Iterable[int], threshold: int
) -> Dict[Itemset, int]:
    """Every non-empty itemset over ``domain`` with support >= ``threshold``."""
    bits = bitsets.item_bits()
    level: Dict[Itemset, int] = {}
    masks: Dict[Itemset, int] = {}
    for item in sorted(set(domain)):
        mask = bits.get(item, 0)
        support = _popcount(mask)
        if support >= threshold:
            level[(item,)] = support
            masks[(item,)] = mask
    found: Dict[Itemset, int] = dict(level)
    while level:
        by_prefix: Dict[Itemset, List[int]] = defaultdict(list)
        for itemset in level:
            by_prefix[itemset[:-1]].append(itemset[-1])
        next_level: Dict[Itemset, int] = {}
        next_masks: Dict[Itemset, int] = {}
        for prefix, lasts in by_prefix.items():
            lasts.sort()
            for i, a in enumerate(lasts):
                base = masks[prefix + (a,)]
                for b in lasts[i + 1:]:
                    candidate = prefix + (a, b)
                    if any(
                        candidate[:j] + candidate[j + 1:] not in level
                        for j in range(len(candidate) - 2)
                    ):
                        continue
                    mask = base & bits[b]
                    support = _popcount(mask)
                    if support >= threshold:
                        next_level[candidate] = support
                        next_masks[candidate] = mask
        found.update(next_level)
        level, masks = next_level, next_masks
    return found


# ----------------------------------------------------------------------
# Constraint forms
# ----------------------------------------------------------------------
_OPS = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


def _aggregate(func: str, values: List) -> object:
    if func == "sum":
        return sum(values)
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    raise ValueError(f"aggregate {func!r} is not one the oracle evaluates")


def satisfies_onevar(
    itemset: Itemset,
    constraints: Sequence[Tuple],
    prices: Mapping[int, int],
    types: Mapping[int, str],
) -> bool:
    """``(func, attr, op, const)`` with func in min/max/sum over Price,
    or ``("typeset", "Type", "=", frozenset)`` for ``S.Type = {...}``."""
    for func, attr, op, const in constraints:
        if func == "typeset":
            if frozenset(types[i] for i in itemset) != frozenset(const):
                return False
            continue
        if attr != "Price":
            raise ValueError(f"attribute {attr!r} is not one the oracle evaluates")
        value = _aggregate(func, [prices[i] for i in itemset])
        if not _OPS[op](value, const):
            return False
    return True


def valid_pairs(
    s_sets: Iterable[Itemset],
    t_sets: Iterable[Itemset],
    twovar: Tuple[str, ...],
    prices: Mapping[int, int],
    types: Mapping[int, str],
) -> Set[Tuple[Itemset, Itemset]]:
    """The (S, T) pairs satisfying the 2-var constraint."""
    kind = twovar[0]
    s_sets = list(s_sets)
    t_sets = list(t_sets)
    pairs: Set[Tuple[Itemset, Itemset]] = set()
    if kind == "type_eq":
        by_types: Dict[frozenset, List[Itemset]] = defaultdict(list)
        for t in t_sets:
            by_types[frozenset(types[i] for i in t)].append(t)
        for s in s_sets:
            for t in by_types.get(frozenset(types[i] for i in s), ()):
                pairs.add((s, t))
        return pairs
    if kind == "max_le_min":
        # max(S.Price) <= min(T.Price)
        keyed = sorted((min(prices[i] for i in t), t) for t in t_sets)
        keys = [k for k, _ in keyed]
        for s in s_sets:
            start = bisect.bisect_left(keys, max(prices[i] for i in s))
            pairs.update((s, t) for _, t in keyed[start:])
        return pairs
    if kind == "sum_le_sum":
        # sum(S.Price) <= sum(T.Price)
        keyed = sorted((sum(prices[i] for i in t), t) for t in t_sets)
        keys = [k for k, _ in keyed]
        for s in s_sets:
            start = bisect.bisect_left(keys, sum(prices[i] for i in s))
            pairs.update((s, t) for _, t in keyed[start:])
        return pairs
    raise ValueError(f"2-var form {kind!r} is not one the oracle evaluates")


class Expected:
    """The oracle's answer to one query."""

    def __init__(
        self,
        frequent: Dict[str, Dict[Itemset, int]],
        pairs: Set[Tuple[Itemset, Itemset]],
    ):
        self.frequent = frequent
        self.pairs = pairs


def answer(
    bitsets: Bitsets,
    domains: Mapping[str, Sequence[int]],
    minsup: Mapping[str, float],
    onevar: Mapping[str, Sequence[Tuple]],
    twovar: Tuple[str, ...],
    prices: Mapping[int, int],
    types: Mapping[int, str],
    enumerate_sets=None,
) -> Expected:
    """Answer one 2-variable CFQ.  ``enumerate_sets(domain, threshold)``
    may be passed to share enumerations between queries."""
    enumerate_sets = enumerate_sets or (
        lambda domain, threshold: frequent_itemsets(bitsets, domain, threshold)
    )
    frequent = {
        var: enumerate_sets(tuple(domains[var]), min_count(minsup[var], len(bitsets)))
        for var in ("S", "T")
    }
    survivors = {
        var: [
            s for s in frequent[var]
            if satisfies_onevar(s, onevar.get(var, ()), prices, types)
        ]
        for var in ("S", "T")
    }
    pairs = valid_pairs(survivors["S"], survivors["T"], twovar, prices, types)
    return Expected(frequent, pairs)


class Enumerations:
    """Memoized frequent-itemset enumeration for one database version.

    Frequent sets over a sub-domain at a higher threshold are a filter
    of those over a super-domain at a lower one, so one enumeration per
    version serves every query on it."""

    def __init__(self, bitsets: Bitsets):
        self.bitsets = bitsets
        self._cache: List[Tuple[frozenset, int, Dict[Itemset, int]]] = []

    def prime(self, domain: Iterable[int], threshold: int) -> None:
        self._cache.append(
            (frozenset(domain), threshold, frequent_itemsets(self.bitsets, domain, threshold))
        )

    def __call__(self, domain: Sequence[int], threshold: int) -> Dict[Itemset, int]:
        wanted = frozenset(domain)
        for universe, low, sets in self._cache:
            if wanted <= universe and low <= threshold:
                return {
                    s: n for s, n in sets.items()
                    if n >= threshold and wanted.issuperset(s)
                }
        self.prime(domain, threshold)
        return self._cache[-1][2]


# ----------------------------------------------------------------------
# Checking a reported answer
# ----------------------------------------------------------------------
def check(
    expected: Expected,
    frequent_valid: Mapping[str, Iterable[Tuple[Sequence[int], int]]],
    pairs: Iterable[Tuple[Sequence[int], Sequence[int]]],
) -> List[str]:
    """Compare a reported answer with the oracle's; returns the
    mismatches (empty when the answer is right).

    ``frequent_valid`` maps each variable to ``(itemset, support)``
    entries: every reported set must be frequent in its domain with
    exactly the oracle's support.  ``pairs`` must equal the oracle's
    valid pairs as a set, without repeats.
    """
    problems: List[str] = []
    for var, entries in frequent_valid.items():
        truth = expected.frequent[var]
        for items, support in entries:
            key = tuple(items)
            if key not in truth:
                problems.append(f"{var}: reported set {key} is not frequent in its domain")
            elif truth[key] != support:
                problems.append(
                    f"{var}: set {key} reported with support {support}, oracle {truth[key]}"
                )
    reported = [(tuple(s), tuple(t)) for s, t in pairs]
    as_set = set(reported)
    if len(as_set) != len(reported):
        problems.append(f"{len(reported) - len(as_set)} repeated pair(s)")
    missing = expected.pairs - as_set
    extra = as_set - expected.pairs
    if missing:
        problems.append(f"{len(missing)} valid pair(s) missing, e.g. {min(missing)}")
    if extra:
        problems.append(f"{len(extra)} invalid pair(s) reported, e.g. {min(extra)}")
    return problems

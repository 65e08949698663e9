"""Seeded raw inputs for every workload: transactions and item tables.

Nothing here imports ``repro``: the same plain lists and dicts feed the
program (which builds its own database, catalog and domains from them
during set-up) and the answer oracle.

Each workload has a *fixed* structure drawn from a constant seed: the
Quest pattern table (which itemsets tend to co-occur) and the item
tables (prices, types).  The run's ``--seed`` draws the transactions
from that pattern table and permutes the item ids.  Every seed therefore
gives a different database with the same statistical make-up, so the
work per query, and with it the timing, varies little from seed to seed
(the cost of an itemset query can otherwise vary by orders of magnitude
with the data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

Transaction = Tuple[int, ...]


class _Draws:
    """Buffered uniform draws: one numpy call per 64k values instead of
    one per value keeps a 100k-transaction sample near a second."""

    def __init__(self, rng: np.random.RandomState, size: int = 1 << 16):
        self._rng = rng
        self._size = size
        self._buffer: List[float] = []
        self._pos = 0

    def next(self) -> float:
        if self._pos >= len(self._buffer):
            self._buffer = self._rng.random_sample(self._size).tolist()
            self._pos = 0
        value = self._buffer[self._pos]
        self._pos += 1
        return value


@dataclass(frozen=True)
class PatternTable:
    """Quest's maximal potentially frequent itemsets (Agrawal & Srikant,
    VLDB 1994): overlapping patterns, exponential weights, and a
    corruption level per pattern."""

    patterns: Tuple[Tuple[int, ...], ...]
    cumulative: Tuple[float, ...]
    corruption: Tuple[float, ...]
    n_items: int


def pattern_table(
    n_items: int, n_patterns: int, avg_pattern_size: float, seed: int
) -> PatternTable:
    rng = np.random.RandomState(seed)
    patterns: List[Tuple[int, ...]] = []
    previous: List[int] = []
    for __ in range(n_patterns):
        size = max(1, int(rng.poisson(avg_pattern_size)))
        chosen: List[int] = []
        if previous:
            # A fraction (exponential, mean 0.5) of each pattern comes
            # from the one before it.
            share = min(1.0, rng.exponential(0.5))
            n_shared = min(len(previous), int(round(share * size)))
            if n_shared:
                chosen = [int(i) for i in rng.choice(previous, n_shared, replace=False)]
        while len(chosen) < size:
            item = int(rng.randint(n_items))
            if item not in chosen:
                chosen.append(item)
        patterns.append(tuple(sorted(chosen)))
        previous = chosen
    weights = rng.exponential(1.0, n_patterns)
    cumulative = np.cumsum(weights / weights.sum())
    cumulative[-1] = 1.0
    corruption = np.clip(rng.normal(0.5, 0.1, n_patterns), 0.0, 1.0)
    return PatternTable(
        patterns=tuple(patterns),
        cumulative=tuple(float(c) for c in cumulative),
        corruption=tuple(float(c) for c in corruption),
        n_items=n_items,
    )


def sample_transactions(
    table: PatternTable,
    n_transactions: int,
    avg_size: float,
    rng: np.random.RandomState,
) -> List[Transaction]:
    """Quest transactions: Poisson sizes filled with weighted pattern
    picks; each picked pattern loses items while successive draws fall
    below its corruption level; a pattern that would overflow the
    transaction goes in anyway half the time and moves to the next
    transaction otherwise."""
    from bisect import bisect_right

    draws = _Draws(rng)
    sizes = np.maximum(1, rng.poisson(avg_size, n_transactions)).tolist()
    cumulative = table.cumulative
    last = len(cumulative) - 1
    transactions: List[Transaction] = []
    deferred: List[int] = []
    for size in sizes:
        items = set(deferred)
        deferred = []
        for __ in range(50):
            if len(items) >= size:
                break
            pick = min(last, bisect_right(cumulative, draws.next()))
            inserted = list(table.patterns[pick])
            level = table.corruption[pick]
            while inserted and draws.next() < level:
                inserted.pop(int(draws.next() * len(inserted)))
            if not inserted:
                continue
            if items and len(items) + len(inserted) > size:
                if draws.next() < 0.5:
                    items.update(inserted)
                else:
                    deferred = inserted
                break
            items.update(inserted)
        if not items:
            items = {int(draws.next() * table.n_items)}
        transactions.append(tuple(sorted(items)))
    return transactions


def relabel(
    transactions: Sequence[Transaction], permutation: Sequence[int]
) -> List[Transaction]:
    return [tuple(sorted(permutation[i] for i in t)) for t in transactions]


# ----------------------------------------------------------------------
# cfq-paper: the Section 7 workloads at the paper's 100k x 1000 scale
# ----------------------------------------------------------------------
FIG8_ITEMS = 1000
FIG8_TRANSACTIONS = 100_000
FIG8_MINSUP = 0.01
FIG8A_OVERLAPS = (16.6, 33.3, 50.0, 66.7, 83.4)
FIG8B_OVERLAPS = (20.0, 40.0, 60.0, 80.0)
#: Section 7.3's T price means.  The workload runs the two most
#: selective; 800 and 1000 cost 6-7 s each at 100k transactions, which
#: would leave no room in a run for a second pass over the queries.
JMAX_MEANS = (400.0, 600.0, 800.0, 1000.0)
WORKLOAD_JMAX_MEANS = (400.0, 600.0)
JMAX_TRANSACTIONS = 100_000
JMAX_S_ITEMS = 24
JMAX_CORE = 12
JMAX_T_ITEMS = 60
JMAX_MINSUP = {"S": 0.18, "T": 0.02}

_FIG8_STRUCTURE_SEED = 8
_JMAX_STRUCTURE_SEED = 73
_CHURN_STRUCTURE_SEED = 82


@dataclass
class Query:
    """One CFQ, in the program's text form and the oracle's form."""

    name: str
    text_constraints: List[str]
    domains: Dict[str, Tuple[int, ...]]  # variable -> item ids
    minsup: Dict[str, float]
    onevar: Dict[str, List[Tuple[str, str, str, float]]]  # (func, attr, op, const)
    twovar: Tuple[str, ...]  # ("max_le_min" | "sum_le_sum" | "type_eq", attr?)
    dataset: str  # key into Inputs.datasets
    prices: Dict[int, int]
    types: Dict[int, str]

    def text(self) -> str:
        """The query in ``{(S, T) | ...}`` notation, thresholds included."""
        atoms = [f"freq({v}, {self.minsup[v]!r})" for v in ("S", "T")]
        return "{(S, T) | " + " & ".join(atoms + self.text_constraints) + "}"


@dataclass
class Inputs:
    datasets: Dict[str, List[Transaction]]
    queries: List[Query]


def _item_draws(seed: int, n_items: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per base item: a uniform draw that sets its price and one that
    picks its type."""
    rng = np.random.RandomState(seed + 1)
    return rng.random_sample(n_items), rng.random_sample(n_items)


def fig8a_tables(
    overlap: float, price_u: np.ndarray, permutation: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Dict[int, int]]:
    """Section 7.1: ``S`` is one half of the items priced in [400, 1000],
    ``T`` the other half priced in [0, v], where ``v`` makes the two
    price ranges overlap by ``overlap`` percent."""
    half = FIG8_ITEMS // 2
    v = 400.0 + overlap / 100.0 * 600.0
    prices: Dict[int, int] = {}
    for base in range(FIG8_ITEMS):
        u = float(price_u[base])
        price = 400.0 + 600.0 * u if base < half else v * u
        prices[permutation[base]] = int(round(price))
    s_items = tuple(sorted(permutation[b] for b in range(half)))
    t_items = tuple(sorted(permutation[b] for b in range(half, FIG8_ITEMS)))
    return s_items, t_items, prices


TYPES_PER_SIDE = 10


def fig8b_tables(
    overlap: float,
    price_u: np.ndarray,
    type_u: np.ndarray,
    permutation: Sequence[int],
) -> Tuple[Dict[int, int], Dict[int, str]]:
    """Section 7.2: half the items are S-population (price band
    [400, 1000]) and half T-population ([0, 600]); ``overlap`` percent of
    each side's type vocabulary is shared.  Exclusive-typed items are
    priced outside the other side's band so they never leak into it."""
    n_shared = int(round(TYPES_PER_SIDE * overlap / 100.0))
    shared = [f"shared_{i}" for i in range(n_shared)]
    s_only = [f"s_{i}" for i in range(TYPES_PER_SIDE - n_shared)]
    t_only = [f"t_{i}" for i in range(TYPES_PER_SIDE - n_shared)]
    prices: Dict[int, int] = {}
    types: Dict[int, str] = {}
    for base in range(len(permutation)):
        s_side = base % 2 == 0
        vocab = shared + (s_only if s_side else t_only)
        chosen = vocab[min(len(vocab) - 1, int(float(type_u[base]) * len(vocab)))]
        if chosen in shared:
            low, high = (400.0, 1000.0) if s_side else (0.0, 600.0)
        else:
            low, high = (600.0, 1000.0) if s_side else (0.0, 400.0)
        item = permutation[base]
        types[item] = chosen
        prices[item] = int(round(low + (high - low) * float(price_u[base])))
    return prices, types


def _jmax_transactions(
    n_transactions: int, rng: np.random.RandomState
) -> List[Transaction]:
    """Section 7.3's data: a correlated core block of S items (so large
    frequent S-sets exist for ``J^k_max`` to bound) beside a pool of T
    patterns.  Base ids: S = 0..23 (core 0..11), T = 24..83."""
    structure = np.random.RandomState(_JMAX_STRUCTURE_SEED)
    s_items = list(range(JMAX_S_ITEMS))
    t_items = list(range(JMAX_S_ITEMS, JMAX_S_ITEMS + JMAX_T_ITEMS))
    t_patterns = [
        [int(i) for i in structure.choice(t_items, size=5, replace=False)]
        for __ in range(8)
    ]
    core = s_items[:JMAX_CORE]
    other_s = s_items[JMAX_CORE:]
    draws = _Draws(rng)
    transactions: List[Transaction] = []
    for __ in range(n_transactions):
        items = set()
        if draws.next() < 0.3:
            items.update(i for i in core if draws.next() > 0.05)
        else:
            for __ in range(int(draws.next() * 3)):
                items.add(s_items[int(draws.next() * len(s_items))])
        if draws.next() < 0.3:
            items.add(other_s[int(draws.next() * len(other_s))])
        pattern = t_patterns[int(draws.next() * len(t_patterns))]
        items.update(i for i in pattern if draws.next() > 0.15)
        for __ in range(int(draws.next() * 3)):
            items.add(t_items[int(draws.next() * len(t_items))])
        transactions.append(tuple(sorted(items)))
    return transactions


def jmax_tables(
    mean: float, z: np.ndarray, permutation: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Dict[int, int]]:
    """S prices ~ Normal(1000, 100), T prices ~ Normal(mean, 100)."""
    prices: Dict[int, int] = {}
    for base in range(JMAX_S_ITEMS + JMAX_T_ITEMS):
        centre = 1000.0 if base < JMAX_S_ITEMS else mean
        prices[permutation[base]] = max(0, int(round(centre + 100.0 * float(z[base]))))
    s_items = tuple(sorted(permutation[b] for b in range(JMAX_S_ITEMS)))
    t_items = tuple(
        sorted(permutation[b] for b in range(JMAX_S_ITEMS, JMAX_S_ITEMS + JMAX_T_ITEMS))
    )
    return s_items, t_items, prices


def paper_inputs(
    seed: int,
    n_fig8: int = FIG8_TRANSACTIONS,
    n_jmax: int = JMAX_TRANSACTIONS,
    jmax_means: Sequence[float] = WORKLOAD_JMAX_MEANS,
) -> Inputs:
    """The cfq-paper queries: Figure 8(a) at five price overlaps,
    Figure 8(b) at four type overlaps, Section 7.3 at ``jmax_means``."""
    rng = np.random.RandomState(seed)
    fig8_perm = rng.permutation(FIG8_ITEMS).tolist()
    table = pattern_table(FIG8_ITEMS, 300, 4.0, seed=_FIG8_STRUCTURE_SEED)
    fig8 = relabel(sample_transactions(table, n_fig8, 10.0, rng), fig8_perm)
    n_jmax_items = JMAX_S_ITEMS + JMAX_T_ITEMS
    jmax_perm = rng.permutation(n_jmax_items).tolist()
    jmax = relabel(_jmax_transactions(n_jmax, rng), jmax_perm)

    price_u, type_u = _item_draws(_FIG8_STRUCTURE_SEED, FIG8_ITEMS)
    queries: List[Query] = []
    for overlap in FIG8A_OVERLAPS:
        s_items, t_items, prices = fig8a_tables(overlap, price_u, fig8_perm)
        queries.append(Query(
            name=f"fig8a-{overlap:g}",
            text_constraints=["max(S.Price) <= min(T.Price)"],
            domains={"S": s_items, "T": t_items},
            minsup={"S": FIG8_MINSUP, "T": FIG8_MINSUP},
            onevar={"S": [], "T": []},
            twovar=("max_le_min", "Price"),
            dataset="fig8",
            prices=prices,
            types={},
        ))
    everything = tuple(sorted(fig8_perm))
    for overlap in FIG8B_OVERLAPS:
        prices, types = fig8b_tables(overlap, price_u, type_u, fig8_perm)
        queries.append(Query(
            name=f"fig8b-{overlap:g}",
            text_constraints=[
                "min(S.Price) >= 400", "max(T.Price) <= 600", "S.Type = T.Type",
            ],
            domains={"S": everything, "T": everything},
            minsup={"S": FIG8_MINSUP, "T": FIG8_MINSUP},
            onevar={"S": [("min", "Price", ">=", 400)], "T": [("max", "Price", "<=", 600)]},
            twovar=("type_eq",),
            dataset="fig8",
            prices=prices,
            types=types,
        ))
    z = np.random.RandomState(_JMAX_STRUCTURE_SEED + 1).standard_normal(n_jmax_items)
    for mean in jmax_means:
        s_items, t_items, prices = jmax_tables(mean, z, jmax_perm)
        queries.append(Query(
            name=f"jmax-{mean:g}",
            text_constraints=["sum(S.Price) <= sum(T.Price)"],
            domains={"S": s_items, "T": t_items},
            minsup=dict(JMAX_MINSUP),
            onevar={"S": [], "T": []},
            twovar=("sum_le_sum", "Price"),
            dataset="jmax",
            prices=prices,
            types={},
        ))
    return Inputs(datasets={"fig8": fig8, "jmax": jmax}, queries=queries)


# ----------------------------------------------------------------------
# serve-churn: refinement-session queries over a dataset under churn
# ----------------------------------------------------------------------
CHURN_ITEMS = 1000
CHURN_TRANSACTIONS = 20_000
CHURN_DELTA = 200  # 1% of the dataset per append or delete
CHURN_TYPE_OVERLAP = 40.0
_BANDS = ["min(S.Price) >= 400", "max(T.Price) <= 600"]
_BAND_SPECS = {"S": [("min", "Price", ">=", 400)], "T": [("max", "Price", "<=", 600)]}
#: (name, minsup, 2-var constraint text, oracle form) of each session query.
CHURN_SESSION = (
    ("types-0.01", 0.01, "S.Type = T.Type", ("type_eq",)),
    ("types-0.0075", 0.0075, "S.Type = T.Type", ("type_eq",)),
    ("price-order-0.01", 0.01, "max(S.Price) <= min(T.Price)", ("max_le_min", "Price")),
    ("price-sum-0.02", 0.02, "sum(S.Price) <= sum(T.Price)", ("sum_le_sum", "Price")),
)


@dataclass
class ChurnInputs:
    transactions: List[Transaction]
    prices: Dict[int, int]
    types: Dict[int, str]
    queries: List[Query]
    #: ("append", transactions) or ("delete", TIDs of the database it applies to)
    steps: List[Tuple[str, List]]


def churn_inputs(seed: int, n_steps: int) -> ChurnInputs:
    """A Quest dataset with a Figure 8(b)-style typed catalog, the
    session's queries, and ``n_steps`` deltas alternating appends and
    deletes of :data:`CHURN_DELTA` transactions."""
    rng = np.random.RandomState(seed)
    permutation = rng.permutation(CHURN_ITEMS).tolist()
    table = pattern_table(CHURN_ITEMS, 300, 4.0, seed=_CHURN_STRUCTURE_SEED)
    transactions = relabel(
        sample_transactions(table, CHURN_TRANSACTIONS, 10.0, rng), permutation
    )
    price_u, type_u = _item_draws(_CHURN_STRUCTURE_SEED, CHURN_ITEMS)
    prices, types = fig8b_tables(CHURN_TYPE_OVERLAP, price_u, type_u, permutation)
    everything = tuple(sorted(permutation))
    queries = [
        Query(
            name=name,
            text_constraints=_BANDS + [constraint],
            domains={"S": everything, "T": everything},
            minsup={"S": minsup, "T": minsup},
            onevar=_BAND_SPECS,
            twovar=form,
            dataset="churn",
            prices=prices,
            types=types,
        )
        for name, minsup, constraint, form in CHURN_SESSION
    ]
    steps: List[Tuple[str, List]] = []
    size = CHURN_TRANSACTIONS
    for step in range(n_steps):
        if step % 2 == 0:
            added = relabel(sample_transactions(table, CHURN_DELTA, 10.0, rng), permutation)
            steps.append(("append", added))
            size += CHURN_DELTA
        else:
            tids = sorted(int(t) for t in rng.choice(size, CHURN_DELTA, replace=False))
            steps.append(("delete", tids))
            size -= CHURN_DELTA
    return ChurnInputs(transactions, prices, types, queries, steps)

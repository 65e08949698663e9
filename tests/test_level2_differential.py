"""Level-2 candidates from rank-order slices ≡ the per-pair generator.

The lattice reads level 2 off its rank order (only the rows of the
structural bucket's elements when there is one), makes each pair
canonical once, and runs the anti-monotone checks one at a time over
the whole level.  The reference is the generator it replaced: every
rank pair offered to an admission callback that rejects pairs outside
the bucket and runs every check on the pair, each admitted pair then
made canonical.  Both must agree on the candidates in order, on
``constraint_checks_larger``, and on the level's ``prune_counts``
(``am:`` and ``bucket:`` keys, in order), with no bucket, one bucket or
several, and with checks that reject some pairs.  Level 3 (the join,
then the same checks) is compared the same way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.pruners import AntiMonotoneCheck, CompiledPruning, RequiredBucket
from repro.db.stats import OpCounters
from repro.mining.candidates import generate_pairs, join_and_prune
from repro.mining.itemsets import canonical
from repro.mining.lattice import ConstrainedLattice

MIN_COUNT = 2


# ----------------------------------------------------------------------
# The reference: rank pairs offered one at a time
# ----------------------------------------------------------------------
def reference_generate_pairs(level1, pair_admissible=None):
    """All 2-candidates from frequent 1-sets, in rank space, each pair
    offered to ``pair_admissible``."""
    pairs = []
    n = len(level1)
    for i in range(n):
        a = level1[i]
        for j in range(i + 1, n):
            b = level1[j]
            if pair_admissible is None or pair_admissible(a, b):
                pairs.append((a, b))
    return pairs


class Reference:
    """Candidate generation over a lattice's frozen rank order, checking
    and attributing one candidate at a time."""

    def __init__(self, lattice):
        self.order = list(lattice._order)
        self.has_buckets = lattice._has_buckets
        self.bucket_size = lattice._primary_bucket_size
        self.bucket_source = lattice._primary_bucket_source
        self.checks = list(lattice.pruning.am_checks)
        self.counters = OpCounters()
        self.prune_counts = {}

    def note(self, level, reason, n=1):
        counts = self.prune_counts.setdefault(level, {})
        counts[reason] = counts.get(reason, 0) + n

    def to_canonical(self, ranked):
        return canonical(self.order[r] for r in ranked)

    def passes(self, level, ranked):
        if not self.checks:
            return True
        elements = self.to_canonical(ranked)
        self.counters.record_check(len(elements), len(self.checks))
        for check in self.checks:
            if not check.holds(elements):
                self.note(level, f"am:{check.source}")
                return False
        return True

    def level2(self):
        if self.has_buckets and self.bucket_size == 0:
            return []
        limit = self.bucket_size if self.has_buckets else 0

        def admissible(a, b):
            if limit and a >= limit:
                return False
            return self.passes(2, (a, b))

        pairs = reference_generate_pairs(list(range(len(self.order))), admissible)
        outside = len(self.order) - limit
        if limit and outside >= 2:
            self.note(2, f"bucket:{self.bucket_source}", outside * (outside - 1) // 2)
        return [self.to_canonical(p) for p in pairs]

    def level3(self, prev_ranked):
        def hits(ranked):
            return not (self.has_buckets and ranked[0] >= self.bucket_size)

        ranked = join_and_prune(prev_ranked, 3, hits)
        return [self.to_canonical(rt) for rt in ranked if self.passes(3, rt)]


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
@st.composite
def lattice_case(draw):
    # Ids drawn unsorted, so rank order, id order and bucket order differ.
    elements = draw(st.lists(st.integers(0, 40), min_size=1, max_size=11, unique=True))
    supports = {e: draw(st.integers(0, 4)) for e in elements}  # some infrequent
    weights = {e: draw(st.integers(0, 9)) for e in elements}
    n_buckets = draw(st.sampled_from([0, 1, 3]))
    buckets = [
        RequiredBucket(
            frozenset(draw(st.lists(st.sampled_from(elements), max_size=6))),
            draw(st.sampled_from(["b0", "b1"])),
        )
        for __ in range(n_buckets)
    ]

    def check():
        kind = draw(st.sampled_from(["sum", "max", "even"]))
        bound = draw(st.integers(0, 18))
        if kind == "sum":
            predicate = lambda s: sum(weights[e] for e in s) <= bound  # noqa: E731
        elif kind == "max":
            predicate = lambda s: max(weights[e] for e in s) <= bound  # noqa: E731
        else:
            predicate = lambda s: sum(s) % 2 == 0  # noqa: E731
        # Repeated sources share one ``am:`` key.
        return AntiMonotoneCheck(predicate, draw(st.sampled_from(["c0", "c1", "c2"])))

    checks = [check() for __ in range(draw(st.integers(0, 3)))]
    return elements, supports, buckets, checks


def prune_items(prune_counts, level):
    return list(prune_counts.get(level, {}).items())


@settings(max_examples=300, deadline=None)
@given(case=lattice_case(), data=st.data())
def test_level2_and_level3_match_the_per_pair_generator(case, data):
    elements, supports, buckets, checks = case
    lattice = ConstrainedLattice(
        "S", elements, None, MIN_COUNT,
        pruning=CompiledPruning(buckets=list(buckets), am_checks=list(checks)),
    )
    level1 = lattice.candidates()
    lattice.absorb({c: supports[c[0]] for c in level1})

    before = lattice.counters.constraint_checks_larger
    level2 = lattice.candidates()
    reference = Reference(lattice)
    assert level2 == reference.level2()
    assert (lattice.counters.constraint_checks_larger - before
            == reference.counters.constraint_checks_larger)
    assert prune_items(lattice.prune_counts, 2) == prune_items(reference.prune_counts, 2)
    if not level2:
        return

    lattice.absorb({c: data.draw(st.integers(0, 4)) for c in level2})
    prev_ranked = lattice._prev_ranked
    before = lattice.counters.constraint_checks_larger
    reference_before = reference.counters.constraint_checks_larger
    assert lattice.candidates() == reference.level3(prev_ranked)
    assert (lattice.counters.constraint_checks_larger - before
            == reference.counters.constraint_checks_larger - reference_before)
    assert prune_items(lattice.prune_counts, 3) == prune_items(reference.prune_counts, 3)


@settings(max_examples=200, deadline=None)
@given(
    order=st.lists(st.integers(0, 60), max_size=12, unique=True),
    rows=st.one_of(st.none(), st.integers(0, 12)),
)
def test_generate_pairs_is_the_canonical_rank_pairs(order, rows):
    """Rows of the rank order ≡ rank pairs whose lower rank is below
    ``rows``, each made canonical."""
    expected = [
        canonical(order[r] for r in pair)
        for pair in reference_generate_pairs(
            list(range(len(order))),
            None if rows is None else (lambda a, b: a < rows),
        )
    ]
    assert generate_pairs(order, rows) == expected

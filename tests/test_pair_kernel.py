"""The row kernel ≡ evaluating every constraint per pair.

``form_valid_pairs`` and ``valid_sets_existential`` evaluate each 2-var
constraint's sides once per set and form each outer set's row of
partners one constraint at a time, sharing rows between outer sets with
equal (and equally typed) side values; the 1-var filters run the same
way.  The reference here is the definition they replace: every
constraint evaluated from scratch with ``evaluate_constraint`` for every
(set, partner) the loop reaches.  Both must agree on the pairs and their
order, ``pair_checks``, ``limit`` truncation, the existential survivors,
and — when an evaluation or a comparison raises — on the exception and
the check count at which it is raised.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.ast import (
    AGG_FUNCS,
    Agg,
    AttrRef,
    CmpOp,
    Comparison,
    Const,
    SetComparison,
    SetConst,
    SetOp,
    is_onevar,
    is_twovar,
)
from repro.constraints.evaluate import evaluate_constraint
import repro.core.pairs as pairs_module
from repro.core.pairs import form_valid_pairs, valid_sets_existential
from repro.db.catalog import ItemCatalog
from repro.db.domain import Domain, derived_type_domain
from repro.db.stats import OpCounters
from repro.errors import ConstraintTypeError

ITEMS = tuple(range(1, 9))
TYPES = ("snack", "beer", "snack", "wine", "beer", "snack", "wine", "beer")
# Values a shared row must tell apart or may merge: equal across types
# (comparisons against strings raise naming the type), never equal to
# itself, and equal with a different sign.
EDGE_VALUES = (1, 1.0, True, float("nan"), -0.0, 0.0)


# ----------------------------------------------------------------------
# The reference: per-pair evaluate_constraint, exactly as defined
# ----------------------------------------------------------------------
def _reference_filter(sets, constraints, var, domains, counters):
    if not constraints:
        return dict(sets)
    survivors = {}
    for itemset, support in sets.items():
        ok = True
        for constraint in constraints:
            counters.pair_checks += 1
            if not evaluate_constraint(constraint, {var: itemset}, {var: domains[var]}):
                ok = False
                break
        if ok:
            survivors[itemset] = support
    return survivors


def _split(constraints, var, other):
    own = [c for c in constraints if is_onevar(c) and c.variables() == {var}]
    theirs = [c for c in constraints if is_onevar(c) and c.variables() == {other}]
    return own, theirs, [c for c in constraints if is_twovar(c)]


def reference_pairs(s_sets, t_sets, constraints, domains, counters, limit=None):
    if limit is not None and limit < 1:
        return []
    own, theirs, twovar = _split(constraints, "S", "T")
    s_survivors = _reference_filter(s_sets, own, "S", domains, counters)
    t_survivors = _reference_filter(t_sets, theirs, "T", domains, counters)
    pairs = []
    for s0 in s_survivors:
        for t0 in t_survivors:
            ok = True
            for constraint in twovar:
                counters.pair_checks += 1
                if not evaluate_constraint(constraint, {"S": s0, "T": t0}, domains):
                    ok = False
                    break
            if ok:
                pairs.append((s0, t0))
                if limit is not None and len(pairs) >= limit:
                    return pairs
    return pairs


def reference_existential(sets, other_sets, constraints, var, other, domains, counters):
    own, theirs, twovar = _split(constraints, var, other)
    candidates = _reference_filter(sets, own, var, domains, counters)
    partners = _reference_filter(other_sets, theirs, other, domains, counters)
    if not twovar:
        return candidates
    survivors = {}
    for candidate, support in candidates.items():
        for partner in partners:
            ok = True
            for constraint in twovar:
                counters.pair_checks += 1
                if not evaluate_constraint(
                    constraint, {var: candidate, other: partner}, domains
                ):
                    ok = False
                    break
            if ok:
                survivors[candidate] = support
                break
    return survivors


def outcome(run):
    """``("ok", value, pair_checks)`` or ``("raised", type, message,
    pair_checks)`` — the check count at the moment of raising included."""
    counters = OpCounters()
    try:
        value = run(counters)
    except Exception as exc:  # noqa: BLE001 - any divergence is a failure
        return ("raised", type(exc), str(exc), counters.pair_checks)
    if isinstance(value, dict):
        value = list(value.items())
    return ("ok", value, counters.pair_checks)


def assert_same_pairs(s_sets, t_sets, constraints, domains, limit=None):
    expected = outcome(
        lambda c: reference_pairs(s_sets, t_sets, constraints, domains, c, limit)
    )
    actual = outcome(
        lambda c: form_valid_pairs(
            s_sets, t_sets, constraints, domains, counters=c, limit=limit
        )
    )
    assert actual == expected
    return expected


def assert_same_survivors(s_sets, t_sets, constraints, domains):
    for var, other, sets, other_sets in (
        ("S", "T", s_sets, t_sets),
        ("T", "S", t_sets, s_sets),
    ):
        expected = outcome(
            lambda c: reference_existential(
                sets, other_sets, constraints, var, other, domains, c
            )
        )
        actual = outcome(
            lambda c: valid_sets_existential(
                sets, other_sets, constraints, var, other, domains, counters=c
            )
        )
        assert actual == expected


# ----------------------------------------------------------------------
# Data
# ----------------------------------------------------------------------
def make_catalog(prices, weights):
    return ItemCatalog(
        {
            "Price": dict(zip(ITEMS, prices)),
            "Weight": dict(zip(ITEMS, weights)),
            "Type": dict(zip(ITEMS, TYPES)),
        }
    )


@pytest.fixture
def catalog():
    return make_catalog(
        [10, 20, 20, 40, -5, 60, 35, 15],
        [1.5, 0.25, 3.0, 2.0, 0.5, 1.0, 2.5, 0.75],
    )


@pytest.fixture
def item_domains(catalog):
    item = Domain.items(catalog)
    return {"S": item, "T": item}


def all_sets(elements, max_size=2):
    return {
        combo: len(combo)
        for k in range(1, max_size + 1)
        for combo in itertools.combinations(elements, k)
    }


# ----------------------------------------------------------------------
# Every operator, every aggregate, both orientations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("func", AGG_FUNCS)
@pytest.mark.parametrize("op", list(CmpOp))
@pytest.mark.parametrize("t_first", [False, True])
def test_every_comparison_and_aggregate(item_domains, func, op, t_first):
    s_side = Agg(func, AttrRef("S", "Price"))
    t_side = Agg(func, AttrRef("T", "Weight"))
    constraint = (
        Comparison(t_side, op, s_side) if t_first else Comparison(s_side, op, t_side)
    )
    sets = all_sets(ITEMS)
    sets[()] = 9  # min/max/avg of the empty set are undefined
    assert_same_pairs(sets, sets, [constraint], item_domains)
    assert_same_pairs(sets, sets, [constraint], item_domains, limit=7)
    assert_same_survivors(sets, sets, [constraint], item_domains)


@pytest.mark.parametrize("op", list(SetOp))
@pytest.mark.parametrize("t_first", [False, True])
def test_every_set_relation(item_domains, op, t_first):
    s_side, t_side = AttrRef("S", "Type"), AttrRef("T", "Type")
    constraint = (
        SetComparison(t_side, op, s_side) if t_first
        else SetComparison(s_side, op, t_side)
    )
    sets = all_sets(ITEMS)
    assert_same_pairs(sets, sets, [constraint], item_domains)
    assert_same_pairs(sets, sets, [constraint], item_domains, limit=5)
    assert_same_survivors(sets, sets, [constraint], item_domains)


@pytest.mark.parametrize("op", list(SetOp))
def test_derived_type_domain_sides(catalog, op):
    """``S.Type op T`` with T over the Type domain: the T side is the
    bare variable's element values (the type strings)."""
    domains = {"S": Domain.items(catalog), "T": derived_type_domain(catalog)}
    s_sets = all_sets(ITEMS)
    t_sets = all_sets(domains["T"].elements, max_size=3)
    constraints = [
        SetComparison(AttrRef("S", "Type"), op, AttrRef("T", None)),
        Comparison(Agg("count", AttrRef("S", "Type")), CmpOp.LE,
                   Agg("count", AttrRef("T", "Value"))),
    ]
    assert_same_pairs(s_sets, t_sets, constraints, domains)
    assert_same_survivors(s_sets, t_sets, constraints, domains)


# ----------------------------------------------------------------------
# Exceptions: raised at the same check, or not at all
# ----------------------------------------------------------------------
def test_non_numeric_sum_raises_at_the_same_check(item_domains):
    constraints = [
        Comparison(Agg("max", AttrRef("S", "Price")), CmpOp.LE,
                   Agg("min", AttrRef("T", "Price"))),
        Comparison(Agg("sum", AttrRef("T", "Type")), CmpOp.GE,
                   Agg("sum", AttrRef("S", "Price"))),
    ]
    sets = all_sets(ITEMS)
    result = assert_same_pairs(sets, sets, constraints, item_domains)
    assert result[0] == "raised" and result[1] is ConstraintTypeError
    assert "sum(T.Type)" in result[2]
    assert_same_survivors(sets, sets, constraints, item_domains)


@pytest.mark.parametrize("t_first", [False, True])
def test_both_sides_raising_raise_the_left_one(item_domains, t_first):
    """When both sides of the first check raise, the side written first
    is the one evaluated first, in either orientation."""
    s_side, t_side = Agg("sum", AttrRef("S", "Type")), Agg("avg", AttrRef("T", "Type"))
    constraint = (
        Comparison(t_side, CmpOp.LE, s_side) if t_first
        else Comparison(s_side, CmpOp.LE, t_side)
    )
    sets = all_sets(ITEMS)
    result = assert_same_pairs(sets, sets, [constraint], item_domains)
    assert result[:2] == ("raised", ConstraintTypeError)
    assert str(constraint.left) in result[2]
    assert_same_survivors(sets, sets, [constraint], item_domains)


def test_unbound_variable_raises_at_the_first_check(item_domains):
    """A 2-var constraint over a variable neither side binds raises the
    unbound-variable error when its first check is reached."""
    domains = dict(item_domains, U=item_domains["S"])
    constraint = Comparison(Agg("max", AttrRef("S", "Price")), CmpOp.LE,
                            Agg("min", AttrRef("U", "Price")))
    sets = all_sets(ITEMS)
    result = assert_same_pairs(sets, sets, [constraint], domains)
    assert result == ("raised", ConstraintTypeError,
                      f"constraint {constraint} mentions unbound variables ['U']", 1)
    assert_same_pairs(sets, {}, [constraint], domains)  # never reached


def test_non_numeric_sum_never_reached_never_raises(item_domains):
    """A raising side behind a constraint that is false for every pair
    is never evaluated, so neither implementation raises."""
    constraints = [
        Comparison(Agg("min", AttrRef("S", "Price")), CmpOp.GT,
                   Agg("max", AttrRef("T", "Price"))),
        Comparison(Agg("sum", AttrRef("S", "Type")), CmpOp.LE,
                   Agg("sum", AttrRef("T", "Price"))),
    ]
    s_sets = {(1,): 3, (2, 8): 2}  # prices 10 / 20, 15
    t_sets = {(6,): 3, (4, 6): 2}  # prices 60 / 40, 60
    result = assert_same_pairs(s_sets, t_sets, constraints, item_domains)
    assert result == ("ok", [], 4)
    assert_same_survivors(s_sets, t_sets, constraints, item_domains)


def test_a_later_constraint_raising_at_an_earlier_partner_wins(item_domains):
    """The first constraint holds for the empty partner and raises at the
    next; the second raises on the empty partner, which the per-pair
    loop reaches first."""
    constraints = [
        Comparison(Agg("sum", AttrRef("S", "Price")), CmpOp.GE,
                   Agg("sum", AttrRef("T", "Type"))),
        Comparison(Agg("sum", AttrRef("S", "Type")), CmpOp.EQ,
                   Agg("count", AttrRef("T", "Price"))),
    ]
    s_sets = {(1,): 4, (2, 3): 2}
    t_sets = {(): 9, (2,): 4, (4,): 3}
    result = assert_same_pairs(s_sets, t_sets, constraints, item_domains)
    assert result[:2] == ("raised", ConstraintTypeError)
    assert "sum(S.Type)" in result[2] and result[3] == 2
    assert_same_survivors(s_sets, t_sets, constraints, item_domains)


# ----------------------------------------------------------------------
# Shared rows: repeated, typed-equal, nan and signed-zero side values
# ----------------------------------------------------------------------
@pytest.fixture
def edge_domains():
    catalog = make_catalog(
        [1, 1.0, True, float("nan"), -0.0, 0.0, 1, 2],
        [0.0, -0.0, 1, 1.0, True, float("nan"), 2, 2],
    )
    item = Domain.items(catalog)
    return {"S": item, "T": item}


EDGE_CONJUNCTIONS = {
    "max_le_min": [Comparison(Agg("max", AttrRef("S", "Price")), CmpOp.LE,
                              Agg("min", AttrRef("T", "Weight")))],
    "eq_then_ne": [
        Comparison(Agg("max", AttrRef("S", "Price")), CmpOp.EQ,
                   Agg("max", AttrRef("T", "Weight"))),
        Comparison(Agg("min", AttrRef("T", "Price")), CmpOp.NE,
                   Agg("sum", AttrRef("S", "Weight"))),
    ],
    "sum_ge_avg": [Comparison(Agg("sum", AttrRef("S", "Price")), CmpOp.GE,
                              Agg("avg", AttrRef("T", "Weight")))],
    # Numbers against type strings: the comparison raises, naming the
    # outer value's type (int, float or bool) — only where reached.
    "lt_then_raising": [
        Comparison(Agg("max", AttrRef("S", "Price")), CmpOp.LT,
                   Agg("min", AttrRef("T", "Price"))),
        Comparison(Agg("min", AttrRef("S", "Price")), CmpOp.LE,
                   Agg("max", AttrRef("T", "Type"))),
    ],
    "set_projection": [SetComparison(AttrRef("S", "Price"), SetOp.SUBSET,
                                     AttrRef("T", "Weight"))],
}


def test_equal_typed_side_values_share_one_row(monkeypatch, edge_domains):
    """Outer sets share a row exactly when their side values are equal
    and of one type: 1, 1.0 and True are three rows, nan (unequal to
    itself unless it is the same object) and the signed zeros follow
    ``==`` on the same type."""
    rows = []
    real_row = pairs_module._row

    def counting_row(positions, stages):
        row = real_row(positions, stages)
        rows.append(row)
        return row

    monkeypatch.setattr(pairs_module, "_row", counting_row)
    constraint = Comparison(Agg("max", AttrRef("S", "Price")), CmpOp.LE,
                            Agg("min", AttrRef("T", "Weight")))
    # Prices 1, 1.0, True, nan, -0.0, 0.0, 1, 2 (items 1-8).
    s_sets = {(1,): 3, (7,): 3, (2,): 3, (3,): 3, (4,): 3, (5,): 3, (6,): 3, (8,): 3}
    t_sets = all_sets(ITEMS)
    pairs = form_valid_pairs(s_sets, t_sets, [constraint], edge_domains)
    # int 1 (items 1 and 7), 1.0, True, nan, -0.0 and 0.0 (equal floats), 2.
    assert len(rows) == 6
    expected = reference_pairs(s_sets, t_sets, [constraint], edge_domains, OpCounters())
    assert pairs == expected


@pytest.mark.parametrize("name", sorted(EDGE_CONJUNCTIONS))
def test_shared_rows_match_reference(edge_domains, name):
    constraints = EDGE_CONJUNCTIONS[name]
    sets = all_sets(ITEMS)
    sets[()] = 9
    full = assert_same_pairs(sets, sets, constraints, edge_domains)
    assert_same_survivors(sets, sets, constraints, edge_domains)
    n = len(full[1]) if full[0] == "ok" else 40
    for limit in range(1, n + 2):  # every cut, most inside a shared row
        assert_same_pairs(sets, sets, constraints, edge_domains, limit=limit)


def test_raise_inside_a_shared_row(item_domains):
    """Each row keeps the empty partner, then reaches a ``sum`` over type
    strings.  The existential stops at the kept partner, in every outer
    set sharing the row; pair formation raises unless a limit cuts first."""
    constraint = Comparison(Agg("sum", AttrRef("S", "Price")), CmpOp.GE,
                            Agg("sum", AttrRef("T", "Type")))
    s_sets = {(1,): 4, (8,): 4, (1, 8): 3, (2,): 4, (3,): 4}  # 10, 15, 25, 20, 20
    t_sets = {(): 9, (2,): 4, (3, 4): 2}
    result = assert_same_pairs(s_sets, t_sets, [constraint], item_domains)
    assert result == ("raised", ConstraintTypeError, result[2], 2)
    assert assert_same_pairs(s_sets, t_sets, [constraint], item_domains,
                             limit=1) == ("ok", [((1,), ())], 1)
    assert_same_survivors(s_sets, t_sets, [constraint], item_domains)
    counters = OpCounters()
    survivors = valid_sets_existential(
        s_sets, t_sets, [constraint], "S", "T", item_domains, counters=counters
    )
    assert list(survivors) == list(s_sets) and counters.pair_checks == 5


# ----------------------------------------------------------------------
# Randomized conjunctions
# ----------------------------------------------------------------------
@st.composite
def scenario(draw):
    prices = draw(st.lists(
        st.one_of(st.integers(-3, 9), st.sampled_from(EDGE_VALUES)),
        min_size=8, max_size=8,
    ))
    weights = draw(st.lists(
        st.one_of(
            st.floats(0, 4, allow_nan=False).map(lambda w: round(w, 1)),
            st.sampled_from(EDGE_VALUES),
        ),
        min_size=8, max_size=8,
    ))
    catalog = make_catalog(prices, weights)
    item = Domain.items(catalog)
    derived = draw(st.booleans())
    domains = {"S": item, "T": derived_type_domain(catalog) if derived else item}

    def sets_of(domain):
        # Up to 12 sets over 8 elements: outer sets repeating a side
        # value (and so sharing a row) are common.
        itemsets = draw(st.lists(
            st.lists(st.sampled_from(domain.elements), max_size=3, unique=True)
            .map(lambda xs: tuple(sorted(xs))),
            max_size=12, unique=True,
        ))
        return {itemset: len(itemset) + 1 for itemset in itemsets}

    over_types = {"S": False, "T": derived}

    def scalar(var):
        names = (
            ["Type", "Value"] if over_types[var]
            else ["Price", "Price", "Weight", "Type"]
        )
        attr = draw(st.sampled_from(names))
        return Agg(draw(st.sampled_from(AGG_FUNCS)), AttrRef(var, attr))

    def projection(var):
        # None: the bare variable, whose values over the Type domain are
        # the type strings themselves.
        names = ["Type", None] if over_types[var] else ["Type", "Price"]
        return AttrRef(var, draw(st.sampled_from(names)))

    def twovar():
        if draw(st.booleans()):
            sides = [scalar("S"), scalar("T")]
            op = draw(st.sampled_from(list(CmpOp)))
            make = Comparison
        else:
            sides = [projection("S"), projection("T")]
            op = draw(st.sampled_from(list(SetOp)))
            make = SetComparison
        if draw(st.booleans()):  # written T-side first
            sides.reverse()
        return make(sides[0], op, sides[1])

    def onevar():
        var = draw(st.sampled_from(["S", "T"]))
        if draw(st.booleans()):
            sides = [scalar(var), Const(draw(st.integers(-2, 12)))]
            op = draw(st.sampled_from(list(CmpOp)))
            make = Comparison
        else:
            values = frozenset(draw(st.lists(st.sampled_from(sorted(set(TYPES))))))
            sides = [AttrRef(var, "Type"), SetConst(values)]
            op = draw(st.sampled_from(list(SetOp)))
            make = SetComparison
        if draw(st.booleans()):  # constant first
            sides.reverse()
        return make(sides[0], op, sides[1])

    constraints = [twovar() for __ in range(draw(st.integers(1, 3)))]
    constraints += [onevar() for __ in range(draw(st.integers(0, 2)))]
    constraints = draw(st.permutations(constraints))
    limit = draw(st.one_of(st.none(), st.integers(0, 12)))
    return sets_of(domains["S"]), sets_of(domains["T"]), constraints, domains, limit


@settings(max_examples=300, deadline=None)
@given(scenario())
def test_random_conjunctions_match_reference(case):
    s_sets, t_sets, constraints, domains, limit = case
    assert_same_pairs(s_sets, t_sets, constraints, domains)
    assert_same_pairs(s_sets, t_sets, constraints, domains, limit=limit)
    assert_same_survivors(s_sets, t_sets, constraints, domains)

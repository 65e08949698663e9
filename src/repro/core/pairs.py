"""Final pair formation: the last box of Figure 7.

Once the frequent valid S- and T-sets are computed, the answer to the CFQ
is the set of pairs ``(S0, T0)`` jointly satisfying every constraint.
The paper treats this step as comparatively trivial ("typically many
orders of magnitude" cheaper than the lattice computation); nonetheless
the checks performed here are metered (``pair_checks``) so the ccc audit
can confirm that claim on real runs.

Pairs are formed a *row* at a time: one outer set's valid partners among
the inner sets, as positions into the inner list.  Every 2-var
constraint has the form ``f(S) op g(T)``: each side is an aggregate or
projection of one variable.  So each call evaluates a constraint's inner
side once per inner set (a column, in inner order) and its outer side
once per outer set, and a row filters the inner positions constraint by
constraint, each in one C-level pass of ``op`` over the outer value and
the column.  Outer sets whose side values are all equal, and of equal
types, share one row.  The 1-var constraints are filtered the same way,
as one row over all of a variable's sets.

Counts and failures are those of evaluating every constraint from
scratch per pair (:func:`~repro.constraints.evaluate.evaluate_constraint`),
set by set and constraint by constraint with a short-circuit:

* each constraint's pass costs one ``pair_checks`` per position it is
  given; a cut (``limit``, or the existential's first partner) costs
  only the checks up to the cut;
* a side evaluation or comparison that raises is kept, and raised
  where that loop would first reach it, with the count it would have
  by then; one that loop would never reach is never raised.

Also provided: existential validity filtering (Definition 3's valid
S-sets), and phase-2 rule generation ``S => T`` with support/confidence
for same-domain variables — the second phase of the exploratory
architecture the paper builds on.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from operator import length_hint
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.constraints.ast import Agg, Const, Constraint, SetConst, is_onevar, is_twovar
from repro.constraints.evaluate import UNDEFINED, evaluate_aggregate, projection_set
from repro.db.domain import Domain
from repro.db.stats import OpCounters
from repro.db.transactions import TransactionDatabase
from repro.errors import ConstraintTypeError
from repro.itemsets import Itemset, canonical


def split_constraints(
    constraints: Sequence[Constraint],
) -> Tuple[Dict[str, List[Constraint]], List[Constraint]]:
    """Split a conjunction into per-variable 1-var lists and 2-var list —
    the purely syntactic first step of the Figure 7 optimizer."""
    onevar: Dict[str, List[Constraint]] = {}
    twovar: List[Constraint] = []
    for constraint in constraints:
        if is_onevar(constraint):
            (var,) = constraint.variables()
            onevar.setdefault(var, []).append(constraint)
        elif is_twovar(constraint):
            twovar.append(constraint)
    return onevar, twovar


def form_valid_pairs(
    s_sets: Mapping[Itemset, int],
    t_sets: Mapping[Itemset, int],
    constraints: Sequence[Constraint],
    domains: Mapping[str, Domain],
    s_var: str = "S",
    t_var: str = "T",
    counters: Optional[OpCounters] = None,
    limit: Optional[int] = None,
) -> List[Tuple[Itemset, Itemset]]:
    """Enumerate the frequent valid pairs.

    1-var constraints are applied to each side once (not per pair);
    2-var constraints are then checked on the surviving cross product.
    ``limit`` truncates the output (useful for exploration); a limit
    below 1 returns no pairs and checks nothing.
    """
    if limit is not None and limit < 1:
        return []
    onevar, twovar = split_constraints(constraints)
    s_survivors = _filter_onevar(s_sets, onevar.get(s_var, []), s_var, domains, counters)
    t_survivors = _filter_onevar(t_sets, onevar.get(t_var, []), t_var, domains, counters)
    partners = list(t_survivors)
    pairs: List[Tuple[Itemset, Itemset]] = []
    for s0, row in _rows(s_survivors, partners, twovar, s_var, t_var, domains):
        wanted = None if limit is None else limit - len(pairs)
        pairs += zip(repeat(s0), map(partners.__getitem__, _take(row, counters, wanted)))
        if len(pairs) == limit:
            break
    return pairs


def valid_sets_existential(
    sets: Mapping[Itemset, int],
    other_sets: Mapping[Itemset, int],
    constraints: Sequence[Constraint],
    var: str,
    other_var: str,
    domains: Mapping[str, Domain],
    counters: Optional[OpCounters] = None,
) -> Dict[Itemset, int]:
    """Frequent sets of ``var`` that participate in at least one valid pair.

    This is the joint-existential strengthening of Definition 3: a set
    survives iff it satisfies its own 1-var constraints and some frequent
    set of the other variable (satisfying *its* 1-var constraints) makes
    every 2-var constraint true simultaneously.
    """
    onevar, twovar = split_constraints(constraints)
    own = _filter_onevar(sets, onevar.get(var, []), var, domains, counters)
    partners = _filter_onevar(
        other_sets, onevar.get(other_var, []), other_var, domains, counters
    )
    if not twovar:
        return own
    return {
        candidate: own[candidate]
        for candidate, row in _rows(own, list(partners), twovar, var, other_var, domains)
        if _take(row, counters, 1)
    }


# ----------------------------------------------------------------------
# The row kernel
# ----------------------------------------------------------------------
#: A position (or an index into a list of positions) and the exception
#: the per-pair loop raises there.
Failure = Tuple[int, Exception]


class _Scalar:
    """One operand value for every position: a constant, or one outer
    set's side (``error`` if evaluating it raised)."""

    __slots__ = ("value", "error", "clean")

    def __init__(self, value=None, error: Optional[Exception] = None):
        self.value = value
        self.error = error
        self.clean = error is None and value is not UNDEFINED

    def first_error(self, positions: List[int], stop: int) -> Optional[Failure]:
        """The first ``(index, exception)`` among ``positions[:stop]``."""
        return (0, self.error) if self.error is not None and stop else None

    def defined(self, positions: List[int]) -> List[int]:
        return [] if self.value is UNDEFINED else positions

    def stream(self, positions: List[int]) -> Iterable:
        return repeat(self.value)


class _Column:
    """One side's value per set, in set order; an evaluation that raises
    is kept in ``raised`` (position -> exception), not raised."""

    __slots__ = ("values", "undefined", "raised", "clean")

    def __init__(self, side: Callable, sets: Sequence[Itemset]):
        self.values: List = []
        self.undefined = set()
        self.raised: Dict[int, Exception] = {}
        for position, elements in enumerate(sets):
            try:
                value = side(elements)
            except Exception as exc:  # noqa: BLE001 - raised where reached
                self.raised[position] = value = exc
            else:
                if value is UNDEFINED:
                    self.undefined.add(position)
            self.values.append(value)
        self.clean = not (self.raised or self.undefined)

    def at(self, position: int) -> _Scalar:
        """The value at one position, as an operand for every position."""
        if position in self.raised:
            return _Scalar(error=self.raised[position])
        return _Scalar(self.values[position])

    def first_error(self, positions: List[int], stop: int) -> Optional[Failure]:
        """The first ``(index, exception)`` among ``positions[:stop]``."""
        raised = self.raised
        if not raised:
            return None
        return next(
            ((k, raised[positions[k]]) for k in range(stop) if positions[k] in raised),
            None,
        )

    def defined(self, positions: List[int]) -> List[int]:
        undefined = self.undefined
        return [p for p in positions if p not in undefined] if undefined else positions

    def stream(self, positions: List[int]) -> Iterable:
        return map(self.values.__getitem__, positions)


Operand = Union[_Scalar, _Column]


def _stage(
    op: Callable, left: Operand, right: Operand, positions: List[int]
) -> Tuple[List[int], Optional[Failure]]:
    """One constraint's pass over ``positions`` (ascending).

    Returns the positions where ``left op right`` holds, and the first
    ``(position, exception)`` at which the per-pair loop would raise,
    or ``None``; every kept position precedes it.  At one position the
    left side is evaluated first, then the right, then ``op``; an
    undefined side makes the check false without calling ``op``.
    """
    head, failure = positions, None
    if not (left.clean and right.clean):
        stop = len(positions)
        for side in (left, right):
            found = side.first_error(positions, stop)
            if found is not None:
                stop, exc = found
                failure = (positions[stop], exc)
        head = right.defined(left.defined(positions[:stop]))
    data = iter(head)
    selectors = map(op, left.stream(head), right.stream(head))
    try:
        return list(compress(data, selectors)), failure
    except Exception as exc:  # noqa: BLE001 - a comparison that raises
        # compress() takes a position from ``data`` before computing its
        # selector, so ``data`` has just yielded the raising position.
        k = len(head) - length_hint(data) - 1
        first = head[:k]
        kept = list(compress(first, map(op, left.stream(first), right.stream(first))))
        return kept, (head[k], exc)


class _Row:
    """The positions given to each constraint in turn (``trail``), those
    surviving them all (``kept``), and where the per-pair loop raises."""

    __slots__ = ("trail", "kept", "failure", "checks")

    def __init__(
        self, trail: List[List[int]], kept: List[int], failure: Optional[Failure]
    ):
        self.trail = trail
        self.kept = kept
        self.failure = failure
        self.checks = sum(map(len, trail))

    def checks_through(self, position: int) -> int:
        """The checks the per-pair loop spends on positions up to and
        including ``position``."""
        return sum(bisect_right(given, position) for given in self.trail)


def _row(
    positions: List[int], stages: Iterable[Tuple[Callable, Operand, Operand]]
) -> _Row:
    """Filter ``positions`` through each ``(op, left, right)`` stage.

    ``stages`` is consumed lazily: a stage the row never reaches (every
    position already rejected) is never built.  A failure in a later
    stage is always at an earlier position than one before it, since a
    stage only sees positions preceding every earlier failure.
    """
    trail: List[List[int]] = []
    failure: Optional[Failure] = None
    if positions:
        for op, left, right in stages:
            trail.append(positions)
            positions, failed = _stage(op, left, right, positions)
            failure = failed or failure
            if not positions:
                break
    return _Row(trail, positions, failure)


def _take(
    row: _Row, counters: Optional[OpCounters], n: Optional[int] = None
) -> List[int]:
    """The row's first ``n`` kept positions (all if ``None``), charging
    ``pair_checks`` as the per-pair loop would; raises the row's failure
    if that loop reaches it before finding ``n``."""
    if n is not None and len(row.kept) >= n:
        checks, kept = row.checks_through(row.kept[n - 1]), row.kept[:n]
    elif row.failure is not None:
        position, exc = row.failure
        if counters is not None:
            counters.pair_checks += row.checks_through(position)
        raise exc
    else:
        checks, kept = row.checks, row.kept
    if counters is not None:
        counters.pair_checks += checks
    return kept


def _side(expr, domains: Mapping[str, Domain]) -> Tuple[str, Callable]:
    """The variable one side of a constraint reads, and its evaluation.

    A side mentioning a variable is an aggregate (scalar comparisons)
    or a projection (set comparisons) of a single variable.
    """
    if isinstance(expr, Agg):
        var = expr.arg.var
        return var, lambda elements: evaluate_aggregate(expr, elements, domains[var])
    var = expr.var
    return var, lambda elements: projection_set(expr, elements, domains[var])


class _TwoVar:
    """A 2-var constraint split into its outer side, evaluated once per
    outer set, and its inner side, evaluated once per inner set."""

    __slots__ = ("op", "outer_left", "outer", "inner")

    def __init__(self, constraint: Constraint, outer_var: str, inner_var: str,
                 domains: Mapping[str, Domain], outer_sets: List[Itemset],
                 inner_sets: List[Itemset]):
        self.op = constraint.op.function
        missing = constraint.variables() - {outer_var, inner_var}
        if missing:
            message = (f"constraint {constraint} mentions unbound variables "
                       f"{sorted(missing)}")

            def unbound(elements: Itemset):
                raise ConstraintTypeError(message)

            # Every row raises at this constraint's first check, before
            # any inner side would be read.
            self.outer_left, outer, self.inner = True, unbound, _Scalar()
        else:
            left_var, left = _side(constraint.left, domains)
            __, right = _side(constraint.right, domains)
            self.outer_left = left_var == outer_var
            outer, inner = (left, right) if self.outer_left else (right, left)
            self.inner = _Column(inner, inner_sets)
        self.outer = _Column(outer, outer_sets)

    def stage(self, position: int) -> Tuple[Callable, Operand, Operand]:
        """The constraint's operands for the outer set at ``position``."""
        value = self.outer.at(position)
        if self.outer_left:
            return self.op, value, self.inner
        return self.op, self.inner, value


def _rows(
    outer: Iterable[Itemset],
    inner: List[Itemset],
    twovar: Sequence[Constraint],
    outer_var: str,
    inner_var: str,
    domains: Mapping[str, Domain],
):
    """Each outer set with its row over ``inner``, in outer order (none
    when either side is empty: no pair is ever checked)."""
    outer = list(outer)
    if not (outer and inner):
        return
    checks = [_TwoVar(c, outer_var, inner_var, domains, outer, inner) for c in twovar]
    positions = list(range(len(inner)))
    # An outer set's row depends only on its side values; typed, so that
    # 1, 1.0 and True (equal, but raising different comparison errors)
    # never share one.  A side that raised holds its exception, which
    # equals only itself, so that set shares no row either.
    typed = [list(zip(map(type, c.outer.values), c.outer.values)) for c in checks]
    memo: Dict[tuple, _Row] = {}
    keys = zip(*typed) if typed else repeat(())
    for i, (elements, key) in enumerate(zip(outer, keys)):
        try:
            row = memo[key]
        except KeyError:
            row = memo[key] = _row(positions, (check.stage(i) for check in checks))
        except TypeError:  # an unhashable side value shares no row
            row = _row(positions, (check.stage(i) for check in checks))
        yield elements, row


def _filter_onevar(
    sets: Mapping[Itemset, int],
    constraints: Sequence[Constraint],
    var: str,
    domains: Mapping[str, Domain],
    counters: Optional[OpCounters],
) -> Dict[Itemset, int]:
    if not constraints:
        return dict(sets)
    itemsets = list(sets)

    def operand(expr) -> Operand:
        if isinstance(expr, (Const, SetConst)):
            return _Scalar(expr.value if isinstance(expr, Const) else expr.values)
        return _Column(_side(expr, domains)[1], itemsets)

    stages = (
        (c.op.function, operand(c.left), operand(c.right)) for c in constraints
    )
    row = _row(list(range(len(itemsets))), stages)
    return {itemsets[p]: sets[itemsets[p]] for p in _take(row, counters)}


# ----------------------------------------------------------------------
# Phase 2: rule formation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rule:
    """An association rule ``S => T`` with its quality measures."""

    antecedent: Itemset
    consequent: Itemset
    support: float
    confidence: float

    def __str__(self) -> str:
        return (
            f"{set(self.antecedent)} => {set(self.consequent)} "
            f"(sup={self.support:.3f}, conf={self.confidence:.3f})"
        )


def rules_from_pairs(
    pairs: Sequence[Tuple[Itemset, Itemset]],
    db: TransactionDatabase,
    min_confidence: float = 0.0,
) -> List[Rule]:
    """Form ``S => T`` rules from valid pairs over a shared item domain.

    Requires one extra pass per distinct union to count joint supports
    (the paper's phase-2 computation).  Pairs with overlapping antecedent
    and consequent are skipped, as the rule reading makes no sense there.
    """
    n = len(db)
    if n == 0:
        return []
    support_cache: Dict[Itemset, int] = {}
    rules: List[Rule] = []
    for antecedent, consequent in pairs:
        if set(antecedent) & set(consequent):
            continue
        union = canonical(set(antecedent) | set(consequent))
        if union not in support_cache:
            support_cache[union] = db.support(union)
        if antecedent not in support_cache:
            support_cache[antecedent] = db.support(antecedent)
        joint = support_cache[union]
        ante = support_cache[antecedent]
        confidence = joint / ante if ante else 0.0
        if confidence >= min_confidence:
            rules.append(Rule(antecedent, consequent, joint / n, confidence))
    return rules

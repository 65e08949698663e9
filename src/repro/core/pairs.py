"""Final pair formation: the last box of Figure 7.

Once the frequent valid S- and T-sets are computed, the answer to the CFQ
is the set of pairs ``(S0, T0)`` jointly satisfying every constraint.
The paper treats this step as comparatively trivial ("typically many
orders of magnitude" cheaper than the lattice computation); nonetheless
the checks performed here are metered (``pair_checks``) so the ccc audit
can confirm that claim on real runs.

Every 2-var constraint has the form ``f(S) op g(T)``: each side is an
aggregate or projection of one variable.  Each call therefore compiles
its 2-var constraints once into their two side functions, memoizes each
side's value per set the first time a check reaches it, and leaves the
cross product only comparing stored values.  The loop order, the
per-constraint short-circuit, the ``pair_checks`` count and the check at
which an evaluation raises are those of evaluating every constraint
from scratch per pair (:func:`~repro.constraints.evaluate.evaluate_constraint`).

Also provided: existential validity filtering (Definition 3's valid
S-sets), and phase-2 rule generation ``S => T`` with support/confidence
for same-domain variables — the second phase of the exploratory
architecture the paper builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.constraints.ast import Agg, Constraint, is_onevar, is_twovar
from repro.constraints.evaluate import (
    UNDEFINED,
    evaluate_aggregate,
    evaluate_constraint,
    projection_set,
)
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
    ``limit`` truncates the output (useful for exploration).
    """
    onevar, twovar = split_constraints(constraints)
    s_survivors = _filter_onevar(s_sets, onevar.get(s_var, []), s_var, domains, counters)
    t_survivors = _filter_onevar(t_sets, onevar.get(t_var, []), t_var, domains, counters)
    checks = [_compile_twovar(c, s_var, t_var, domains) for c in twovar]
    pairs: List[Tuple[Itemset, Itemset]] = []
    for s0 in s_survivors:
        for t0 in t_survivors:
            for check in checks:
                if counters is not None:
                    counters.pair_checks += 1
                if not check(s0, t0):
                    break
            else:
                pairs.append((s0, t0))
                if limit is not None and len(pairs) >= limit:
                    return pairs
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
    checks = [_compile_twovar(c, var, other_var, domains) for c in twovar]
    survivors: Dict[Itemset, int] = {}
    for candidate, support in own.items():
        for partner in partners:
            for check in checks:
                if counters is not None:
                    counters.pair_checks += 1
                if not check(candidate, partner):
                    break
            else:
                survivors[candidate] = support
                break
    return survivors


# ----------------------------------------------------------------------
# Compiled 2-var checks
# ----------------------------------------------------------------------
class _SideValues(dict):
    """One constraint side's value per bound set, computed on first use."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable):
        super().__init__()
        self.compute = compute

    def __missing__(self, elements: Itemset):
        value = self[elements] = self.compute(elements)
        return value


def _side(expr, domains: Mapping[str, Domain]) -> Tuple[str, _SideValues]:
    """The variable one side of a 2-var constraint reads, and its memo.

    Both sides of a 2-var constraint mention a variable (with a constant
    side it would be 1-var), so each is an aggregate (scalar
    comparisons) or a projection (set comparisons) of a single variable.
    """
    if isinstance(expr, Agg):
        var = expr.arg.var
        return var, _SideValues(
            lambda elements: evaluate_aggregate(expr, elements, domains[var])
        )
    var = expr.var
    return var, _SideValues(
        lambda elements: projection_set(expr, elements, domains[var])
    )


def _compile_twovar(
    constraint: Constraint,
    outer_var: str,
    inner_var: str,
    domains: Mapping[str, Domain],
) -> Callable[[Itemset, Itemset], bool]:
    """``check(outer_set, inner_set)`` deciding one 2-var constraint.

    Sides are evaluated left first, as written, so the first evaluation
    that raises is the one :func:`evaluate_constraint` would raise at;
    an undefined aggregate on either side makes the check false.
    """
    missing = constraint.variables() - {outer_var, inner_var}
    if missing:
        def unbound(outer: Itemset, inner: Itemset) -> bool:
            raise ConstraintTypeError(
                f"constraint {constraint} mentions unbound variables "
                f"{sorted(missing)}"
            )
        return unbound
    left_var, left = _side(constraint.left, domains)
    __, right = _side(constraint.right, domains)
    op = constraint.op.function
    if left_var == outer_var:
        def check(outer: Itemset, inner: Itemset) -> bool:
            a = left[outer]
            b = right[inner]
            return a is not UNDEFINED and b is not UNDEFINED and op(a, b)
    else:
        def check(outer: Itemset, inner: Itemset) -> bool:
            a = left[inner]
            b = right[outer]
            return a is not UNDEFINED and b is not UNDEFINED and op(a, b)
    return check


def _filter_onevar(
    sets: Mapping[Itemset, int],
    constraints: Sequence[Constraint],
    var: str,
    domains: Mapping[str, Domain],
    counters: Optional[OpCounters],
) -> Dict[Itemset, int]:
    if not constraints:
        return dict(sets)
    survivors: Dict[Itemset, int] = {}
    for itemset, support in sets.items():
        ok = True
        for constraint in constraints:
            if counters is not None:
                counters.pair_checks += 1
            if not evaluate_constraint(constraint, {var: itemset}, {var: domains[var]}):
                ok = False
                break
        if ok:
            survivors[itemset] = support
    return survivors


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

"""Evaluation of constraints against concrete bound sets.

Given bindings ``{"S": (element ids...), "T": (...)}`` and the domains the
variables range over, :func:`evaluate_constraint` decides whether a
constraint holds.  This is the ground-truth semantics: every pruning
optimization in the library is validated (in tests, and at pair-formation
time) against this function.

Empty-set semantics
-------------------
``sum`` of an empty projection is 0 and ``count`` is 0; ``min``, ``max``
and ``avg`` of an empty projection are undefined, and any comparison
involving an undefined aggregate evaluates to ``False``.  This matches the
usual SQL-flavored reading and keeps pruning conditions conservative.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence

from repro.constraints.ast import (
    Agg,
    AttrRef,
    Comparison,
    Const,
    Constraint,
    SetComparison,
    SetConst,
)
from repro.db.domain import Domain
from repro.errors import ConstraintTypeError

Bindings = Mapping[str, Iterable[int]]
Domains = Mapping[str, Domain]

#: What an undefined aggregate (``min``/``max``/``avg`` of an empty
#: projection) evaluates to; any comparison involving it is false.
UNDEFINED = object()


def projection_values(ref: AttrRef, elements: Iterable[int], domain: Domain) -> List:
    """The multiset of values ``ref`` projects ``elements`` to.

    ``S.Price`` yields one value per element; a bare variable reference
    (``attr is None``) yields each element's identity value.
    """
    elements = list(elements)
    if ref.attr is None:
        return [domain.element_value(e) for e in elements]
    return domain.catalog.project(elements, ref.attr)


def projection_set(ref: AttrRef, elements: Iterable[int], domain: Domain) -> frozenset:
    """The set of values ``ref`` projects ``elements`` to (``S.A`` as a set)."""
    return frozenset(projection_values(ref, elements, domain))


def evaluate_aggregate(agg: Agg, elements: Iterable[int], domain: Domain):
    """Evaluate an aggregate over a bound set; undefined aggregates return
    :data:`UNDEFINED`, which makes any enclosing comparison false."""
    values = projection_values(agg.arg, elements, domain)
    if agg.func == "count":
        return len(set(values))
    if agg.func == "sum":
        _require_numeric(agg, values)
        return sum(values)
    if not values:
        return UNDEFINED
    if agg.func == "min":
        return min(values)
    if agg.func == "max":
        return max(values)
    # avg
    _require_numeric(agg, values)
    return sum(values) / len(values)


def _require_numeric(agg: Agg, values: Sequence) -> None:
    for v in values:
        if not isinstance(v, (int, float)):
            raise ConstraintTypeError(
                f"{agg} aggregates a non-numeric value {v!r}"
            )


def _scalar_side(expr, bindings: Bindings, domains: Domains):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Agg):
        var = expr.arg.var
        return evaluate_aggregate(expr, bindings[var], domains[var])
    raise ConstraintTypeError(f"not a scalar expression: {expr}")


def _set_side(expr, bindings: Bindings, domains: Domains) -> frozenset:
    if isinstance(expr, SetConst):
        return expr.values
    if isinstance(expr, AttrRef):
        return projection_set(expr, bindings[expr.var], domains[expr.var])
    raise ConstraintTypeError(f"not a set expression: {expr}")


def evaluate_constraint(
    constraint: Constraint,
    bindings: Bindings,
    domains: Domains,
) -> bool:
    """Decide whether ``constraint`` holds under ``bindings``.

    Parameters
    ----------
    constraint:
        A :class:`~repro.constraints.ast.Comparison` or
        :class:`~repro.constraints.ast.SetComparison`.
    bindings:
        Mapping from variable name to the element ids of its bound set.
        Every variable the constraint mentions must be bound.
    domains:
        Mapping from variable name to its :class:`~repro.db.domain.Domain`.
    """
    missing = constraint.variables() - set(bindings)
    if missing:
        raise ConstraintTypeError(
            f"constraint {constraint} mentions unbound variables {sorted(missing)}"
        )
    if isinstance(constraint, Comparison):
        left = _scalar_side(constraint.left, bindings, domains)
        right = _scalar_side(constraint.right, bindings, domains)
        if left is UNDEFINED or right is UNDEFINED:
            return False
        return constraint.op.apply(left, right)
    if isinstance(constraint, SetComparison):
        left = _set_side(constraint.left, bindings, domains)
        right = _set_side(constraint.right, bindings, domains)
        return constraint.op.apply(left, right)
    raise ConstraintTypeError(f"unknown constraint node: {constraint!r}")


def evaluate_all(
    constraints: Sequence[Constraint],
    bindings: Bindings,
    domains: Domains,
) -> bool:
    """Decide whether a conjunction of constraints holds under ``bindings``."""
    return all(evaluate_constraint(c, bindings, domains) for c in constraints)

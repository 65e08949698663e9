"""Abstract syntax for the CFQ constraint language.

The language of Section 2 contains, besides the implicit frequency
constraints:

* **domain constraints** — set relations between attribute projections and
  constant sets or each other: ``S.Type = {Snacks}``,
  ``S.A ∩ T.B = ∅``, ``S.A ⊆ T.B``, ...;
* **class constraints** — expressed through ``count`` over an attribute,
  e.g. ``count(S.Type) = 1`` (count is COUNT DISTINCT);
* **aggregation constraints** — comparisons between ``min``, ``max``,
  ``sum``, ``avg``, ``count`` of attribute projections and constants or
  each other: ``sum(S.Price) <= 100``, ``max(S.A) <= min(T.B)``.

Expressions and constraints are small frozen dataclasses, hashable and
printable; all structural analysis (1-var vs 2-var, shapes, properties)
lives in sibling modules.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Optional, Tuple, Union

from repro.errors import ConstraintTypeError

AGG_FUNCS: Tuple[str, ...] = ("min", "max", "sum", "avg", "count")

Number = Union[int, float]


class CmpOp(enum.Enum):
    """Scalar comparison operators."""

    LT = "<"
    LE = "<="
    EQ = "="
    NE = "!="
    GE = ">="
    GT = ">"

    @property
    def function(self) -> Callable[[Any, Any], bool]:
        """The comparison as a plain two-argument function (resolved once
        by callers that apply it in a loop)."""
        return _CMP_FUNCTIONS[self]

    def apply(self, a, b) -> bool:
        """Apply the comparison to two scalar values."""
        return _CMP_FUNCTIONS[self](a, b)

    def flipped(self) -> "CmpOp":
        """The operator with operands swapped (``a <= b`` -> ``b >= a``)."""
        return _CMP_FLIP[self]

    @property
    def is_le_like(self) -> bool:
        """Whether this is ``<`` or ``<=``."""
        return self in (CmpOp.LT, CmpOp.LE)

    @property
    def is_ge_like(self) -> bool:
        """Whether this is ``>`` or ``>=``."""
        return self in (CmpOp.GT, CmpOp.GE)

    @property
    def strict(self) -> bool:
        """Whether the comparison is strict."""
        return self in (CmpOp.LT, CmpOp.GT)


_CMP_FUNCTIONS = {
    CmpOp.LT: operator.lt,
    CmpOp.LE: operator.le,
    CmpOp.EQ: operator.eq,
    CmpOp.NE: operator.ne,
    CmpOp.GE: operator.ge,
    CmpOp.GT: operator.gt,
}

_CMP_FLIP = {
    CmpOp.LT: CmpOp.GT,
    CmpOp.LE: CmpOp.GE,
    CmpOp.EQ: CmpOp.EQ,
    CmpOp.NE: CmpOp.NE,
    CmpOp.GE: CmpOp.LE,
    CmpOp.GT: CmpOp.LT,
}


class SetOp(enum.Enum):
    """Set relations between two set-valued expressions."""

    DISJOINT = "disjoint"          # A ∩ B = ∅
    OVERLAPS = "overlaps"          # A ∩ B != ∅
    SUBSET = "subset"              # A ⊆ B
    NOT_SUBSET = "not_subset"      # A ⊄ B
    SUPERSET = "superset"          # A ⊇ B
    NOT_SUPERSET = "not_superset"  # A ⊉ B
    SETEQ = "seteq"                # A = B
    SETNEQ = "setneq"              # A != B

    @property
    def function(self) -> Callable[[frozenset, frozenset], bool]:
        """The relation as a plain two-argument function (resolved once
        by callers that apply it in a loop)."""
        return _SET_FUNCTIONS[self]

    def apply(self, a: frozenset, b: frozenset) -> bool:
        """Apply the relation to two frozensets."""
        return _SET_FUNCTIONS[self](a, b)

    def flipped(self) -> "SetOp":
        """The relation with operands swapped (``A ⊆ B`` -> ``B ⊇ A``)."""
        return _SET_FLIP[self]


_SET_FUNCTIONS = {
    SetOp.DISJOINT: lambda a, b: a.isdisjoint(b),
    SetOp.OVERLAPS: lambda a, b: not a.isdisjoint(b),
    SetOp.SUBSET: lambda a, b: a.issubset(b),
    SetOp.NOT_SUBSET: lambda a, b: not a.issubset(b),
    SetOp.SUPERSET: lambda a, b: a.issuperset(b),
    SetOp.NOT_SUPERSET: lambda a, b: not a.issuperset(b),
    SetOp.SETEQ: operator.eq,
    SetOp.SETNEQ: operator.ne,
}

_SET_FLIP = {
    SetOp.DISJOINT: SetOp.DISJOINT,
    SetOp.OVERLAPS: SetOp.OVERLAPS,
    SetOp.SUBSET: SetOp.SUPERSET,
    SetOp.NOT_SUBSET: SetOp.NOT_SUPERSET,
    SetOp.SUPERSET: SetOp.SUBSET,
    SetOp.NOT_SUPERSET: SetOp.NOT_SUBSET,
    SetOp.SETEQ: SetOp.SETEQ,
    SetOp.SETNEQ: SetOp.SETNEQ,
}


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Const:
    """A scalar constant (``100`` in ``sum(S.Price) <= 100``)."""

    value: Number

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, str) else str(self.value)


@dataclass(frozen=True)
class SetConst:
    """A constant set (``{Snacks}`` in ``S.Type = {Snacks}``)."""

    values: FrozenSet

    def __str__(self) -> str:
        inner = ", ".join(sorted(str(v) for v in self.values))
        return "{" + inner + "}"


@dataclass(frozen=True)
class AttrRef:
    """An attribute projection of a set variable.

    ``AttrRef("S", "Price")`` denotes ``S.Price``.  ``attr=None`` denotes
    the variable's element values themselves (used when a variable ranges
    over a derived domain, e.g. ``S.Type ⊆ T`` with ``T`` over Types).
    """

    var: str
    attr: Optional[str]

    def __str__(self) -> str:
        return f"{self.var}.{self.attr}" if self.attr else self.var


@dataclass(frozen=True)
class Agg:
    """An aggregate over an attribute projection, e.g. ``min(S.Price)``.

    ``count`` is COUNT DISTINCT, matching the paper's class-constraint
    examples (``count(S.Type) = 1`` means all items of ``S`` share one
    type).
    """

    func: str
    arg: AttrRef

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise ConstraintTypeError(
                f"unknown aggregate {self.func!r}; expected one of {AGG_FUNCS}"
            )

    def __str__(self) -> str:
        return f"{self.func}({self.arg})"


Expr = Union[Const, SetConst, AttrRef, Agg]


def expr_variables(expr: Expr) -> FrozenSet[str]:
    """The set-variable names an expression mentions."""
    if isinstance(expr, AttrRef):
        return frozenset({expr.var})
    if isinstance(expr, Agg):
        return frozenset({expr.arg.var})
    return frozenset()


def is_scalar_expr(expr: Expr) -> bool:
    """Whether the expression denotes a scalar (number) value."""
    return isinstance(expr, (Const, Agg))


def is_set_expr(expr: Expr) -> bool:
    """Whether the expression denotes a set value."""
    return isinstance(expr, (SetConst, AttrRef))


# ----------------------------------------------------------------------
# Constraints
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Comparison:
    """A scalar comparison constraint: ``agg-or-const op agg-or-const``.

    At least one side must mention a variable (a comparison between two
    constants is rejected as vacuous).
    """

    left: Expr
    op: CmpOp
    right: Expr

    def __post_init__(self) -> None:
        for side, name in ((self.left, "left"), (self.right, "right")):
            if not is_scalar_expr(side):
                raise ConstraintTypeError(
                    f"{name} side of a scalar comparison must be an aggregate "
                    f"or constant, got {side}"
                )
        if not self.variables():
            raise ConstraintTypeError(
                "a constraint must mention at least one set variable"
            )

    def variables(self) -> FrozenSet[str]:
        """The set-variable names this constraint mentions."""
        return expr_variables(self.left) | expr_variables(self.right)

    def flipped(self) -> "Comparison":
        """The same constraint with the operand sides swapped."""
        return Comparison(self.right, self.op.flipped(), self.left)

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


@dataclass(frozen=True)
class SetComparison:
    """A set-relation constraint between set-valued expressions.

    Examples: ``S.Type = {Snacks}``, ``S.A ∩ T.B = ∅`` (DISJOINT),
    ``S.Type ⊆ T`` (T over the Type domain).
    """

    left: Expr
    op: SetOp
    right: Expr

    def __post_init__(self) -> None:
        for side, name in ((self.left, "left"), (self.right, "right")):
            if not is_set_expr(side):
                raise ConstraintTypeError(
                    f"{name} side of a set comparison must be an attribute "
                    f"projection or a set constant, got {side}"
                )
        if not self.variables():
            raise ConstraintTypeError(
                "a constraint must mention at least one set variable"
            )

    def variables(self) -> FrozenSet[str]:
        """The set-variable names this constraint mentions."""
        return expr_variables(self.left) | expr_variables(self.right)

    def flipped(self) -> "SetComparison":
        """The same constraint with the operand sides swapped."""
        return SetComparison(self.right, self.op.flipped(), self.left)

    def __str__(self) -> str:
        symbol = {
            SetOp.DISJOINT: "∩∅",
            SetOp.OVERLAPS: "∩≠∅",
            SetOp.SUBSET: "⊆",
            SetOp.NOT_SUBSET: "⊄",
            SetOp.SUPERSET: "⊇",
            SetOp.NOT_SUPERSET: "⊉",
            SetOp.SETEQ: "=",
            SetOp.SETNEQ: "≠",
        }[self.op]
        if self.op is SetOp.DISJOINT:
            return f"{self.left} ∩ {self.right} = ∅"
        if self.op is SetOp.OVERLAPS:
            return f"{self.left} ∩ {self.right} ≠ ∅"
        return f"{self.left} {symbol} {self.right}"


Constraint = Union[Comparison, SetComparison]


def constraint_variables(constraint: Constraint) -> FrozenSet[str]:
    """The set-variable names a constraint mentions."""
    return constraint.variables()


def is_onevar(constraint: Constraint) -> bool:
    """Whether the constraint mentions exactly one set variable."""
    return len(constraint.variables()) == 1


def is_twovar(constraint: Constraint) -> bool:
    """Whether the constraint mentions exactly two set variables."""
    return len(constraint.variables()) == 2

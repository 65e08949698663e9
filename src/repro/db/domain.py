"""Domains: the ranges of the set variables ``S`` and ``T``.

Section 3 of the paper stresses that the two variables of a CFQ may range
over *different* domains — e.g. ``S`` over ``Item`` and ``T`` over the
``Type`` domain — and that even when both range over ``Item`` their 1-var
constraints may force them into different segments.  A :class:`Domain`
captures a variable's range:

* ``elements`` — the element ids the variable's sets draw from;
* ``catalog`` — attributes of those elements (``Price``, ``Type``, ...);
* ``project(transaction)`` — how a raw transaction (a set of item ids)
  induces a set of domain elements, which is what frequency counting
  operates on.

Two kinds of domain are provided: item domains (identity projection,
optionally restricted to a segment of the item universe) and derived
domains such as the Type domain (each transaction projects to the set of
types of its items).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.db.catalog import AttrValue, ItemCatalog
from repro.errors import DataError


class Domain:
    """The range of a set variable, with attribute access and projection.

    Use the factories :meth:`Domain.items` and
    :func:`derived_type_domain` rather than the constructor.
    """

    def __init__(
        self,
        name: str,
        elements: Iterable[int],
        catalog: ItemCatalog,
        values: Mapping[int, AttrValue],
        item_to_element: Optional[Mapping[int, int]] = None,
    ):
        self.name = name
        self.elements: Tuple[int, ...] = tuple(sorted(elements))
        self.catalog = catalog
        self._values: Dict[int, AttrValue] = dict(values)
        self._membership = frozenset(self.elements)
        self._item_to_element = dict(item_to_element) if item_to_element is not None else None
        if set(self.elements) != set(catalog.items):
            raise DataError(
                f"domain {name!r}: elements and catalog items disagree"
            )
        missing = self._membership - set(self._values)
        if missing:
            raise DataError(
                f"domain {name!r}: {len(missing)} elements lack identity values"
            )

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def items(
        cls,
        catalog: ItemCatalog,
        name: str = "Item",
        subset: Optional[Iterable[int]] = None,
    ) -> "Domain":
        """An item domain: elements are item ids, projection is identity.

        ``subset`` restricts the domain to a segment of the item universe
        (e.g. the items a 1-var range constraint allows), which is how the
        paper models variables ranging over different parts of ``Item``.
        """
        if subset is not None:
            catalog = catalog.restrict(subset)
        values = {i: i for i in catalog.items}
        return cls(name, catalog.items, catalog, values)

    # ------------------------------------------------------------------
    # Projection and lookups
    # ------------------------------------------------------------------
    @property
    def is_derived(self) -> bool:
        """Whether transactions project through an item->element mapping."""
        return self._item_to_element is not None

    @property
    def item_to_element(self) -> Optional[Mapping[int, int]]:
        """A derived domain's item -> element mapping (read-only);
        ``None`` for an item domain, whose elements are the items."""
        mapping = self._item_to_element
        return None if mapping is None else MappingProxyType(mapping)

    def project(self, transaction: Iterable[int]) -> Tuple[int, ...]:
        """Project a raw transaction onto this domain's elements, sorted."""
        mapping = self._item_to_element
        if mapping is None:
            return tuple(sorted(self._membership.intersection(transaction)))
        projected = {mapping[i] for i in transaction if i in mapping}
        return tuple(sorted(projected))

    def element_value(self, element_id: int) -> AttrValue:
        """The identity value of an element (the item id itself for item
        domains; the underlying value, e.g. the type string, for derived
        domains)."""
        try:
            return self._values[element_id]
        except KeyError:
            raise DataError(
                f"element {element_id} not in domain {self.name!r}"
            ) from None

    def element_values(self, elements: Iterable[int]) -> frozenset:
        """Identity values of a set of elements, as a frozenset."""
        return frozenset(self.element_value(e) for e in elements)

    def __contains__(self, element_id: int) -> bool:
        return element_id in self._membership

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Domain({self.name!r}, {len(self.elements)} elements)"


def derived_type_domain(
    catalog: ItemCatalog,
    attribute: str = "Type",
    name: Optional[str] = None,
) -> Domain:
    """Build the derived domain of an item attribute (e.g. the Type domain).

    Each distinct value of ``attribute`` becomes one domain element; a
    transaction projects to the set of attribute values of its items.  The
    resulting domain's catalog exposes a single attribute, named after
    ``attribute``, holding each element's underlying value, plus the same
    value under the name ``"Value"`` for generic access.
    """
    column = catalog.column(attribute)
    distinct = sorted(set(column.values()), key=lambda v: (str(type(v)), v))
    value_to_eid = {value: eid for eid, value in enumerate(distinct)}
    eid_values: Dict[int, AttrValue] = {eid: value for value, eid in value_to_eid.items()}
    element_catalog = ItemCatalog(
        {
            attribute: dict(eid_values),
            "Value": dict(eid_values),
        }
    )
    item_to_element = {item: value_to_eid[value] for item, value in column.items()}
    return Domain(
        name or f"{attribute}Domain",
        eid_values.keys(),
        element_catalog,
        eid_values,
        item_to_element=item_to_element,
    )

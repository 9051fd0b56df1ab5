"""Relationship schema: entity types, relation types, and argument compatibility.

The schema links each relation type to the entity types allowed in its two
argument slots.  Argument order is role order (arg1 carries the schema's
first-argument type), independent of where the mentions sit in the text.
"""

from __future__ import annotations

import enum


class EntityType(str, enum.Enum):
    """Clinical entity categories attachable to a text span."""

    INVESTIGATION = "Investigation"
    INTERVENTION = "Intervention"
    CONDITION = "Condition"
    LOCUS = "Locus"
    DRUG_OR_DEVICE = "DrugOrDevice"
    RESULT = "Result"
    NEGATION_SIGNAL = "NegationSignal"
    LATERALITY_SIGNAL = "LateralitySignal"
    SUBLOCATION_SIGNAL = "SubLocationSignal"

    @property
    def is_event(self) -> bool:
        """Investigations and interventions are events; everything else is not."""
        return self in _EVENT_TYPES

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_EVENT_TYPES = frozenset({EntityType.INVESTIGATION, EntityType.INTERVENTION})


class RelationType(str, enum.Enum):
    """The seven relationship types plus the distinguished non-relation label."""

    HAS_TARGET = "has_target"
    HAS_FINDING = "has_finding"
    HAS_INDICATION = "has_indication"
    HAS_LOCATION = "has_location"
    NEGATION_MODIFIES = "negation_modifies"
    LATERALITY_MODIFIES = "laterality_modifies"
    SUBLOCATION_MODIFIES = "sublocation_modifies"
    NULL = "null"

    @property
    def is_null(self) -> bool:
        return self is RelationType.NULL

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Legal (first-argument, second-argument) entity types per relation type.
ARGUMENT_TYPES: dict[RelationType, tuple[frozenset[EntityType], frozenset[EntityType]]] = {
    RelationType.HAS_TARGET: (
        frozenset({EntityType.INVESTIGATION, EntityType.INTERVENTION}),
        frozenset({EntityType.LOCUS}),
    ),
    RelationType.HAS_FINDING: (
        frozenset({EntityType.INVESTIGATION}),
        frozenset({EntityType.CONDITION, EntityType.RESULT}),
    ),
    RelationType.HAS_INDICATION: (
        frozenset({EntityType.DRUG_OR_DEVICE, EntityType.INTERVENTION, EntityType.INVESTIGATION}),
        frozenset({EntityType.CONDITION}),
    ),
    RelationType.HAS_LOCATION: (
        frozenset({EntityType.CONDITION}),
        frozenset({EntityType.LOCUS}),
    ),
    RelationType.NEGATION_MODIFIES: (
        frozenset({EntityType.NEGATION_SIGNAL}),
        frozenset({EntityType.CONDITION}),
    ),
    RelationType.LATERALITY_MODIFIES: (
        frozenset({EntityType.LATERALITY_SIGNAL}),
        frozenset({EntityType.LOCUS, EntityType.INTERVENTION}),
    ),
    RelationType.SUBLOCATION_MODIFIES: (
        frozenset({EntityType.SUBLOCATION_SIGNAL}),
        frozenset({EntityType.LOCUS}),
    ),
}

#: All relation types except the null label, in lexicographic label order
#: (the order used for deterministic tie-breaking).
RELATION_TYPES: tuple[RelationType, ...] = tuple(
    sorted((r for r in RelationType if not r.is_null), key=lambda r: r.value)
)

#: Human-readable report labels, and the row order used in result tables.
REPORT_LABELS: dict[RelationType, str] = {
    RelationType.HAS_FINDING: "Has_finding",
    RelationType.HAS_INDICATION: "Has_indication",
    RelationType.HAS_LOCATION: "Has_location",
    RelationType.HAS_TARGET: "Has_target",
    RelationType.LATERALITY_MODIFIES: "Laterality_modifies",
    RelationType.NEGATION_MODIFIES: "Negation_modifies",
    RelationType.SUBLOCATION_MODIFIES: "Sub-location_modifies",
}


def compatible_relation_types(a1: EntityType, a2: EntityType) -> set[RelationType]:
    """Relation types admitting ``a1`` in the first slot and ``a2`` in the second.

    Total function; returns the empty set when no relation type fits.  The
    check is order-sensitive: ``(Locus, Investigation)`` is not compatible even
    though ``(Investigation, Locus)`` is.
    """
    return {
        rtype
        for rtype, (first, second) in ARGUMENT_TYPES.items()
        if a1 in first and a2 in second
    }

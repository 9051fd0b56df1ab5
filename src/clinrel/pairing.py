"""Candidate entity-pair generation and gold labeling.

Candidates are ordered mention pairs whose entity types fit at least one
relation type's argument slots and whose mentions lie within a configurable
number of sentence boundaries of each other.  Pairs matching a gold relation
inherit its type; all others are labeled null.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Document, RelationInstance
from .schema import RelationType, compatible_relation_types

DEFAULT_MAX_CROSSINGS = 1


@dataclass(frozen=True)
class EntityPair:
    """An ordered candidate (arg1, arg2) of one document."""

    doc_id: str
    arg1: str
    arg2: str


@dataclass(frozen=True)
class LabeledInstance:
    pair: EntityPair
    label: RelationType


def generate_pairs(doc: Document, max_crossings: int = DEFAULT_MAX_CROSSINGS) -> tuple[EntityPair, ...]:
    """All type-compatible ordered mention pairs within the sentence window.

    Output is sorted by arg1 token position, then arg2 token position (mention
    id as the final tie-break), so repeated runs enumerate identically.
    """
    if max_crossings < 0:
        raise ValueError("max_crossings must be >= 0")
    ordered = sorted(doc.entities, key=lambda e: (e.first_token, e.id))
    pairs = []
    for m1 in ordered:
        for m2 in ordered:
            if m1.id == m2.id:
                continue
            if not compatible_relation_types(m1.etype, m2.etype):
                continue
            if abs(doc.sentence_index(m1.first_token) - doc.sentence_index(m2.first_token)) > max_crossings:
                continue
            pairs.append(EntityPair(doc.id, m1.id, m2.id))
    return tuple(pairs)


def label_pairs(
    pairs: tuple[EntityPair, ...],
    gold: tuple[RelationInstance, ...],
) -> tuple[tuple[LabeledInstance, ...], int]:
    """Label each pair against the gold relations.

    Returns the labeled instances plus the count of gold relations no emitted
    pair could express (window too small, or a second gold type on the same
    argument pair; ties on one pair resolve to the lexicographically smallest
    type).
    """
    by_args: dict[tuple[str, str], list[RelationType]] = {}
    for rel in gold:
        by_args.setdefault((rel.arg1, rel.arg2), []).append(rel.rtype)
    for types in by_args.values():
        types.sort(key=lambda r: r.value)

    reachable = 0
    instances = []
    for pair in pairs:
        types = by_args.get((pair.arg1, pair.arg2))
        if types:
            instances.append(LabeledInstance(pair, types[0]))
            reachable += 1
        else:
            instances.append(LabeledInstance(pair, RelationType.NULL))
    unreachable = len(gold) - reachable
    return tuple(instances), unreachable


def labeled_instances(
    doc: Document, max_crossings: int = DEFAULT_MAX_CROSSINGS
) -> tuple[tuple[LabeledInstance, ...], int]:
    """Generate and label a document's candidate pairs in one step."""
    pairs = generate_pairs(doc, max_crossings)
    return label_pairs(pairs, doc.relations)

import pytest

from clinrel.corpus import (
    Document,
    EntityMention,
    RelationInstance,
    Sentence,
    Token,
)
from clinrel.pairing import generate_pairs, label_pairs, labeled_instances
from clinrel.schema import EntityType, RelationType, compatible_relation_types


def mk_doc(words, sentence_breaks, entities, relations=()):
    """Build a document from words, sentence lengths, and local entity specs."""
    tokens = []
    pos = 0
    for w in words:
        tokens.append(Token(pos, pos + len(w), w, "NN", w.lower()))
        pos += len(w) + 1
    sentences = []
    first = 0
    for length in sentence_breaks:
        sentences.append(Sentence(first, first + length - 1))
        first += length
    mentions = tuple(
        EntityMention(eid, etype, t1, t2) for eid, etype, t1, t2 in entities
    )
    rels = tuple(RelationInstance(r, a, b) for r, a, b in relations)
    return Document("d", " ".join(words), tuple(tokens), tuple(sentences), mentions, rels)


def xray_doc(relations=()):
    return mk_doc(
        ["A", "chest", "X-ray", "was", "normal", "."],
        [6],
        [
            ("chest", EntityType.LOCUS, 1, 1),
            ("xray", EntityType.INVESTIGATION, 2, 2),
            ("normal", EntityType.RESULT, 4, 4),
        ],
        relations,
    )


def test_pairs_respect_type_compatibility():
    pairs = generate_pairs(xray_doc(), max_crossings=0)
    got = {(p.arg1, p.arg2) for p in pairs}
    assert ("xray", "chest") in got
    assert ("xray", "normal") in got
    assert ("chest", "normal") not in got
    assert ("normal", "xray") not in got
    doc = xray_doc()
    for p in pairs:
        t1 = doc.entity(p.arg1).etype
        t2 = doc.entity(p.arg2).etype
        assert compatible_relation_types(t1, t2)


def test_single_mention_document_yields_nothing():
    doc = mk_doc(["pain", "."], [2], [("e1", EntityType.CONDITION, 0, 0)])
    assert generate_pairs(doc) == ()


def test_sentence_crossing_limit():
    doc = mk_doc(
        ["scan", ".", "fine", ".", "lung", "."],
        [2, 2, 2],
        [
            ("inv", EntityType.INVESTIGATION, 0, 0),
            ("loc", EntityType.LOCUS, 4, 4),
        ],
    )
    assert generate_pairs(doc, max_crossings=1) == ()
    two = generate_pairs(doc, max_crossings=2)
    assert [(p.arg1, p.arg2) for p in two] == [("inv", "loc")]
    assert doc.sentence_index(doc.entity("loc").first_token) - doc.sentence_index(doc.entity("inv").first_token) == 2


def test_negative_max_crossings_rejected():
    with pytest.raises(ValueError):
        generate_pairs(xray_doc(), max_crossings=-1)


def test_pair_order_is_deterministic():
    doc = xray_doc()
    assert generate_pairs(doc) == generate_pairs(doc)
    order = [(p.arg1, p.arg2) for p in generate_pairs(doc)]
    # arg1 in token order; emitted pairs sorted accordingly
    assert order == [("xray", "chest"), ("xray", "normal")]


def test_both_directions_emitted_when_both_legal():
    # Investigation-Investigation has no legal relation either way; use a pair
    # where only one direction is legal and check the other is absent.
    doc = mk_doc(
        ["pain", "in", "arm", "."],
        [4],
        [
            ("cond", EntityType.CONDITION, 0, 0),
            ("loc", EntityType.LOCUS, 2, 2),
        ],
    )
    got = [(p.arg1, p.arg2) for p in generate_pairs(doc)]
    assert got == [("cond", "loc")]


def test_gold_pair_inherits_type():
    doc = xray_doc([(RelationType.HAS_TARGET, "xray", "chest")])
    instances, unreachable = labeled_instances(doc)
    by_args = {(i.pair.arg1, i.pair.arg2): i.label for i in instances}
    assert by_args[("xray", "chest")] is RelationType.HAS_TARGET
    assert by_args[("xray", "normal")] is RelationType.NULL
    assert unreachable == 0


def test_empty_gold_labels_all_null():
    instances, unreachable = labeled_instances(xray_doc())
    assert all(i.label is RelationType.NULL for i in instances)
    assert unreachable == 0


def test_unreachable_gold_counted():
    doc = mk_doc(
        ["scan", ".", "fine", ".", "lung", "."],
        [2, 2, 2],
        [
            ("inv", EntityType.INVESTIGATION, 0, 0),
            ("loc", EntityType.LOCUS, 4, 4),
        ],
        [(RelationType.HAS_TARGET, "inv", "loc")],
    )
    instances, unreachable = labeled_instances(doc, max_crossings=1)
    assert instances == ()
    assert unreachable == 1
    instances, unreachable = labeled_instances(doc, max_crossings=2)
    assert [i.label for i in instances] == [RelationType.HAS_TARGET]
    assert unreachable == 0


def test_conflicting_gold_types_resolve_lexicographically():
    # has_finding sorts before has_indication; the shadowed one counts as
    # unreachable so the label distribution stays consistent
    doc = mk_doc(
        ["CT", "showed", "cancer", "."],
        [4],
        [
            ("inv", EntityType.INVESTIGATION, 0, 0),
            ("cond", EntityType.CONDITION, 2, 2),
        ],
        [
            (RelationType.HAS_INDICATION, "inv", "cond"),
            (RelationType.HAS_FINDING, "inv", "cond"),
        ],
    )
    instances, unreachable = labeled_instances(doc)
    assert [i.label for i in instances] == [RelationType.HAS_FINDING]
    assert unreachable == 1


def test_label_distribution_invariant(corpus40):
    for doc in corpus40:
        instances, unreachable = labeled_instances(doc, max_crossings=1)
        non_null = sum(1 for i in instances if not i.label.is_null)
        assert non_null == len(doc.relations) - unreachable


def test_large_window_reaches_all_gold(corpus40):
    for doc in corpus40:
        _, unreachable = labeled_instances(doc, max_crossings=len(doc.sentences))
        assert unreachable == 0


def test_non_null_labels_are_type_compatible(corpus40):
    for doc in corpus40:
        instances, _ = labeled_instances(doc)
        for inst in instances:
            if inst.label.is_null:
                continue
            t1 = doc.entity(inst.pair.arg1).etype
            t2 = doc.entity(inst.pair.arg2).etype
            assert inst.label in compatible_relation_types(t1, t2)

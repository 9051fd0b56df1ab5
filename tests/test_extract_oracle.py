"""``extract`` over a whole document equals the per-pair reference, pair by pair.

``extract`` renders a key that one token or one argument decides once per
call and shares it among the document's pairs; ``pair_extract`` renders every
key afresh for each pair.  The vectors must be equal, key order included,
for every pair, under every feature set alone, the default sets at several
windows, and on documents whose mentions nest, overlap, touch or sit at the
document's edges.
"""

from itertools import permutations

import pytest
from _oracles import pair_extract

from clinrel.corpus import DependencyEdge, Document, EntityMention, Sentence, Token
from clinrel.features import VALID_SETS, FeatureConfig, extract
from clinrel.pairing import EntityPair, labeled_instances
from clinrel.schema import EntityType
from clinrel.synth import GeneratorConfig, generate_synthetic

CONFIGS = [FeatureConfig.of(name) for name in VALID_SETS] + [FeatureConfig(window=w) for w in (1, 2, 6, 40)]
CONFIG_IDS = list(VALID_SETS) + [f"window{w}" for w in (1, 2, 6, 40)]


@pytest.fixture(scope="module")
def corpus160():
    """``clinrel generate --docs 160 --seed 1001``."""
    return generate_synthetic(GeneratorConfig(n_docs=160, seed=1001))


def assert_matches_oracle(doc, pairs, cfg):
    got = extract(doc, pairs, cfg)
    assert len(got) == len(pairs)
    for pair, vec in zip(pairs, got):
        # the same keys and values, inserted in the same order
        assert list(vec.items()) == list(pair_extract(pair, doc, cfg).items()), pair


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("corpus_name", ["corpus40", "corpus160"])
def test_every_candidate_pair_of_a_corpus(request, corpus_name, cfg):
    corpus = request.getfixturevalue(corpus_name)
    checked = 0
    for doc in corpus:
        pairs = [inst.pair for inst in labeled_instances(doc, 1)[0]]
        assert_matches_oracle(doc, pairs, cfg)
        checked += len(pairs)
    assert checked > 900


def build_doc(words, entities, deps=()):
    tokens = []
    start = 0
    for w in words:
        tokens.append(Token(start, start + len(w), w, "NNS" if w.endswith("s") else "NN", w.lower()))
        start += len(w) + 1
    return Document(
        "d",
        " ".join(words),
        tuple(tokens),
        (Sentence(0, len(words) - 1),),
        tuple(EntityMention(*e) for e in entities),
        (),
        tuple(DependencyEdge(*d) for d in deps),
    )


def every_ordered_pair(doc):
    return [EntityPair(doc.id, a.id, b.id) for a, b in permutations(doc.entities, 2)]


WORDS = ["left", "lower", "lobe", "mass", "was", "seen", "on", "CT", "scans", "of", "chest"]
CHAIN = [(i, i + 1, "dep") for i in range(len(WORDS) - 1)]

HAND_DOCS = {
    # "left lower lobe mass" holds "lower lobe", which holds "lobe"; "lobe mass" overlaps "left lower lobe"
    "nested-and-overlapping": build_doc(
        WORDS,
        [
            ("outer", EntityType.LOCUS, 0, 3),
            ("middle", EntityType.LOCUS, 1, 2),
            ("inner", EntityType.LOCUS, 2, 2),
            ("overlap", EntityType.CONDITION, 2, 3),
            ("front", EntityType.LATERALITY_SIGNAL, 0, 2),
            ("ct", EntityType.INVESTIGATION, 7, 8),
        ],
        CHAIN,
    ),
    "first-and-last-token": build_doc(
        WORDS,
        [
            ("first", EntityType.LATERALITY_SIGNAL, 0, 0),
            ("last", EntityType.LOCUS, 10, 10),
            ("whole", EntityType.CONDITION, 0, 10),
            ("ct", EntityType.INVESTIGATION, 7, 8),
        ],
        CHAIN,
    ),
    "adjacent-empty-gap": build_doc(
        WORDS,
        [
            ("a", EntityType.LOCUS, 2, 2),
            ("b", EntityType.CONDITION, 3, 3),
            ("c", EntityType.INVESTIGATION, 4, 6),
            ("d", EntityType.RESULT, 7, 8),
        ],
        CHAIN,
    ),
    "no-dependency-edges": build_doc(
        WORDS,
        [
            ("loc", EntityType.LOCUS, 2, 2),
            ("cond", EntityType.CONDITION, 3, 3),
            ("ct", EntityType.INVESTIGATION, 7, 8),
            ("chest", EntityType.LOCUS, 10, 10),
        ],
    ),
    "one-token": build_doc(["mass"], [("m", EntityType.CONDITION, 0, 0), ("n", EntityType.LOCUS, 0, 0)]),
}


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("name", list(HAND_DOCS))
def test_hand_built_documents(name, cfg):
    doc = HAND_DOCS[name]
    pairs = every_ordered_pair(doc)
    assert_matches_oracle(doc, pairs, cfg)
    # each pair alone, and the pairs in reverse order, give the same vectors
    assert [extract(doc, [p], cfg)[0] for p in pairs] == extract(doc, pairs, cfg)
    assert extract(doc, pairs[::-1], cfg) == extract(doc, pairs, cfg)[::-1]


def test_a_pair_may_repeat():
    doc = HAND_DOCS["nested-and-overlapping"]
    pair = every_ordered_pair(doc)[3]
    first, second = extract(doc, [pair, pair], FeatureConfig())
    assert first == second == pair_extract(pair, doc, FeatureConfig())
    assert first is not second


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_a_document_with_no_pairs(cfg):
    assert extract(HAND_DOCS["adjacent-empty-gap"], [], cfg) == []
    assert extract(build_doc(["mass"], []), [], cfg) == []

"""Seeded synthetic corpus generator.

Stands in for a private hand-annotated gold standard so every experiment in
the package is runnable.  Sentences are instantiated from templates derived
from the relationship schema; each relation type co-occurs with planted
trigger tokens, so the corpus is learnable by design.  One template family
("margins") plants a signal carried only by intervening-mention annotations:
the same token sequence is labeled differently depending on whether the
middle noun is annotated as a Locus.

Output is bit-identical across runs and platforms for a fixed config.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .corpus import Corpus, DependencyEdge, Document, EntityMention, RelationInstance
from .preprocess import annotate, generalize_pos
from .schema import EntityType, RelationType


@dataclass(frozen=True)
class GeneratorConfig:
    n_docs: int = 40
    min_sentences: int = 5
    max_sentences: int = 9
    seed: int = 42


_INVESTIGATIONS = ("X-ray", "ultrasound", "CT-scan", "MRI-scan", "biopsy", "endoscopy", "mammogram", "angiogram")
_INTERVENTIONS = ("mastectomy", "chemotherapy", "radiotherapy", "appendicectomy", "resection", "stenting", "laparotomy")
_CONDITIONS = ("carcinoma", "hydronephrosis", "pneumonia", "obstruction", "lesion", "metastasis", "fracture", "embolism")
_LOCI = ("chest", "abdomen", "kidney", "breast", "liver", "lung", "pelvis", "spine")
_DRUGS = ("tamoxifen", "warfarin", "antibiotics", "heparin", "insulin", "steroids")
_RESULTS = ("normal", "unremarkable", "clear", "abnormal", "satisfactory")
_LATERALITIES = ("left", "right", "bilateral")
_SUBLOCATIONS = ("upper", "lower", "anterior", "posterior")
_MULTI_INVESTIGATIONS = (("renal", "ultrasound"), ("bone", "scan"), ("barium", "enema"))
_FINDING_VERBS = ("showed", "revealed", "demonstrated", "confirmed")
_INDICATION_VERBS = ("arranged", "requested", "planned")
_FILLERS = (
    ("The", "patient", "was", "seen", "today", "."),
    ("She", "remains", "comfortable", "."),
    ("He", "was", "reviewed", "in", "clinic", "."),
)

_ET = EntityType
_RT = RelationType


@dataclass(frozen=True)
class _SentenceSpec:
    """One generated sentence: words, local entity spans, local relations."""

    words: tuple[str, ...]
    entities: tuple[tuple[int, int, EntityType], ...] = ()
    relations: tuple[tuple[RelationType, int, int], ...] = ()


def _t_target(rng: random.Random) -> _SentenceSpec:
    loc = rng.choice(_LOCI)
    inv = rng.choice(_INVESTIGATIONS)
    res = rng.choice(_RESULTS)
    return _SentenceSpec(
        ("A", loc, inv, "was", res, "."),
        ((1, 1, _ET.LOCUS), (2, 2, _ET.INVESTIGATION), (4, 4, _ET.RESULT)),
        ((_RT.HAS_TARGET, 1, 0), (_RT.HAS_FINDING, 1, 2)),
    )


def _t_finding(rng: random.Random) -> _SentenceSpec:
    inv = rng.choice(_INVESTIGATIONS)
    verb = rng.choice(_FINDING_VERBS)
    cnd = rng.choice(_CONDITIONS)
    return _SentenceSpec(
        ("The", inv, verb, "a", cnd, "."),
        ((1, 1, _ET.INVESTIGATION), (4, 4, _ET.CONDITION)),
        ((_RT.HAS_FINDING, 0, 1),),
    )


def _t_indication(rng: random.Random) -> _SentenceSpec:
    inv = rng.choice(_INVESTIGATIONS)
    verb = rng.choice(_INDICATION_VERBS)
    cnd = rng.choice(_CONDITIONS)
    return _SentenceSpec(
        ("A", inv, "was", verb, "for", "the", cnd, "."),
        ((1, 1, _ET.INVESTIGATION), (6, 6, _ET.CONDITION)),
        ((_RT.HAS_INDICATION, 0, 1),),
    )


def _t_drug(rng: random.Random) -> _SentenceSpec:
    drug = rng.choice(_DRUGS)
    cnd = rng.choice(_CONDITIONS)
    return _SentenceSpec(
        ("She", "was", "started", "on", drug, "for", "the", cnd, "."),
        ((4, 4, _ET.DRUG_OR_DEVICE), (7, 7, _ET.CONDITION)),
        ((_RT.HAS_INDICATION, 0, 1),),
    )


def _t_intervention_indication(rng: random.Random) -> _SentenceSpec:
    intervention = rng.choice(_INTERVENTIONS)
    cnd = rng.choice(_CONDITIONS)
    return _SentenceSpec(
        ("He", "underwent", intervention, "for", "the", cnd, "."),
        ((2, 2, _ET.INTERVENTION), (5, 5, _ET.CONDITION)),
        ((_RT.HAS_INDICATION, 0, 1),),
    )


def _t_location(rng: random.Random) -> _SentenceSpec:
    cnd = rng.choice(_CONDITIONS)
    loc = rng.choice(_LOCI)
    return _SentenceSpec(
        ("There", "was", "a", cnd, "in", "the", loc, "."),
        ((3, 3, _ET.CONDITION), (6, 6, _ET.LOCUS)),
        ((_RT.HAS_LOCATION, 0, 1),),
    )


def _t_negation(rng: random.Random) -> _SentenceSpec:
    cnd = rng.choice(_CONDITIONS)
    loc = rng.choice(_LOCI)
    return _SentenceSpec(
        ("There", "was", "no", cnd, "in", "the", loc, "."),
        ((2, 2, _ET.NEGATION_SIGNAL), (3, 3, _ET.CONDITION), (6, 6, _ET.LOCUS)),
        ((_RT.NEGATION_MODIFIES, 0, 1), (_RT.HAS_LOCATION, 1, 2)),
    )


def _t_laterality(rng: random.Random) -> _SentenceSpec:
    lat = rng.choice(_LATERALITIES)
    loc = rng.choice(_LOCI)
    inv = rng.choice(_INVESTIGATIONS)
    res = rng.choice(_RESULTS)
    return _SentenceSpec(
        ("The", lat, loc, inv, "was", res, "."),
        ((1, 1, _ET.LATERALITY_SIGNAL), (2, 2, _ET.LOCUS), (3, 3, _ET.INVESTIGATION), (5, 5, _ET.RESULT)),
        ((_RT.LATERALITY_MODIFIES, 0, 1), (_RT.HAS_TARGET, 2, 1), (_RT.HAS_FINDING, 2, 3)),
    )


def _t_laterality_intervention(rng: random.Random) -> _SentenceSpec:
    lat = rng.choice(_LATERALITIES)
    intervention = rng.choice(_INTERVENTIONS)
    return _SentenceSpec(
        ("She", "had", "a", lat, intervention, "."),
        ((3, 3, _ET.LATERALITY_SIGNAL), (4, 4, _ET.INTERVENTION)),
        ((_RT.LATERALITY_MODIFIES, 0, 1),),
    )


def _t_sublocation(rng: random.Random) -> _SentenceSpec:
    cnd = rng.choice(_CONDITIONS)
    sub = rng.choice(_SUBLOCATIONS)
    loc = rng.choice(_LOCI)
    return _SentenceSpec(
        ("A", cnd, "was", "seen", "in", "the", sub, loc, "."),
        ((1, 1, _ET.CONDITION), (6, 6, _ET.SUBLOCATION_SIGNAL), (7, 7, _ET.LOCUS)),
        ((_RT.SUBLOCATION_MODIFIES, 1, 2), (_RT.HAS_LOCATION, 0, 2)),
    )


def _t_discussed(rng: random.Random) -> _SentenceSpec:
    # compatible pair with no relation: the planted null trigger
    inv = rng.choice(_INVESTIGATIONS)
    cnd = rng.choice(_CONDITIONS)
    return _SentenceSpec(
        ("The", inv, "and", "the", cnd, "were", "discussed", "."),
        ((1, 1, _ET.INVESTIGATION), (4, 4, _ET.CONDITION)),
    )


def _t_margins_plain(rng: random.Random) -> _SentenceSpec:
    # same tokens as _t_margins_locus but "margins" is not annotated
    inv = rng.choice(_INVESTIGATIONS)
    verb = rng.choice(_FINDING_VERBS)
    cnd = rng.choice(_CONDITIONS)
    return _SentenceSpec(
        ("The", inv, "margins", verb, "a", cnd, "."),
        ((1, 1, _ET.INVESTIGATION), (5, 5, _ET.CONDITION)),
        ((_RT.HAS_FINDING, 0, 1),),
    )


def _t_margins_locus(rng: random.Random) -> _SentenceSpec:
    # identical token shape; the annotated Locus flips the pair label, so the
    # investigation-condition decision is carried by intervening-mention
    # features alone
    inv = rng.choice(_INVESTIGATIONS)
    verb = rng.choice(_FINDING_VERBS)
    cnd = rng.choice(_CONDITIONS)
    return _SentenceSpec(
        ("The", inv, "margins", verb, "a", cnd, "."),
        ((1, 1, _ET.INVESTIGATION), (2, 2, _ET.LOCUS), (5, 5, _ET.CONDITION)),
        ((_RT.HAS_TARGET, 0, 1), (_RT.HAS_INDICATION, 0, 2)),
    )


def _t_multi_token(rng: random.Random) -> _SentenceSpec:
    m0, m1 = rng.choice(_MULTI_INVESTIGATIONS)
    verb = rng.choice(_FINDING_VERBS)
    cnd = rng.choice(_CONDITIONS)
    return _SentenceSpec(
        ("A", m0, m1, verb, "a", cnd, "."),
        ((1, 2, _ET.INVESTIGATION), (5, 5, _ET.CONDITION)),
        ((_RT.HAS_FINDING, 0, 1),),
    )


def _t_filler(rng: random.Random) -> _SentenceSpec:
    return _SentenceSpec(rng.choice(_FILLERS))


_TEMPLATES = (
    (_t_target, 3),
    (_t_finding, 3),
    (_t_indication, 2),
    (_t_drug, 2),
    (_t_intervention_indication, 2),
    (_t_location, 2),
    (_t_negation, 2),
    (_t_laterality, 2),
    (_t_laterality_intervention, 1),
    (_t_sublocation, 2),
    (_t_discussed, 2),
    (_t_margins_plain, 2),
    (_t_margins_locus, 2),
    (_t_multi_token, 1),
    (_t_filler, 2),
)

_TEMPLATE_FUNCS = tuple(t for t, _ in _TEMPLATES)
_TEMPLATE_WEIGHTS = tuple(w for _, w in _TEMPLATES)


def generate_synthetic(cfg: GeneratorConfig = GeneratorConfig()) -> Corpus:
    """Deterministic corpus of ``cfg.n_docs`` template-built documents."""
    if cfg.n_docs < 0:
        raise ValueError("n_docs must be >= 0")
    if not 1 <= cfg.min_sentences <= cfg.max_sentences:
        raise ValueError("sentence range must satisfy 1 <= min <= max")
    rng = random.Random(cfg.seed)
    documents = []
    for d in range(cfg.n_docs):
        documents.append(_generate_document(f"d{d:03d}", rng, cfg))
    return Corpus(tuple(documents))


def _generate_document(doc_id: str, rng: random.Random, cfg: GeneratorConfig) -> Document:
    n_sentences = rng.randint(cfg.min_sentences, cfg.max_sentences)
    specs = [
        rng.choices(_TEMPLATE_FUNCS, weights=_TEMPLATE_WEIGHTS)[0](rng)
        for _ in range(n_sentences)
    ]

    words: list[str] = []
    entities: list[EntityMention] = []
    relations: list[RelationInstance] = []
    deps: list[DependencyEdge] = []
    for spec in specs:
        base = len(words)
        eid_base = len(entities)
        words.extend(spec.words)
        for first, last, etype in spec.entities:
            entities.append(
                EntityMention(f"e{len(entities)}", etype, base + first, base + last)
            )
        for rtype, i, j in spec.relations:
            relations.append(
                RelationInstance(rtype, entities[eid_base + i].id, entities[eid_base + j].id)
            )
        for t in range(base, base + len(spec.words) - 1):
            deps.append(DependencyEdge(t, t + 1, ""))

    text = " ".join(words)
    tokens, sentences = annotate(text)
    if len(tokens) != len(words) or len(sentences) != len(specs):
        raise AssertionError("template output does not survive preprocessing")
    deps = [DependencyEdge(e.head, e.dependent, generalize_pos(tokens[e.dependent].pos)) for e in deps]
    return Document(
        doc_id,
        text,
        tokens,
        sentences,
        tuple(entities),
        tuple(relations),
        tuple(deps),
    )

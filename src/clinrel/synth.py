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


# One row per template: weight, word pattern, local entity spans (first word,
# last word, type) and local relations (type, entity, entity).  A pattern part
# is a literal word or a pool; a pool gets one ``rng.choice``, in word order,
# and a drawn tuple of words contributes all of them.
_TEMPLATES = (
    (3, ("A", _LOCI, _INVESTIGATIONS, "was", _RESULTS, "."),
     ((1, 1, _ET.LOCUS), (2, 2, _ET.INVESTIGATION), (4, 4, _ET.RESULT)),
     ((_RT.HAS_TARGET, 1, 0), (_RT.HAS_FINDING, 1, 2))),
    (3, ("The", _INVESTIGATIONS, _FINDING_VERBS, "a", _CONDITIONS, "."),
     ((1, 1, _ET.INVESTIGATION), (4, 4, _ET.CONDITION)),
     ((_RT.HAS_FINDING, 0, 1),)),
    (2, ("A", _INVESTIGATIONS, "was", _INDICATION_VERBS, "for", "the", _CONDITIONS, "."),
     ((1, 1, _ET.INVESTIGATION), (6, 6, _ET.CONDITION)),
     ((_RT.HAS_INDICATION, 0, 1),)),
    (2, ("She", "was", "started", "on", _DRUGS, "for", "the", _CONDITIONS, "."),
     ((4, 4, _ET.DRUG_OR_DEVICE), (7, 7, _ET.CONDITION)),
     ((_RT.HAS_INDICATION, 0, 1),)),
    (2, ("He", "underwent", _INTERVENTIONS, "for", "the", _CONDITIONS, "."),
     ((2, 2, _ET.INTERVENTION), (5, 5, _ET.CONDITION)),
     ((_RT.HAS_INDICATION, 0, 1),)),
    (2, ("There", "was", "a", _CONDITIONS, "in", "the", _LOCI, "."),
     ((3, 3, _ET.CONDITION), (6, 6, _ET.LOCUS)),
     ((_RT.HAS_LOCATION, 0, 1),)),
    (2, ("There", "was", "no", _CONDITIONS, "in", "the", _LOCI, "."),
     ((2, 2, _ET.NEGATION_SIGNAL), (3, 3, _ET.CONDITION), (6, 6, _ET.LOCUS)),
     ((_RT.NEGATION_MODIFIES, 0, 1), (_RT.HAS_LOCATION, 1, 2))),
    (2, ("The", _LATERALITIES, _LOCI, _INVESTIGATIONS, "was", _RESULTS, "."),
     ((1, 1, _ET.LATERALITY_SIGNAL), (2, 2, _ET.LOCUS), (3, 3, _ET.INVESTIGATION), (5, 5, _ET.RESULT)),
     ((_RT.LATERALITY_MODIFIES, 0, 1), (_RT.HAS_TARGET, 2, 1), (_RT.HAS_FINDING, 2, 3))),
    (1, ("She", "had", "a", _LATERALITIES, _INTERVENTIONS, "."),
     ((3, 3, _ET.LATERALITY_SIGNAL), (4, 4, _ET.INTERVENTION)),
     ((_RT.LATERALITY_MODIFIES, 0, 1),)),
    (2, ("A", _CONDITIONS, "was", "seen", "in", "the", _SUBLOCATIONS, _LOCI, "."),
     ((1, 1, _ET.CONDITION), (6, 6, _ET.SUBLOCATION_SIGNAL), (7, 7, _ET.LOCUS)),
     ((_RT.SUBLOCATION_MODIFIES, 1, 2), (_RT.HAS_LOCATION, 0, 2))),
    # compatible pair with no relation: the planted null trigger
    (2, ("The", _INVESTIGATIONS, "and", "the", _CONDITIONS, "were", "discussed", "."),
     ((1, 1, _ET.INVESTIGATION), (4, 4, _ET.CONDITION)),
     ()),
    # the same tokens as the next row, but "margins" is not annotated
    (2, ("The", _INVESTIGATIONS, "margins", _FINDING_VERBS, "a", _CONDITIONS, "."),
     ((1, 1, _ET.INVESTIGATION), (5, 5, _ET.CONDITION)),
     ((_RT.HAS_FINDING, 0, 1),)),
    # identical token shape; the annotated Locus flips the pair label, so the
    # investigation-condition decision is carried by intervening-mention
    # features alone
    (2, ("The", _INVESTIGATIONS, "margins", _FINDING_VERBS, "a", _CONDITIONS, "."),
     ((1, 1, _ET.INVESTIGATION), (2, 2, _ET.LOCUS), (5, 5, _ET.CONDITION)),
     ((_RT.HAS_TARGET, 0, 1), (_RT.HAS_INDICATION, 0, 2))),
    (1, ("A", _MULTI_INVESTIGATIONS, _FINDING_VERBS, "a", _CONDITIONS, "."),
     ((1, 2, _ET.INVESTIGATION), (5, 5, _ET.CONDITION)),
     ((_RT.HAS_FINDING, 0, 1),)),
    (2, (_FILLERS,), (), ()),
)

_WEIGHTS = tuple(row[0] for row in _TEMPLATES)


def _fill(pattern: tuple, rng: random.Random) -> list[str]:
    """The words of one sentence: literals as they are, one draw per pool."""
    words: list[str] = []
    for part in pattern:
        drawn = part if isinstance(part, str) else rng.choice(part)
        if isinstance(drawn, str):
            words.append(drawn)
        else:
            words.extend(drawn)
    return words


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
    words: list[str] = []
    entities: list[EntityMention] = []
    relations: list[RelationInstance] = []
    chains: list[range] = []  # per sentence, the heads of its word-to-next-word edges
    for _ in range(n_sentences):
        _, pattern, spans, local_relations = rng.choices(_TEMPLATES, weights=_WEIGHTS)[0]
        base = len(words)
        eid_base = len(entities)
        words.extend(_fill(pattern, rng))
        for first, last, etype in spans:
            entities.append(
                EntityMention(f"e{len(entities)}", etype, base + first, base + last)
            )
        for rtype, i, j in local_relations:
            relations.append(
                RelationInstance(rtype, entities[eid_base + i].id, entities[eid_base + j].id)
            )
        chains.append(range(base, len(words) - 1))

    text = " ".join(words)
    tokens, sentences = annotate(text)
    if len(tokens) != len(words) or len(sentences) != n_sentences:
        raise AssertionError("template output does not survive preprocessing")
    deps = tuple(
        DependencyEdge(t, t + 1, generalize_pos(tokens[t + 1].pos)) for chain in chains for t in chain
    )
    return Document(
        doc_id,
        text,
        tokens,
        sentences,
        tuple(entities),
        tuple(relations),
        deps,
    )

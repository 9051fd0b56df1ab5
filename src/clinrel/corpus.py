"""Annotated-narrative data model and standoff file I/O.

A corpus is a sequence of documents, each carrying its text plus standoff
annotations: tokens (with POS tag and morphological root), sentence spans over
token indices, typed entity mentions, gold relations, and optional dependency
edges.  All character offsets are Unicode code-point counts into the document
text, so serialized corpora are platform independent.

The on-disk format is one JSON record per line with exactly the fields
``{id, text, tokens, sentences, entities, relations, deps}``; unknown fields
are rejected so that format drift fails loudly.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .schema import ARGUMENT_TYPES, EntityType, RelationType


class CorpusError(Exception):
    """Base class for corpus reading and validation failures."""


class CorpusFormatError(CorpusError):
    """A line could not be parsed as a document record."""


class SchemaValidationError(CorpusError):
    """A document violates one of the data-model invariants."""


@dataclass(frozen=True)
class Token:
    """A text span with its POS tag and morphological root."""

    start: int
    end: int
    surface: str
    pos: str
    root: str


@dataclass(frozen=True)
class Sentence:
    """Inclusive token-index span of one sentence."""

    first_token: int
    last_token: int


@dataclass(frozen=True)
class EntityMention:
    """A typed entity over a contiguous, inclusive token span."""

    id: str
    etype: EntityType
    first_token: int
    last_token: int


@dataclass(frozen=True)
class RelationInstance:
    """A typed, directed link between two mentions (by id, in role order)."""

    rtype: RelationType
    arg1: str
    arg2: str


@dataclass(frozen=True)
class DependencyEdge:
    """One labeled syntactic edge; ``dependent`` has head ``head``."""

    head: int
    dependent: int
    label: str


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    tokens: tuple[Token, ...]
    sentences: tuple[Sentence, ...]
    entities: tuple[EntityMention, ...]
    relations: tuple[RelationInstance, ...]
    deps: tuple[DependencyEdge, ...] = ()

    @cached_property
    def entity_index(self) -> dict[str, EntityMention]:
        return {e.id: e for e in self.entities}

    @cached_property
    def _sentence_of_token(self) -> tuple[int, ...]:
        out = [0] * len(self.tokens)
        for i, s in enumerate(self.sentences):
            for t in range(s.first_token, s.last_token + 1):
                out[t] = i
        return tuple(out)

    def entity(self, mention_id: str) -> EntityMention:
        return self.entity_index[mention_id]

    def sentence_index(self, token_index: int) -> int:
        """Index of the sentence containing ``token_index``."""
        return self._sentence_of_token[token_index]


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...] = ()

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def subset(self, n_docs: int) -> "Corpus":
        """Prefix sub-corpus of the first ``n_docs`` documents."""
        return Corpus(self.documents[:n_docs])


def _fail(doc_id: str, invariant: str) -> None:
    raise SchemaValidationError(f"document {doc_id!r}: {invariant}")


def validate_document(doc: Document) -> None:
    """Check every document invariant; raise SchemaValidationError naming the first failure."""
    n_tokens = len(doc.tokens)
    prev_end = 0
    for i, t in enumerate(doc.tokens):
        if not t.start < t.end:
            _fail(doc.id, f"token {i} start must be < end (got {t.start}..{t.end})")
        if t.start < prev_end:
            _fail(doc.id, f"token {i} overlaps or precedes the previous token")
        if t.end > len(doc.text):
            _fail(doc.id, f"token {i} ends past the document text ({t.end} > {len(doc.text)})")
        prev_end = t.end

    if doc.sentences:
        if doc.sentences[0].first_token != 0:
            _fail(doc.id, "sentences must start at token 0")
        prev_last = -1
        for i, s in enumerate(doc.sentences):
            if s.first_token > s.last_token:
                _fail(doc.id, f"sentence {i} has first_token > last_token")
            if s.first_token != prev_last + 1:
                _fail(doc.id, f"sentence {i} does not continue the partition")
            prev_last = s.last_token
        if prev_last != n_tokens - 1:
            _fail(doc.id, "sentences do not cover the token sequence")
    elif n_tokens:
        _fail(doc.id, "document has tokens but no sentences")

    seen_ids: set[str] = set()
    for e in doc.entities:
        if e.id in seen_ids:
            _fail(doc.id, f"duplicate mention id {e.id!r}")
        seen_ids.add(e.id)
        if not (0 <= e.first_token <= e.last_token < n_tokens):
            _fail(doc.id, f"mention {e.id!r} token span out of range")

    for r in doc.relations:
        if r.rtype.is_null:
            _fail(doc.id, "gold relations must not carry the null label")
        for arg in (r.arg1, r.arg2):
            if arg not in seen_ids:
                _fail(doc.id, f"relation references unknown mention id {arg!r}")
        if r.arg1 == r.arg2:
            _fail(doc.id, f"relation {r.rtype.value} has identical arguments {r.arg1!r}")
        first, second = ARGUMENT_TYPES[r.rtype]
        t1 = doc.entity(r.arg1).etype
        t2 = doc.entity(r.arg2).etype
        if t1 not in first or t2 not in second:
            _fail(
                doc.id,
                f"relation {r.rtype.value}({r.arg1}, {r.arg2}) has illegal argument "
                f"types ({t1.value}, {t2.value})",
            )

    heads_seen: set[int] = set()
    for d in doc.deps:
        if d.head == d.dependent:
            _fail(doc.id, f"dependency edge with head == dependent ({d.head})")
        if not (0 <= d.head < n_tokens and 0 <= d.dependent < n_tokens):
            _fail(doc.id, "dependency edge token index out of range")
        if d.dependent in heads_seen:
            _fail(doc.id, f"token {d.dependent} has more than one head")
        heads_seen.add(d.dependent)


def validate_corpus(corpus: Corpus) -> None:
    seen: set[str] = set()
    for doc in corpus:
        if doc.id in seen:
            raise SchemaValidationError(f"duplicate document id {doc.id!r}")
        seen.add(doc.id)
        validate_document(doc)


# ---------------------------------------------------------------------------
# Standoff serialization
# ---------------------------------------------------------------------------

class _Fields:
    """One record kind's field names and JSON types, in constructor order."""

    _TYPE_NAMES = {int: "an integer", str: "a string", list: "a list"}

    def __init__(self, what: str, **types: type):
        self.what = what
        self.types = types
        self.kinds = tuple(types.values())
        self.get = operator.itemgetter(*types)

    def values(self, record, where: str) -> tuple:
        """The record's values, once its field names and JSON types match.

        Types match exactly: JSON true/false is not an integer.
        """
        what = self.what
        if type(record) is not dict:
            raise CorpusFormatError(f"{where}: {what} must be a JSON object")
        if record.keys() != self.types.keys():
            unknown = record.keys() - self.types.keys()
            if unknown:
                raise CorpusFormatError(f"{where}: {what} has unknown fields {sorted(unknown)}")
            missing = self.types.keys() - record.keys()
            raise CorpusFormatError(f"{where}: {what} has missing fields {sorted(missing)}")
        values = self.get(record)
        if tuple(map(type, values)) != self.kinds:
            for value, (name, kind) in zip(values, self.types.items()):
                if type(value) is not kind:
                    raise CorpusFormatError(
                        f"{where}: {what} {name} must be {self._TYPE_NAMES[kind]}, "
                        f"got {type(value).__name__}"
                    )
        return values


_DOC_FIELDS = _Fields(
    "document", id=str, text=str, tokens=list, sentences=list, entities=list, relations=list, deps=list
)
_TOKEN_FIELDS = _Fields("token", start=int, end=int, surface=str, pos=str, root=str)
_SENTENCE_FIELDS = _Fields("sentence", first_token=int, last_token=int)
_ENTITY_FIELDS = _Fields("entity", id=str, type=str, first_token=int, last_token=int)
_RELATION_FIELDS = _Fields("relation", type=str, arg1=str, arg2=str)
_DEP_FIELDS = _Fields("dep", head=int, dependent=int, label=str)


def document_to_record(doc: Document) -> dict:
    return {
        "id": doc.id,
        "text": doc.text,
        "tokens": [
            {"start": t.start, "end": t.end, "surface": t.surface, "pos": t.pos, "root": t.root}
            for t in doc.tokens
        ],
        "sentences": [
            {"first_token": s.first_token, "last_token": s.last_token} for s in doc.sentences
        ],
        "entities": [
            {"id": e.id, "type": e.etype.value, "first_token": e.first_token, "last_token": e.last_token}
            for e in doc.entities
        ],
        "relations": [
            {"type": r.rtype.value, "arg1": r.arg1, "arg2": r.arg2} for r in doc.relations
        ],
        "deps": [
            {"head": d.head, "dependent": d.dependent, "label": d.label} for d in doc.deps
        ],
    }


def record_to_document(record: dict, where: str = "document") -> Document:
    doc_id, text, tokens, sentences, entities, relations, deps = _DOC_FIELDS.values(record, where)
    token = _TOKEN_FIELDS.values
    sentence = _SENTENCE_FIELDS.values
    entity = _ENTITY_FIELDS.values
    relation = _RELATION_FIELDS.values
    dep = _DEP_FIELDS.values
    try:
        return Document(
            doc_id,
            text,
            tuple(Token(*token(t, where)) for t in tokens),
            tuple(Sentence(*sentence(s, where)) for s in sentences),
            tuple(
                EntityMention(mention_id, EntityType(etype), first, last)
                for mention_id, etype, first, last in (entity(e, where) for e in entities)
            ),
            tuple(
                RelationInstance(RelationType(rtype), arg1, arg2)
                for rtype, arg1, arg2 in (relation(r, where) for r in relations)
            ),
            tuple(DependencyEdge(*dep(d, where)) for d in deps),
        )
    except ValueError as exc:  # an unknown entity or relation type
        raise CorpusFormatError(f"{where}: {exc}") from exc


def loads_corpus(text: str) -> Corpus:
    """Parse a corpus from its line-per-document serialization and validate it."""
    documents = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"line {lineno}: not valid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise CorpusFormatError(f"line {lineno}: record must be a JSON object")
        doc_id = record.get("id", "?")
        documents.append(record_to_document(record, where=f"line {lineno} (document {doc_id!r})"))
    corpus = Corpus(tuple(documents))
    validate_corpus(corpus)
    return corpus


def dumps_corpus(corpus: Corpus) -> str:
    """Serialize deterministically: one compact JSON record per line."""
    lines = [
        json.dumps(document_to_record(doc), ensure_ascii=False, separators=(",", ":"))
        for doc in corpus
    ]
    return "".join(line + "\n" for line in lines)


def load_corpus(path: str | Path) -> Corpus:
    return loads_corpus(Path(path).read_text(encoding="utf-8"))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(dumps_corpus(corpus), encoding="utf-8")

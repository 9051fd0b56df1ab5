"""Sparse feature extraction for candidate entity pairs.

Fourteen configurable feature sets: twelve concrete sets plus two composite
aliases.  Extraction is a pure function of (pair, document, config); the
rendered key strings are part of the package's stable surface and are pinned
by golden-file tests.

Key shapes by set:
    tokN:a1:-2:str=chest      surface/POS window around each argument
    gentokN:a2:+1:root=show   root/generalized-POS window
    atype=Investigation-Locus argument-type pair in role order
    dir=fwd                   text order of arg1 vs arg2
    str:a1=..., str:hm1=..., str:hm12=..., str:fb/lb/bo=..., str:bl:-1=...,
    str:ar:+1=...             surface-string structure; pos/root/genpos reuse
                              the same structure with their own value kind
    inter:count, inter:type:Condition, inter:has:Condition
    event:args=EN, event:inter_event, event:inter_nonevent
    dep:path=nsubj<_dobj>, dep:tok=show
    syndist:tokens, syndist:deplinks
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable

import numpy as np
from scipy import sparse

from .corpus import Document, EntityMention
from .pairing import EntityPair
from .preprocess import generalize_pos

FeatureVector = dict[str, float]

#: Concrete feature-set names; composite aliases expand to subsets of these.
VALID_SETS = (
    "tokN",
    "gentokN",
    "atype",
    "dir",
    "str",
    "pos",
    "root",
    "genpos",
    "inter",
    "event",
    "dep",
    "syndist",
)

ALIASES: dict[str, tuple[str, ...]] = {
    "allgen": ("gentokN", "atype", "dir", "root", "genpos", "inter", "event"),
    "notok": ("atype", "dir", "str", "pos", "inter", "event"),
}

DEFAULT_WINDOW = 6

_SIZED_TOK_RE = re.compile(r"^(gen)?tok(\d+)$")
_SET_NAME_RE = re.compile(r"[^:=]*")


def feature_set(key: str) -> str:
    """The feature set a rendered key belongs to: the key up to its first ':' or '='."""
    return _SET_NAME_RE.match(key).group()


@dataclass(frozen=True)
class FeatureConfig:
    """Enabled concrete feature sets plus the tokN window size."""

    sets: frozenset[str] = frozenset(VALID_SETS)
    window: int = DEFAULT_WINDOW

    def __post_init__(self) -> None:
        unknown = self.sets - set(VALID_SETS)
        if unknown:
            raise ValueError(f"unknown feature sets: {sorted(unknown)}")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    @classmethod
    def of(cls, *names: str, window: int = DEFAULT_WINDOW) -> "FeatureConfig":
        """Build from set names, expanding aliases.

        "tok6"/"gentok6" style names select tokN/gentokN and set the window;
        "allgen" and "notok" expand per their fixed definitions.
        """
        sets: set[str] = set()
        for name in names:
            if name in ALIASES:
                sets.update(ALIASES[name])
                continue
            m = _SIZED_TOK_RE.match(name)
            if m:
                sets.add("gentokN" if m.group(1) else "tokN")
                window = int(m.group(2))
                continue
            sets.add(name)
        return cls(frozenset(sets), window)


def _span_bounds(m1: EntityMention, m2: EntityMention):
    """Gap and outer boundaries of the pair in text order.

    Returns (gap_start, gap_end, outer_first, outer_last); the gap is empty
    (start > end) when the spans touch, overlap, or nest.
    """
    gap_start = min(m1.last_token, m2.last_token) + 1
    gap_end = max(m1.first_token, m2.first_token) - 1
    outer_first = min(m1.first_token, m2.first_token)
    outer_last = max(m1.last_token, m2.last_token)
    return gap_start, gap_end, outer_first, outer_last


_VALUE_OF = {
    "str": lambda tok: tok.surface,
    "pos": lambda tok: tok.pos,
    "root": lambda tok: tok.root,
    "genpos": lambda tok: generalize_pos(tok.pos),
}


def extract(pair: EntityPair, doc: Document, cfg: FeatureConfig) -> FeatureVector:
    """Feature vector for one candidate pair; union of the enabled sets."""
    m1 = doc.entity(pair.arg1)
    m2 = doc.entity(pair.arg2)
    out: FeatureVector = {}

    if "tokN" in cfg.sets or "gentokN" in cfg.sets:
        _window_features(out, doc, m1, m2, cfg)
    if "atype" in cfg.sets:
        out[f"atype={m1.etype.value}-{m2.etype.value}"] = 1.0
    if "dir" in cfg.sets:
        out["dir=fwd" if m1.first_token < m2.first_token else "dir=bwd"] = 1.0
    for set_name in ("str", "pos", "root", "genpos"):
        if set_name in cfg.sets:
            _structure_features(out, doc, m1, m2, set_name)
    if "inter" in cfg.sets or "event" in cfg.sets:
        _mention_features(out, doc, m1, m2, cfg)

    path = None
    if "dep" in cfg.sets or "syndist" in cfg.sets:
        path = dependency_path(doc, m1, m2)
    if "dep" in cfg.sets and path is not None and path.steps:
        out["dep:path=" + "_".join(path.steps)] = 1.0
        for node in path.nodes:
            out[f"dep:tok={doc.tokens[node].root}"] = 1.0
    if "syndist" in cfg.sets:
        gap_start, gap_end, _, _ = _span_bounds(m1, m2)
        tokens_between = max(0, gap_end - gap_start + 1)
        if tokens_between:
            out["syndist:tokens"] = float(tokens_between)
        if path is not None and path.steps:
            out["syndist:deplinks"] = float(len(path.steps))
    return out


def _window_features(
    out: FeatureVector, doc: Document, m1: EntityMention, m2: EntityMention, cfg: FeatureConfig
) -> None:
    n_tokens = len(doc.tokens)
    for arg_no, mention, other in ((1, m1, m2), (2, m2, m1)):
        # offsets that land outside the document are skipped without a visit
        for offset in range(max(-cfg.window, -mention.first_token),
                            min(cfg.window, n_tokens - 1 - mention.last_token) + 1):
            if offset == 0:
                continue
            idx = (mention.first_token if offset < 0 else mention.last_token) + offset
            if other.first_token <= idx <= other.last_token:
                continue
            tok = doc.tokens[idx]
            prefix = f"a{arg_no}:{offset:+d}"
            if "tokN" in cfg.sets:
                out[f"tokN:{prefix}:str={tok.surface}"] = 1.0
                out[f"tokN:{prefix}:pos={tok.pos}"] = 1.0
            if "gentokN" in cfg.sets:
                out[f"gentokN:{prefix}:root={tok.root}"] = 1.0
                out[f"gentokN:{prefix}:genpos={generalize_pos(tok.pos)}"] = 1.0


def _structure_features(
    out: FeatureVector, doc: Document, m1: EntityMention, m2: EntityMention, set_name: str
) -> None:
    value = _VALUE_OF[set_name]
    for t in range(m1.first_token, m1.last_token + 1):
        out[f"{set_name}:a1={value(doc.tokens[t])}"] = 1.0
    for t in range(m2.first_token, m2.last_token + 1):
        out[f"{set_name}:a2={value(doc.tokens[t])}"] = 1.0
    # head of a mention = its last token
    hm1 = value(doc.tokens[m1.last_token])
    hm2 = value(doc.tokens[m2.last_token])
    out[f"{set_name}:hm1={hm1}"] = 1.0
    out[f"{set_name}:hm2={hm2}"] = 1.0
    out[f"{set_name}:hm12={hm1}_{hm2}"] = 1.0

    gap_start, gap_end, outer_first, outer_last = _span_bounds(m1, m2)
    if gap_start <= gap_end:
        out[f"{set_name}:fb={value(doc.tokens[gap_start])}"] = 1.0
        out[f"{set_name}:lb={value(doc.tokens[gap_end])}"] = 1.0
        for t in range(gap_start, gap_end + 1):
            out[f"{set_name}:bo={value(doc.tokens[t])}"] = 1.0
    for back in (1, 2):
        idx = outer_first - back
        if idx >= 0:
            out[f"{set_name}:bl:-{back}={value(doc.tokens[idx])}"] = 1.0
    for fwd in (1, 2):
        idx = outer_last + fwd
        if idx < len(doc.tokens):
            out[f"{set_name}:ar:+{fwd}={value(doc.tokens[idx])}"] = 1.0


def _mention_features(
    out: FeatureVector, doc: Document, m1: EntityMention, m2: EntityMention, cfg: FeatureConfig
) -> None:
    gap_start, gap_end, _, _ = _span_bounds(m1, m2)
    intervening = [
        e
        for e in doc.entities
        if e.id not in (m1.id, m2.id)
        and e.first_token >= gap_start
        and e.last_token <= gap_end
    ]
    if "inter" in cfg.sets:
        if intervening:
            out["inter:count"] = float(len(intervening))
        by_type: dict[str, int] = {}
        for e in intervening:
            by_type[e.etype.value] = by_type.get(e.etype.value, 0) + 1
        for etype, count in by_type.items():
            out[f"inter:type:{etype}"] = float(count)
            out[f"inter:has:{etype}"] = 1.0
    if "event" in cfg.sets:
        pattern = ("E" if m1.etype.is_event else "N") + ("E" if m2.etype.is_event else "N")
        out[f"event:args={pattern}"] = 1.0
        if any(e.etype.is_event for e in intervening):
            out["event:inter_event"] = 1.0
        if any(not e.etype.is_event for e in intervening):
            out["event:inter_nonevent"] = 1.0


@dataclass(frozen=True)
class DepPath:
    """A shortest dependency path: rendered traversal steps plus the nodes visited.

    ``steps[i]`` renders the edge between nodes[i] and nodes[i+1] as its
    label followed by ">" when it goes up (dependent to head), "<" otherwise.
    """

    steps: tuple[str, ...]
    nodes: tuple[int, ...]


def dependency_path(doc: Document, m1: EntityMention, m2: EntityMention) -> DepPath | None:
    """Shortest undirected path between the argument head tokens.

    Equal-length candidates resolve to the lexicographically smallest rendered
    step sequence (then smallest predecessor node).  None when disconnected or
    when the document has no dependency edges.
    """
    if not doc.deps:
        return None
    source = m1.last_token
    target = m2.last_token
    if source == target:
        return DepPath((), (source,))

    adjacency = doc.dep_adjacency
    dist = {source: 0}
    frontier = [source]
    rings = [[source]]
    while frontier and target not in dist:
        nxt = []
        for node in frontier:
            for neighbor, _, _ in adjacency.get(node, ()):
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    nxt.append(neighbor)
        frontier = nxt
        rings.append(nxt)
    if target not in dist:
        return None

    # Minimal rendered sequence per node, filled ring by ring.
    best: dict[int, tuple[tuple[str, ...], int]] = {source: ((), -1)}
    for ring in rings[1:]:
        for node in sorted(ring):
            candidates = []
            for neighbor, label, neighbor_is_head in adjacency.get(node, ()):
                if dist.get(neighbor) == dist[node] - 1:
                    # step neighbor -> node; up when node is the head
                    step = label + (">" if not neighbor_is_head else "<")
                    candidates.append((best[neighbor][0] + (step,), neighbor))
            best[node] = min(candidates)

    seq, _ = best[target]
    nodes = [target]
    node = target
    while node != source:
        node = best[node][1]
        nodes.append(node)
    nodes.reverse()
    return DepPath(seq, tuple(nodes))


def build_index(vectors: list[FeatureVector] | tuple[FeatureVector, ...]) -> dict[str, int]:
    """Column of every key observed in the training vectors, numbered in sorted key order."""
    keys: set[str] = set()
    for vec in vectors:
        keys.update(vec)
    return {key: i for i, key in enumerate(sorted(keys))}


def vectorize(
    vectors: list[FeatureVector] | tuple[FeatureVector, ...], index: dict[str, int]
) -> sparse.csr_matrix:
    """Row-per-instance CSR matrix over ``index``'s columns; keys missing from it are dropped.

    Every key is looked up in one pass, and each row's columns are then
    sorted in place.  The keys of a vector are unique, so this equals, array
    for array, writing each row as its (column, value) pairs in column order.
    """
    lengths = np.fromiter(map(len, vectors), dtype=np.intp, count=len(vectors))
    total = int(lengths.sum())
    cols = np.fromiter(
        chain.from_iterable(map(index.get, vec, repeat(-1)) for vec in vectors), dtype=np.int32, count=total
    )
    data = np.fromiter(chain.from_iterable(vec.values() for vec in vectors), dtype=np.float64, count=total)
    known = cols >= 0
    rows = np.repeat(np.arange(len(vectors)), lengths)[known]
    indptr = np.zeros(len(vectors) + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=len(vectors)), out=indptr[1:])
    x = sparse.csr_matrix((data[known], cols[known], indptr), shape=(len(vectors), len(index)))
    x.sort_indices()
    return x


def build_matrix(vectors: Iterable[FeatureVector]) -> tuple[sparse.csr_matrix, tuple[str, ...]]:
    """Row-per-vector CSR matrix over every key seen, plus its sorted keys.

    Equal, array for array, to ``vectorize(vs, index)`` with
    ``index = build_index(vs)``, but built in one pass over an iterable: each
    key gets a provisional column when first seen, and no vector is kept
    after its row is written.  Sorting the keys and remapping the columns
    afterwards gives ``build_index``'s column order.
    """
    ids: dict[str, int] = {}
    data = array("d")
    indices = array("i")
    indptr = array("i", [0])
    for vec in vectors:
        indices.extend([ids.setdefault(key, len(ids)) for key in vec])
        data.extend(vec.values())
        indptr.append(len(indices))
    keys = tuple(sorted(ids))
    rank = np.empty(len(keys), dtype=np.int32)
    rank[np.fromiter((ids[key] for key in keys), dtype=np.intp, count=len(keys))] = np.arange(
        len(keys), dtype=np.int32
    )
    x = sparse.csr_matrix(
        (
            np.frombuffer(data, dtype=np.float64),
            rank[np.frombuffer(indices, dtype=np.int32)],
            np.frombuffer(indptr, dtype=np.int32),
        ),
        shape=(len(indptr) - 1, len(keys)),
    )
    x.sort_indices()
    return x, keys

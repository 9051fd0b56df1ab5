"""Sparse feature extraction for candidate entity pairs.

Fourteen configurable feature sets: twelve concrete sets plus two composite
aliases.  ``extract`` takes one document and its candidate pairs, and each
pair's vector is a function of (pair, document, config) alone: a key that one
token or one argument decides (a token's value, a structure key of one token
in one slot, an argument's window) is rendered once per call and shared by
the pairs that need it, and nothing is kept with the document.  The rendered
key strings are part of the package's stable surface and are pinned by
golden-file tests.

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
from typing import Iterable, Sequence

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


def extract(doc: Document, pairs: Sequence[EntityPair], cfg: FeatureConfig) -> list[FeatureVector]:
    """One feature vector per candidate pair of ``doc``, in order; each the union of the enabled sets."""
    keys = _DocumentKeys(doc, cfg)
    return [keys.vector(pair) for pair in pairs]


_SLOTS = ("a1", "a2", "hm1", "hm2", "fb", "lb", "bo", "bl:-1", "bl:-2", "ar:+1", "ar:+2")


def _structure_places(m1: EntityMention, m2: EntityMention, n_tokens: int) -> tuple[list[int], list[int]]:
    """Where each structure key of a pair sits in a set's table, in key order.

    A set's table holds the key of every (slot in ``_SLOTS``, token), at
    ``slot * n_tokens + token``.  The places come in two parts, the keys
    before the pair's ``hm12`` key and those after it: each argument's tokens
    (``a1``, ``a2``) and head, its last token (``hm1``, ``hm2``); then the
    first, last and every token of the gap between the arguments, when there
    is one (``fb``, ``lb``, ``bo``), and the two tokens before and the two
    after both (``bl:-1``, ..., ``ar:+2``).
    """
    n = n_tokens
    f1, l1, f2, l2 = m1.first_token, m1.last_token, m2.first_token, m2.last_token
    head = [*range(f1, l1 + 1), *range(n + f2, n + l2 + 1), 2 * n + l1, 3 * n + l2]
    gap_start, gap_end, outer_first, outer_last = _span_bounds(m1, m2)
    if gap_start <= gap_end:
        tail = [4 * n + gap_start, 5 * n + gap_end, *range(6 * n + gap_start, 6 * n + gap_end + 1)]
    else:
        tail = []
    if outer_first >= 1:
        tail.append(7 * n + outer_first - 1)
    if outer_first >= 2:
        tail.append(8 * n + outer_first - 2)
    if outer_last + 1 < n:
        tail.append(9 * n + outer_last + 1)
    if outer_last + 2 < n:
        tail.append(10 * n + outer_last + 2)
    return head, tail


class _DocumentKeys:
    """The feature vectors of one document's pairs, with every key that one token or one argument decides rendered once.

    Each token's values are read once per value kind.  A structure set's
    table of keys, one per (slot, token), is rendered when a pair first needs
    the set, and an argument's window (role and mention) when a pair first
    needs it; pairs then take their keys from these.  They live for one
    ``extract`` call, so nothing is kept with the document.
    """

    def __init__(self, doc: Document, cfg: FeatureConfig):
        self.doc = doc
        self.cfg = cfg
        self.structure_sets = [s for s in ("str", "pos", "root", "genpos") if s in cfg.sets]
        self._values: dict[str, list[str]] = {}
        self._tables: dict[str, list[str]] = {}
        self._windows: dict[tuple[int, str], tuple[tuple[int, ...], tuple[tuple[str, ...], ...], tuple[str, ...]]] = {}

    def vector(self, pair: EntityPair) -> FeatureVector:
        doc, sets = self.doc, self.cfg.sets
        m1 = doc.entity(pair.arg1)
        m2 = doc.entity(pair.arg2)
        keys: list[str] = []  # the keys of value 1.0 ahead of the mention features, in insertion order
        if "tokN" in sets or "gentokN" in sets:
            self._window_keys(keys, 1, m1, m2)
            self._window_keys(keys, 2, m2, m1)
        if "atype" in sets:
            keys.append(f"atype={m1.etype.value}-{m2.etype.value}")
        if "dir" in sets:
            keys.append("dir=fwd" if m1.first_token < m2.first_token else "dir=bwd")
        if self.structure_sets:
            self._structure_keys(keys, m1, m2)
        out: FeatureVector = dict.fromkeys(keys, 1.0)
        if "inter" in sets or "event" in sets:
            _mention_features(out, doc, m1, m2, self.cfg)

        path = None
        if "dep" in sets or "syndist" in sets:
            path = dependency_path(doc, m1, m2)
        if "dep" in sets and path is not None and path.steps:
            out["dep:path=" + "_".join(path.steps)] = 1.0
            for node in path.nodes:
                out[f"dep:tok={doc.tokens[node].root}"] = 1.0
        if "syndist" in sets:
            gap_start, gap_end, _, _ = _span_bounds(m1, m2)
            tokens_between = max(0, gap_end - gap_start + 1)
            if tokens_between:
                out["syndist:tokens"] = float(tokens_between)
            if path is not None and path.steps:
                out["syndist:deplinks"] = float(len(path.steps))
        return out

    def _values_of(self, kind: str) -> list[str]:
        """Every token's value of ``kind`` ("str", "pos", "root" or "genpos")."""
        values = self._values.get(kind)
        if values is None:
            value = _VALUE_OF[kind]
            values = self._values[kind] = [value(tok) for tok in self.doc.tokens]
        return values

    def _structure_keys(self, keys: list[str], m1: EntityMention, m2: EntityMention) -> None:
        """The structure keys of the enabled sets, set by set: the keys at the pair's places, and hm12."""
        head, tail = _structure_places(m1, m2, len(self.doc.tokens))
        for set_name in self.structure_sets:
            table = self._tables.get(set_name)
            if table is None:
                values = self._values_of(set_name)
                table = self._tables[set_name] = []
                for slot in _SLOTS:
                    table += map(f"{set_name}:{slot}=".__add__, values)
            values = self._values[set_name]
            keys.extend(map(table.__getitem__, head))
            keys.append(f"{set_name}:hm12={values[m1.last_token]}_{values[m2.last_token]}")
            keys.extend(map(table.__getitem__, tail))

    def _window_keys(self, keys: list[str], arg_no: int, mention: EntityMention, other: EntityMention) -> None:
        """The window keys of argument ``arg_no``, less those of the tokens inside ``other``."""
        found = self._windows.get((arg_no, mention.id))
        if found is None:
            found = self._windows[arg_no, mention.id] = self._window(arg_no, mention)
        indices, groups, every = found
        if not indices or other.last_token < indices[0] or other.first_token > indices[-1]:
            keys.extend(every)
            return
        for idx, group in zip(indices, groups):
            if not other.first_token <= idx <= other.last_token:
                keys.extend(group)

    def _window(
        self, arg_no: int, mention: EntityMention
    ) -> tuple[tuple[int, ...], tuple[tuple[str, ...], ...], tuple[str, ...]]:
        """The tokens around ``mention`` in ascending order, the window keys of each, and all those keys in order."""
        sets, window = self.cfg.sets, self.cfg.window
        tok, gentok = "tokN" in sets, "gentokN" in sets
        if tok:
            surface, pos = self._values_of("str"), self._values_of("pos")
        if gentok:
            root, genpos = self._values_of("root"), self._values_of("genpos")
        indices, groups = [], []
        # offsets that land outside the document are skipped without a visit
        for offset in range(max(-window, -mention.first_token),
                            min(window, len(self.doc.tokens) - 1 - mention.last_token) + 1):
            if offset == 0:
                continue
            idx = (mention.first_token if offset < 0 else mention.last_token) + offset
            prefix = f"a{arg_no}:{offset:+d}"
            group: tuple[str, ...] = ()
            if tok:
                group = (f"tokN:{prefix}:str={surface[idx]}", f"tokN:{prefix}:pos={pos[idx]}")
            if gentok:
                group += (f"gentokN:{prefix}:root={root[idx]}", f"gentokN:{prefix}:genpos={genpos[idx]}")
            indices.append(idx)
            groups.append(group)
        return tuple(indices), tuple(groups), tuple(chain.from_iterable(groups))


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

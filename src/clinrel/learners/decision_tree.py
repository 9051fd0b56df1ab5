"""C4.5-style decision tree induction over sparse numeric attributes.

Splits are binary threshold tests at midpoints between observed attribute
values, chosen by gain ratio among attributes whose gain reaches the mean of
the positive gains (Quinlan, C4.5, 1993).  When no split has positive gain
but the node is impure, the first workable split is taken anyway; on
consistent data this drives training error to zero (parity-style targets
have zero gain at the root).  Pruning is pessimistic-error pruning with the
classic confidence of 0.25.

A node's candidates are numpy arrays, at most one per attribute: a 0/1
column splits at 0.5, any other column at its best midpoint.  The choice
follows these exact rules, and the trees depend on every one of them:

- an attribute's best midpoint is the first maximum of gain over its
  midpoints in ascending order, so ties keep the smaller threshold; its gain
  and split info come from the scalar ``_split_stats``;
- a candidate needs at least ``min_cases`` cases on each side;
- candidates are ordered by (attribute, threshold);
- the mean of the positive gains is their sum left to right in that order
  (``np.cumsum(g)[-1]``, not the pairwise ``np.sum``) over their count, and
  a positive gain is admissible when it is at least the mean less 1e-10;
- the winner is the first admissible candidate of largest gain/split-info
  ratio (``np.argmax``; admissible candidates have split info > 0);
- with no positive gain, the first candidate in that order wins.

Scoring flattens the tree into node arrays and sends all rows down together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple, Sequence, Union

import numpy as np
from scipy import sparse

from .params import TreeParams

_MEAN_GAIN_EPS = 1e-10
_PRUNE_EPS = 0.1
# case x column values per block of numeric columns scored together
_NUMERIC_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Leaf:
    label: str
    n: float
    errors: float


@dataclass(frozen=True)
class Split:
    attribute: int
    threshold: float
    low: "Node"
    high: "Node"
    majority: str
    n: float
    errors: float


Node = Union[Leaf, Split]


@dataclass(frozen=True)
class DecisionTree:
    root: Node
    classes: tuple[str, ...]


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _entropy_cols(counts: np.ndarray) -> np.ndarray:
    """Entropy per column of a (classes x columns) count matrix."""
    totals = counts.sum(axis=0)
    safe = np.where(totals > 0, totals, 1.0)
    p = counts / safe
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log2(p), 0.0)
    return -plogp.sum(axis=0)


def _split_stats(low_counts: np.ndarray, high_counts: np.ndarray) -> tuple[float, float]:
    """(gain, split_info) for one binary partition given per-class counts."""
    n_low = low_counts.sum()
    n_high = high_counts.sum()
    n = n_low + n_high
    info = _entropy(low_counts + high_counts)
    after = (n_low / n) * _entropy(low_counts) + (n_high / n) * _entropy(high_counts)
    split_info = 0.0
    for part in (n_low, n_high):
        if part > 0:
            frac = part / n
            split_info -= frac * math.log2(frac)
    return info - after, split_info


class _Candidates(NamedTuple):
    """Candidate splits of one node, one array entry per attribute."""

    attribute: np.ndarray
    threshold: np.ndarray
    gain: np.ndarray
    split_info: np.ndarray
    n_low: np.ndarray
    n_high: np.ndarray


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    """``_entropy`` along the last (class) axis of a count array, bit for bit.

    Every count vector must have a positive total.  numpy sums fewer than 8
    terms left to right, so the 0.0 terms of absent classes change no sum;
    from 8 classes on it sums pairwise, the zeros would regroup the terms,
    and the vectors go through ``_entropy`` one at a time instead.
    """
    if counts.shape[-1] >= 8:
        flat = counts.reshape(-1, counts.shape[-1])
        return np.array([_entropy(row) for row in flat], dtype=np.float64).reshape(counts.shape[:-1])
    p = counts / counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log2(p), 0.0)
    return -plogp.sum(axis=-1)


def _numeric_candidates(
    values: np.ndarray, y: np.ndarray, n_classes: int, attributes: np.ndarray
) -> _Candidates:
    """Best-gain midpoint split of every column of a dense (cases x columns) block.

    The gains of all midpoints of all columns come from the cumulative class
    counts at once.  Each column's first maximum wins, so ties keep the
    smaller threshold; its gain and split_info are then recomputed by the
    scalar ``_split_stats``.  A column whose values are all equal has no
    candidate.
    """
    order = np.argsort(values, axis=0, kind="stable")
    v = np.take_along_axis(values, order, axis=0)
    # cum[p, j, c]: cases of class c among the p + 1 smallest values of column j
    cum = np.zeros(values.shape + (n_classes,))
    cum[np.arange(values.shape[0])[:, None], np.arange(values.shape[1]), y[order]] = 1.0
    cum = cum.cumsum(axis=0)
    # the midpoints: sorted positions p of column j with v[p, j] < v[p + 1, j],
    # column by column, each column's in ascending order
    j, p = np.nonzero((v[1:] != v[:-1]).T)
    low = cum[p, j]
    high = cum[-1, 0] - low
    n_low = low.sum(axis=1)
    n_high = high.sum(axis=1)
    n = n_low + n_high
    gains = _entropy(cum[-1, 0]) - ((n_low / n) * _entropy_rows(low) + (n_high / n) * _entropy_rows(high))
    # by column, then gain descending, then position: the head of each column wins
    ranked = np.lexsort((p, -gains, j))
    best = ranked[np.flatnonzero(np.diff(j[ranked], prepend=-1))]
    stats = np.array([_split_stats(low[i], high[i]) for i in best]).reshape(-1, 2)
    return _Candidates(
        attributes[j[best]],
        (v[p[best], j[best]] + v[p[best] + 1, j[best]]) / 2.0,
        stats[:, 0],
        stats[:, 1],
        n_low[best],
        n_high[best],
    )


def c45_gain_ratio(
    x: sparse.csr_matrix, labels: Sequence[str], attribute: int
) -> tuple[float, float, float | None]:
    """(gain, split_info, ratio) of the attribute's best midpoint split.

    A single-valued attribute cannot split: (0, 0, None); the ratio is None
    whenever split_info is zero.
    """
    if x.shape[0] == 0:
        raise ValueError("at least one case required")
    classes = tuple(sorted(set(labels)))
    index = {c: i for i, c in enumerate(classes)}
    y = np.array([index[label] for label in labels], dtype=np.intp)
    values = np.asarray(x[:, attribute].todense())
    cand = _numeric_candidates(values, y, len(classes), np.array([attribute]))
    if cand.gain.size == 0:
        return 0.0, 0.0, None
    gain, split_info = float(cand.gain[0]), float(cand.split_info[0])
    ratio = gain / split_info if split_info > 0 else None
    return gain, split_info, ratio


class _Builder:
    def __init__(self, x: sparse.csr_matrix, y: np.ndarray, classes: tuple[str, ...], hp: TreeParams, xcsc=None):
        self.x = x
        self.xcsc = x.tocsc() if xcsc is None else xcsc
        self.y = y
        self.classes = classes
        self.hp = hp
        self.n_cols = x.shape[1]
        self.binary_mask = self._binary_columns()
        self.numeric_cols = np.flatnonzero(~self.binary_mask)
        self.row_pos = np.full(x.shape[0], -1, dtype=np.intp)

    def _binary_columns(self) -> np.ndarray:
        mask = np.ones(self.n_cols, dtype=bool)
        offending = np.flatnonzero(self.xcsc.data != 1.0)
        if offending.size:
            cols = np.searchsorted(self.xcsc.indptr, offending, side="right") - 1
            mask[np.unique(cols)] = False
        return mask

    def build(self, rows: np.ndarray) -> Node:
        counts = np.bincount(self.y[rows], minlength=len(self.classes))
        majority = self._majority(counts)
        n = rows.shape[0]
        errors = float(n - counts.max())
        if errors == 0.0 or n < self.hp.min_cases:
            return Leaf(majority, float(n), errors)

        chosen = self._choose_split(rows, counts)
        if chosen is None:
            return Leaf(majority, float(n), errors)
        attribute, threshold = chosen
        values = self._column_values(rows, attribute)
        low_rows = rows[values <= threshold]
        high_rows = rows[values > threshold]
        return Split(
            attribute,
            threshold,
            self.build(low_rows),
            self.build(high_rows),
            majority,
            float(n),
            errors,
        )

    def _majority(self, counts: np.ndarray) -> str:
        # argmax of counts; bincount order == sorted class order, so the
        # first maximum is the lexicographically smallest label
        return self.classes[int(counts.argmax())]

    def _column_values(self, rows: np.ndarray, attribute: int) -> np.ndarray:
        self.row_pos[rows] = np.arange(rows.shape[0])
        start, end = self.xcsc.indptr[attribute], self.xcsc.indptr[attribute + 1]
        col_rows = self.xcsc.indices[start:end]
        col_vals = self.xcsc.data[start:end]
        values = np.zeros(rows.shape[0])
        pos = self.row_pos[col_rows]
        inside = pos >= 0
        values[pos[inside]] = col_vals[inside]
        self.row_pos[rows] = -1
        return values

    def _choose_split(self, rows: np.ndarray, counts: np.ndarray) -> tuple[int, float] | None:
        blocks = [self._binary_candidates(rows, counts)]
        width = max(1, _NUMERIC_BLOCK_ENTRIES // rows.shape[0])
        for start in range(0, self.numeric_cols.size, width):
            attributes = self.numeric_cols[start : start + width]
            values = np.column_stack([self._column_values(rows, a) for a in attributes])
            blocks.append(_numeric_candidates(values, self.y[rows], len(self.classes), attributes))
        cands = _Candidates(*map(np.concatenate, zip(*blocks)))
        order = np.lexsort((cands.threshold, cands.attribute))
        order = order[(cands.n_low[order] >= self.hp.min_cases) & (cands.n_high[order] >= self.hp.min_cases)]
        if order.size == 0:
            return None
        gain = cands.gain[order]
        positive = np.flatnonzero(gain > 0.0)
        if positive.size:
            mean_gain = np.cumsum(gain[positive])[-1] / positive.size
            admissible = order[positive[gain[positive] >= mean_gain - _MEAN_GAIN_EPS]]
            best = admissible[np.argmax(cands.gain[admissible] / cands.split_info[admissible])]
        else:
            # impure node, no informative split: fall back to the first
            # workable one so consistent data still separates
            best = order[0]
        return int(cands.attribute[best]), float(cands.threshold[best])

    def _binary_candidates(self, rows: np.ndarray, counts: np.ndarray) -> _Candidates:
        sub = self.x[rows]
        repeated = np.repeat(self.y[rows], np.diff(sub.indptr))
        n_classes = len(self.classes)
        present = np.bincount(
            repeated * self.n_cols + sub.indices, minlength=n_classes * self.n_cols
        ).reshape(n_classes, self.n_cols)
        in_rows = present.sum(axis=0)
        usable = np.flatnonzero(self.binary_mask & (in_rows > 0) & (in_rows < rows.shape[0]))
        # every per-column figure below depends on its own column alone
        present = present[:, usable].astype(np.float64)
        low = counts[:, None] - present
        n_high = present.sum(axis=0)
        n_low = rows.shape[0] - n_high

        info = _entropy(counts)
        m = float(rows.shape[0])
        after = (n_low / m) * _entropy_cols(low) + (n_high / m) * _entropy_cols(present)
        frac_low = n_low / m
        frac_high = n_high / m
        split_info = -(frac_low * np.log2(frac_low) + frac_high * np.log2(frac_high))
        return _Candidates(usable, np.full(usable.size, 0.5), info - after, split_info, n_low, n_high)


def c45_build(
    x: sparse.csr_matrix, labels: Sequence[str], hp: TreeParams = TreeParams(), *, xcsc=None
) -> DecisionTree:
    """Grow (and by default prune) a tree from sparse training data; ``xcsc`` may pass in ``x.tocsc()``."""
    m = x.shape[0]
    if m == 0:
        raise ValueError("empty training set")
    if m != len(labels):
        raise ValueError("label count does not match row count")
    classes = tuple(sorted(set(labels)))
    index = {c: i for i, c in enumerate(classes)}
    y = np.array([index[label] for label in labels], dtype=np.intp)
    builder = _Builder(x, y, classes, hp, xcsc)
    root = builder.build(np.arange(m, dtype=np.intp))
    if hp.prune:
        root = _prune(root, hp.confidence)
    return DecisionTree(root, classes)


def add_errs(n: float, e: float, cf: float) -> float:
    """Pessimistic additional-error estimate for a leaf with n cases, e errors."""
    if n <= 0:
        return 0.0
    if e == 0:
        return n * (1.0 - cf ** (1.0 / n))
    if e < 1:
        base = add_errs(n, 0.0, cf)
        return base + e * (add_errs(n, 1.0, cf) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = NormalDist().inv_cdf(1.0 - cf)
    f = (e + 0.5) / n
    r = (f + z * z / (2 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) / (
        1 + z * z / n
    )
    return r * n - e


def _estimated_errors(node: Node, cf: float) -> float:
    if isinstance(node, Leaf):
        return node.errors + add_errs(node.n, node.errors, cf)
    return _estimated_errors(node.low, cf) + _estimated_errors(node.high, cf)


def _prune(node: Node, cf: float) -> Node:
    if isinstance(node, Leaf):
        return node
    low = _prune(node.low, cf)
    high = _prune(node.high, cf)
    subtree = _estimated_errors(low, cf) + _estimated_errors(high, cf)
    as_leaf = node.errors + add_errs(node.n, node.errors, cf)
    if as_leaf <= subtree + _PRUNE_EPS:
        return Leaf(node.majority, node.n, node.errors)
    return Split(node.attribute, node.threshold, low, high, node.majority, node.n, node.errors)


class _FlatTree(NamedTuple):
    """A tree as node arrays in breadth-first order, the root first.

    A leaf has attribute -1 and is its own low and high child, so sending a
    row one level down leaves it in place once it has reached its leaf.
    ``confidence`` is a leaf's signed Laplace confidence, 0.0 at a split.
    """

    attribute: np.ndarray
    threshold: np.ndarray
    low: np.ndarray
    high: np.ndarray
    confidence: np.ndarray
    label: tuple[str, ...]


def _flatten(root: Node) -> _FlatTree:
    nodes = [root]
    fields = []
    for i, node in enumerate(nodes):
        if isinstance(node, Split):
            fields.append((node.attribute, node.threshold, len(nodes), len(nodes) + 1, 0.0, node.majority))
            nodes += [node.low, node.high]
        else:
            laplace = (node.n - node.errors + 1.0) / (node.n + 2.0)
            fields.append((-1, 0.0, i, i, laplace if node.label == "+1" else -laplace, node.label))
    attribute, threshold, low, high, confidence, label = zip(*fields)
    return _FlatTree(
        np.array(attribute, dtype=np.intp),
        np.array(threshold, dtype=np.float64),
        np.array(low, dtype=np.intp),
        np.array(high, dtype=np.intp),
        np.array(confidence, dtype=np.float64),
        label,
    )


def _reached_leaves(flat: _FlatTree, x: sparse.csr_matrix) -> np.ndarray:
    """The flat index of the leaf each row of x reaches; all rows go down together.

    A value that x does not store reads as 0.0.
    """
    node = np.zeros(x.shape[0], dtype=np.intp)
    splits = flat.attribute >= 0
    if not splits.any():
        return node
    attributes, split_column = np.unique(flat.attribute[splits], return_inverse=True)
    column = np.zeros(flat.attribute.size, dtype=np.intp)
    column[splits] = split_column
    values = x[:, attributes].toarray()
    rows = np.arange(x.shape[0])
    while True:
        below = np.where(values[rows, column[node]] <= flat.threshold[node], flat.low[node], flat.high[node])
        if np.array_equal(below, node):
            return node
        node = below


def c45_classify(tree: DecisionTree, x: sparse.csr_matrix) -> list[str]:
    flat = _flatten(tree.root)
    return [flat.label[i] for i in _reached_leaves(flat, x)]


def c45_score(tree: DecisionTree, x: sparse.csr_matrix) -> np.ndarray:
    """Signed Laplace confidence of the reached leaf for binary +1/-1 trees."""
    flat = _flatten(tree.root)
    return flat.confidence[_reached_leaves(flat, x)]

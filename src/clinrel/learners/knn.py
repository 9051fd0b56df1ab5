"""K-nearest-neighbor classification with inverse-square distance weighting.

Neighbor selection includes every instance tied with the k-th distance, so
the prediction does not depend on the storage order of the training set.
When the query coincides with stored instances, only those zero-distance
neighbors vote, by simple majority.

A label's vote is the sum of its neighbors' weights ``1/d²`` taken in
ascending order (``np.sum(np.sort(w))``), and the total is the sum of the
labels' votes in ascending order; sorted sums keep the result independent of
the training set's storage order too.  ``_votes`` gives the vote of many label
columns, for example the +1 rows of every one-vs-all class, from one distance
pass and one neighbor set per query, bit for bit what each column would get
alone:

- a distance depends on its query row alone, so blocks of queries change none;
- the neighbor set, and whether only zero-distance neighbors vote, depend on
  the distances alone, never on the labels;
- a subsequence of a sorted array is sorted, so the weights of one column's
  neighbors, picked in order from all of the query's sorted weights, are the
  array that sorting that column's weights alone gives;
- every subsequence is summed by ``np.sum`` along the rows of a C-ordered
  matrix of subsequences of its own length.  That runs numpy's summation per
  row exactly as on a 1-D array: left to right below 8 terms, pairwise from
  8 on.  A zero-distance vote is a sum of ones, an exact count.

A binary total of two votes is their sum in either order, and a label with
no neighbor adds 0.0, so ``knn_score`` takes ``v+ + v-`` as the total.

A squared distance is ``|q|² + |x|² - 2 q·x``, with the dot products of a
block of queries from one sparse product, ``queries @ x_t``.  A
cross-validation fold passes its dot products in instead (``cross``), cut
from the X·Xᵀ its plan shares (``harness.shared_dots``).  Both sum each entry
from +0.0 over the columns the two rows store, in ascending column order, and
both give +0.0 for an exact zero, so the distances have the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
from scipy import sparse

from .params import ModelFormatError, _csr_from_obj, _csr_to_obj, _strings, _typed

# distance-matrix entries per block of queries: 8 MB of float64
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class KnnModel:
    x: sparse.csr_matrix
    labels: tuple[str, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.x.shape[0] == 0:
            raise ValueError("empty training set")
        if self.x.shape[0] != len(self.labels):
            raise ValueError("label count does not match row count")

    # the training side of every distance pass, built on first use and kept
    # with the model, so a model that scores one document at a time builds it once
    @cached_property
    def squared_norms(self) -> np.ndarray:
        return np.asarray(self.x.multiply(self.x).sum(axis=1)).ravel()

    @cached_property
    def x_t(self) -> sparse.csr_matrix:
        return self.x.T.tocsr()


def knn_to_obj(model: KnnModel) -> dict:
    return {"k": model.k, "labels": list(model.labels), "x": _csr_to_obj(model.x)}


def knn_from_obj(obj: dict, n_features: int) -> KnnModel:
    labels = _strings(obj["labels"], "kNN labels")
    if not set(labels) <= {"+1", "-1"}:
        raise ModelFormatError("kNN labels must be +1 or -1")
    x = _csr_from_obj(obj["x"], "kNN x", n_features)
    return KnnModel(x, labels, _typed(obj["k"], int, "kNN k"))


def knn_train(x: sparse.csr_matrix, labels: Sequence[str], k: int = 2) -> KnnModel:
    return KnnModel(x, tuple(labels), k)


def _squared_distances(
    model: KnnModel, queries: sparse.csr_matrix, cross: np.ndarray | None
) -> Iterator[tuple[int, np.ndarray]]:
    """(first query, (block, m) squared Euclidean distances clipped at zero) per block of queries.

    ``cross``, when given, holds the (queries x m) dot products, each summed
    as ``queries @ model.x_t`` sums it; otherwise each block multiplies.
    """
    train_sq = model.squared_norms
    query_sq = np.asarray(queries.multiply(queries).sum(axis=1)).ravel()
    step = max(1, _BLOCK_ENTRIES // model.x.shape[0])
    for lo in range(0, queries.shape[0], step):
        if cross is None:
            block = (queries[lo:lo + step] @ model.x_t).toarray()
        else:
            block = cross[lo:lo + step]
        d2 = query_sq[lo:lo + step, None] + train_sq[None, :] - 2.0 * block
        np.maximum(d2, 0.0, out=d2)
        yield lo, d2


def _block_votes(d2: np.ndarray, k: int, member: np.ndarray) -> np.ndarray:
    """(n_columns, block) votes of each column of the (m, n_columns) boolean ``member``."""
    n_queries = d2.shape[0]
    n_columns = member.shape[1]
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(d2 <= kth[:, None])
    dist = d2[rows, cols]
    zero = dist == 0.0
    coincides = np.zeros(n_queries, dtype=bool)
    coincides[rows[zero]] = True
    keep = zero | ~coincides[rows]
    rows, cols, dist = rows[keep], cols[keep], dist[keep]
    weights = np.ones_like(dist)
    np.divide(1.0, dist, out=weights, where=dist > 0.0)

    # neighbors by query, then ascending weight; then grouped by (column, query)
    order = np.lexsort((weights, rows))
    rows, cols, weights = rows[order], cols[order], weights[order]
    column, entry = np.nonzero(member[cols].T)
    values = weights[entry]
    counts = np.bincount(column * n_queries + rows[entry], minlength=n_columns * n_queries)
    starts = np.cumsum(counts) - counts
    votes = np.zeros(n_columns * n_queries)
    for length in np.unique(counts[counts > 0]):
        groups = np.flatnonzero(counts == length)
        votes[groups] = np.sum(values[starts[groups, None] + np.arange(length)], axis=1)
    return votes.reshape(n_columns, n_queries)


def _votes(model: KnnModel, queries: sparse.csr_matrix, member: np.ndarray, cross: np.ndarray | None) -> np.ndarray:
    """(n_queries, n_columns) votes of each column of the (m, n_columns) boolean ``member``."""
    votes = np.empty((member.shape[1], queries.shape[0]))
    k = min(model.k, model.x.shape[0])
    for lo, d2 in _squared_distances(model, queries, cross):
        votes[:, lo:lo + d2.shape[0]] = _block_votes(d2, k, member)
    return votes.T


def knn_score(
    model: KnnModel,
    queries: sparse.csr_matrix,
    positives: np.ndarray | None = None,
    cross: np.ndarray | None = None,
) -> np.ndarray:
    """Signed vote share of the +1 class for binary +1/-1 problems.

    Positive exactly when the weighted vote favors the positive class.  With
    ``positives``, an (m, c) boolean matrix marking the +1 training rows of c
    problems that share the model's rows and k, returns (n_queries, c) scores
    from one neighbor search; otherwise the model's own labels, 1-D scores.
    ``cross`` is the (queries x m) dot-product matrix when the caller has it.
    """
    if positives is None:
        return knn_score(model, queries, (np.asarray(model.labels) == "+1")[:, None], cross)[:, 0]
    votes = _votes(model, queries, np.hstack([positives, ~positives]), cross)
    pos, neg = np.hsplit(votes, 2)
    total = pos + neg
    return pos / total - neg / total

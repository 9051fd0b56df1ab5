"""Perceptron training with uneven margins.

Online additive updates with per-class margin requirements: an example
triggers an update whenever its functional margin fails to exceed the
threshold of its class (tau_pos for +1, tau_neg for -1).  The bias moves in
steps of R squared, with R the largest training-vector norm.  Training stops
after the first full pass without updates, or at the epoch cap with the
model flagged non-separated.

Rows are visited in input order, but most visits update nothing, so a pass
finds the next updating row by array work.  The rows are cut into blocks of
``_BLOCK_ROWS``, and one sparse product scores the rest of a block at once:
``x_blk @ w + w_aug * opt_b + b``.  That approximate score may differ in the
last bits from the exact per-row expression ``float(vals @ w[idx]) + w_aug *
opt_b + b`` (BLAS sums the dot product in another order), so the block only
rules out rows whose approximate margin ``y * s - tau`` exceeds a rounding
band; every other row is re-scored with the exact expression before it may
update, and an update re-scores the block from the next row.  A pass thus
makes the same updates, in the same order and with the same bits, as
scoring every row on its own.

The band is rigorous.  Both scores evaluate the same sum of n + 2 terms,
the n products of a row with n stored entries, ``w_aug * opt_b`` and ``b``,
in some order; each differs from the real sum by at most gamma(n + 2) * Z
with gamma(k) = k u / (1 - k u), u = 2^-53, and Z = sum |v_k w_k| + |w_aug *
opt_b| + |b| <= ||x_row||_1 * max|w| + |w_aug * opt_b| + |b|.  So the two
scores differ by at most 2 gamma(n + 2) Z, which is below
``_BAND * Z`` (1e-9 Z) for n up to about 4.5 million, with room for the
rounding of the margin and of the band itself.  A row with
``_BAND_MAX_ENTRIES`` or more stored entries gets an infinite L1 norm, and a
block with any non-finite score or band (an overflow, a NaN) is checked row
by row.  ``max|w|`` is tracked as an upper bound, raised after each update
by the entries that update touched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .params import PaumParams, _floats, _typed

log = logging.getLogger(__name__)

_BLOCK_ROWS = 64
# relative rounding band; it covers rows of fewer than _BAND_MAX_ENTRIES entries
_BAND = 1e-9
_BAND_MAX_ENTRIES = 4_000_000


@dataclass(frozen=True)
class PaumModel:
    weights: np.ndarray
    bias: float
    bias_feature: float
    opt_b: float
    converged: bool
    epochs: int


def paum_to_obj(model: PaumModel) -> dict:
    return {
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "bias_feature": model.bias_feature,
        "opt_b": model.opt_b,
        "converged": model.converged,
        "epochs": model.epochs,
    }


def paum_from_obj(obj: dict, n_features: int) -> PaumModel:
    return PaumModel(
        _floats(obj["weights"], "PAUM weights", (n_features,)),
        _typed(obj["bias"], float, "PAUM bias"),
        _typed(obj["bias_feature"], float, "PAUM bias_feature"),
        _typed(obj["opt_b"], float, "PAUM opt_b"),
        _typed(obj["converged"], bool, "PAUM converged"),
        _typed(obj["epochs"], int, "PAUM epochs"),
    )


@dataclass(frozen=True)
class PaumRows:
    """What training needs of a matrix whatever its labels.

    ``rows[i]`` is row i's (indices, data); ``blocks`` holds each block's
    first row, its CSR rows and their L1 norms; ``r_sq`` is the largest
    squared row norm.  One-vs-all training builds it once for all classes.
    """

    rows: list[tuple[np.ndarray, np.ndarray]]
    blocks: list[tuple[int, sparse.csr_matrix, np.ndarray]]
    r_sq: float


def paum_rows(x: sparse.csr_matrix) -> PaumRows:
    """The label-free set-up of ``paum_train`` on ``x``."""
    m = x.shape[0]
    indptr, indices, data = x.indptr, x.indices, x.data
    rows = [(indices[indptr[i]: indptr[i + 1]], data[indptr[i]: indptr[i + 1]]) for i in range(m)]
    row_norms_sq = np.asarray(x.multiply(x).sum(axis=1)).ravel()
    r_sq = float(row_norms_sq.max()) if m else 0.0
    l1 = np.asarray(abs(x).sum(axis=1), dtype=np.float64).ravel()
    l1[np.diff(indptr) >= _BAND_MAX_ENTRIES] = np.inf
    blocks = []
    for lo in range(0, m, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, m)
        # the block's arrays are views of x's: the constructor would copy them
        blk = sparse.csr_matrix((hi - lo, x.shape[1]))
        a, z = indptr[lo], indptr[hi]
        blk.data, blk.indices, blk.indptr = data[a:z], indices[a:z], indptr[lo: hi + 1] - a
        blocks.append((lo, blk, l1[lo:hi]))
    return PaumRows(rows, blocks, r_sq)


def _unclear(blk, l1, w, w_max, offset, b, y_blk, tau_blk) -> np.ndarray:
    """Positions in a block whose update test its approximate scores cannot settle."""
    margin = y_blk * (blk @ w + offset + b) - tau_blk
    band = _BAND * (l1 * w_max + abs(offset) + abs(b))
    if not np.isfinite(margin + band).all():
        return np.arange(y_blk.shape[0])
    return np.flatnonzero(~(margin > band))


def paum_train(
    x: sparse.csr_matrix, y: np.ndarray, hp: PaumParams = PaumParams(), ctx: PaumRows | None = None
) -> PaumModel:
    """Fig-style margin perceptron; examples are visited in input order.

    ``ctx`` may pass in ``paum_rows(x)``.
    """
    m, n = x.shape
    if m == 0:
        raise ValueError("empty training set")
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != m or not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1/-1, one per row")
    if ctx is None:
        ctx = paum_rows(x)
    rows, r_sq = ctx.rows, ctx.r_sq

    w = np.zeros(n, dtype=np.float64)
    w_max = 0.0  # an upper bound on max|w|
    b = 0.0
    # optional always-on bias feature, scaled by opt_b (0 disables it)
    w_aug = 0.0
    tau = np.where(y > 0, hp.tau_pos, hp.tau_neg)

    converged = False
    epochs = 0
    for _ in range(hp.max_epochs):
        epochs += 1
        updated = False
        for lo, blk, l1 in ctx.blocks:
            hi = lo + blk.shape[0]
            start = lo
            while start < hi:
                near = _unclear(blk, l1, w, w_max, w_aug * hp.opt_b, b, y[lo:hi], tau[lo:hi])
                for i in (lo + near[near >= start - lo]).tolist():
                    idx, vals = rows[i]
                    score = float(vals @ w[idx]) + w_aug * hp.opt_b + b
                    if y[i] * score <= tau[i]:
                        step = hp.eta * y[i]
                        w[idx] += step * vals
                        w_max = float(np.abs(w[idx]).max(initial=w_max))
                        w_aug += step * hp.opt_b
                        b += step * r_sq
                        updated = True
                        start = i + 1
                        break
                else:
                    break
        if not updated:
            converged = True
            break
    if not converged:
        log.warning("PAUM stopped at the epoch cap (%d) without a pass free of updates", hp.max_epochs)
    return PaumModel(w, b, w_aug, hp.opt_b, converged, epochs)


def paum_decision(model: PaumModel, x: sparse.csr_matrix) -> np.ndarray:
    """Raw decision values w.x + b (plus the bias-feature term when enabled)."""
    scores = np.asarray(x @ model.weights).ravel() + model.bias
    if model.opt_b:
        scores = scores + model.bias_feature * model.opt_b
    return scores

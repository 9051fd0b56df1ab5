"""Soft-margin SVM trained by sequential minimal optimization.

Each step updates one pair of multipliers, chosen by the second-order
working-set rule of Fan, Chen & Lin (JMLR 2005), the rule LIBSVM uses.  The
solver keeps the errors E_t = f(x_t) - y_t of the decision function without
its intercept; -E_t is -y_t times the gradient of the dual.  I_up holds the
multipliers that may move up along y (alpha < C on positives, alpha > 0 on
negatives), I_low those that may move down (alpha > 0 on positives,
alpha < C on negatives).  A step takes i, the index of I_up with the largest
-E_i (the maximal violator), then j, the index of I_low with E_j > E_i that
gains the most to second order, (E_j - E_i)^2 / eta_ij with
eta_ij = K_ii + K_jj - 2 K_ij, read from row i and the cached diagonal.  A
pair whose eta_ij is not positive counts as curving by LIBSVM's tau = 1e-12.
The step moves alpha_i by y_i * lam and alpha_j by -y_j * lam, with
lam = (E_j - E_i) / eta_ij clipped to the box, and E by lam * (row_i -
row_j).  A multiplier the box stops is set to its bound exactly, and so is
one that a step leaves within 4 eps * C of a bound (``_ROUNDING``): lam and
the room to the bound each carry rounding, so a step that reaches the bound
in exact arithmetic can end an ulp short of it.  So the bound sets do not
drift, and ``final_intercept`` and an exact check agree on which multipliers
are bound.  Ties go to the lowest index, so identical inputs yield identical
solutions.

The solver stops when the maximal violating pair closes to
max_{I_up}(-E) - min_{I_low}(-E) < 2 * tol.  Then the intercept b midway
between the two leaves no point more than ``tol`` on the wrong side of its
KKT condition (y_t (E_t + b) >= -tol where alpha_t < C, <= tol where
alpha_t > 0), the per-point test Platt's SMO applied one point at a time.
In exact arithmetic this rule reaches any positive tolerance in finitely
many steps on any kernel matrix (Chen, Fan & Lin, IEEE TNN 2006), so every
problem terminates; ``_MAX_STEPS`` stays as a guard that logs a warning.
Each step fetches two kernel rows, row i and then row j, and the stop test
fetches none.

A step scores only the candidates, the indices of I_low with E_j > E_i, in
ascending order.  Every other index of I_low has E_j - E_i <= 0 and cannot
gain, while the best candidate's gain is positive whenever the solver has not
stopped.  The stop test reads the same candidates: rounding is monotone, so
max(E_cand) - E_i is bit for bit the largest E_t - E_i over all of I_low, and
with no candidate the pair is closed.  The argmax over the ascending
candidates takes the first of equal gains, the lowest index.

On the LRU path, row i is summed from the columns row i stores:
``columns[:, indices] @ data``, with ``indices`` and ``data`` the row's stored
entries (bounded by ``x.indptr``) and ``columns`` a CSC copy of the cache's
canonical matrix.  Entry t is a sum, starting from +0.0, over the columns rows
i and t share, in ascending column order; explicit zeros add +-0.0, which
leaves a nonzero sum unchanged and cannot turn +0.0 into -0.0.  The full Gram
matrix (a sparse x sparse product) sums the same products in the same order,
so an LRU row equals its row bit for bit and the solver takes the same steps
on either path; the cache brings its matrix to canonical form for that.  A
row reads only the stored values of its own columns, where a product with
the densified row walks them all: training on 160 documents of ``clinrel
generate --seed 1001`` computes 1,287 rows, which read 148,513 of the
689,401 stored values on average.

Decision values are sparse x dense products (``support @
queries.toarray().T``): scipy's sparse x sparse product builds a sparse
result through a symbolic pass and is several times slower.  Each entry is a
sum, from +0.0, over the stored entries of a support row in storage order
(ascending for canonical rows), and the products whose dense factor is zero
add +-0.0, so both forms give the same bits.  The full Gram matrix stays a
sparse x sparse product: a dense operand was not faster there.

Cross-validation computes the dot products X·Xᵀ of a fold plan's rows once
(``harness.shared_dots``).  Each fold transforms the block at its training
rows into its Gram matrix (``KernelCache``'s ``gram``), which equals the
fold's own Gram matrix bit for bit: entry (i, j) sums the products of the
same stored entries, the columns rows i and j share, in ascending column
order.  The folds' column sets only drop columns where their training rows
store nothing, and renumber the others in the same order.  A fold scores its
own test matrix from the (test x train) block, transformed, each class taking
the columns of its support rows (``SvmModel.rows``) in support order; by the
argument below, those are the kernel values a support stack gives.

One-vs-all prediction scores every class from one kernel block
(``stacked_svm_decisions``).  The class models of one training set share many
support rows (160 documents of ``clinrel generate --seed 1001``: 2,413 support
rows, 1,272 distinct), so ``stack_supports`` keeps each distinct row once,
keyed by the bytes of its stored indices and data, in a CSC matrix.

The block multiplies only the support columns that the query block stores
(``np.unique(queries.indices)``): the stack's matrix cut to those columns,
times the queries densified over them alone.  A CSC product adds each
column's terms to its rows in ascending column order, so entry (s, q) is the
sum, from +0.0, of the products of support row s and query q over the kept
columns in ascending order.  A class's own product sums the products over all
of row s's stored entries in storage order, which is ascending for the
canonical rows that training and the model reader (``_csr_from_obj``) allow.
The two sums differ only by the terms of the dropped columns, where the
query's value is zero.  Each such term is +-0.0, as the support values are
finite: an infinite or NaN value times zero is NaN, and the model reader
rejects such values.  Adding +-0.0 to a round-to-nearest sum that starts at
+0.0 changes nothing, because such a sum is never -0.0, so the kept terms
give the same bits.  It does not matter which class a row came from or which
other rows share the block.  A document's queries store columns that hold 68%
of the stored support values (``clinrel predict`` on 240 documents of
``clinrel generate --seed 2001`` with a model trained on 160 of ``--seed
1001``: 119,854 of 175,028 on average), so scoring document after document
gains.

The query block is densified in chunks of rows that hold at most
``_CHUNK_VALUES`` values over the kept columns, which bounds the memory the
block needs beyond its own size; a column of the block depends on its query
row alone.  Each class then takes its rows of the block,
in its own support order, as a C-ordered (queries x supports) matrix and
multiplies it by its coefficients, exactly the shape ``svm_decision`` gives
BLAS.  The matrix-vector product rounds differently for different matrix
heights (with OpenBLAS 0.3.31, rows multiplied as part of a taller matrix got
other last bits than the same rows alone in 131 of 200 random trials), so no
product runs over a taller block than before, and the callers keep scoring the
blocks they scored before.

Uneven margins are applied after the fact: the standard decision function is
scaled by (1+tau)/2 and shifted by (1-tau)/2, which satisfies the hard
constraints f >= 1 on positives and f <= -tau on negatives whenever the
standard solution satisfied f >= 1 / f <= -1.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import sparse

from .params import KernelSpec, SvmParams, _csr_from_obj, _csr_to_obj, _floats, _typed

log = logging.getLogger(__name__)

_TAU = 1e-12  # LIBSVM's curvature for a pair whose eta is not positive
_MAX_STEPS = 2_000_000
_BOUND_EPS = 1e-6
_ROUNDING = 4 * np.finfo(np.float64).eps  # relative to C: a step's rounding next to a bound
# dense query values per chunk of a stacked kernel block: 1 MB of float64
_CHUNK_VALUES = 1 << 17


def _transform(dots: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """The kernel values of the dot products ``dots``, computed in ``dots`` itself and returned.

    In place, so a kernel block is held once; ``+= 1.0`` and ``**= degree``
    give the bits of ``(dots + 1.0) ** degree``.
    """
    if spec.kind != "linear":
        dots += 1.0
        dots **= spec.degree
    return dots


def kernel_matrix(spec: KernelSpec, a: sparse.csr_matrix, b: sparse.csr_matrix) -> np.ndarray:
    """Dense K(a_i, b_j) matrix."""
    return _transform(np.asarray((a @ b.T).toarray(), dtype=np.float64), spec)


def gram_budget(cache_mb: float) -> int:
    """How many float64 kernel values a budget of ``cache_mb`` MB holds."""
    return int(cache_mb * 1e6 / 8)


class KernelCache:
    """Kernel rows for one training matrix, bounded by a memory budget in MB.

    ``cache_mb`` bounds the kernel rows: the full Gram matrix when it fits,
    else a least-recently-used set of rows.  On that LRU path the cache also
    holds a CSC copy of ``x``, about 12 bytes per stored value (8.3 MB for
    160 documents of ``clinrel generate --seed 1001``), which the budget does
    not count.  ``gram``, when given, is the full Gram matrix of ``x``
    computed elsewhere (cut from dot products shared by several folds); it
    must fit the budget.
    """

    def __init__(
        self,
        x: sparse.csr_matrix,
        spec: KernelSpec,
        cache_mb: float = 100.0,
        *,
        gram: np.ndarray | None = None,
    ):
        if not x.has_canonical_format:
            x = x.copy()
            x.sum_duplicates()
        self.x = x
        self.spec = spec
        m = x.shape[0]
        self.m = m
        row_norms = np.asarray(x.multiply(x).sum(axis=1)).ravel()
        self.diagonal = _transform(row_norms, spec)
        budget_values = max(2 * m, gram_budget(cache_mb))
        if gram is not None and (gram.shape != (m, m) or m * m > budget_values):
            raise ValueError(f"a given Gram matrix must be {m} x {m} and fit {cache_mb} MB")
        if m * m <= budget_values:
            self._gram = kernel_matrix(spec, x, x) if gram is None else gram
            self._columns: sparse.csc_matrix | None = None
            self._rows: OrderedDict[int, np.ndarray] | None = None
            self._capacity = 0
        else:
            self._gram = None
            self._columns = x.tocsc()
            self._rows = OrderedDict()
            self._capacity = max(2, budget_values // m)

    def row(self, i: int) -> np.ndarray:
        """K(x_i, x_j) for all j."""
        if self._gram is not None:
            return self._gram[i]
        cached = self._rows.get(i)
        if cached is not None:
            self._rows.move_to_end(i)
            return cached
        lo, hi = self.x.indptr[i], self.x.indptr[i + 1]
        dots = self._columns[:, self.x.indices[lo:hi]] @ self.x.data[lo:hi]
        # cache a copy, made once the product's temporaries are freed: caching the product's own
        # buffer fragments the heap (+5 MB peak RSS training on 160 documents)
        row = _transform(dots, self.spec).copy()
        self._rows[i] = row
        while len(self._rows) > self._capacity:
            self._rows.popitem(last=False)
        return row


@dataclass(frozen=True)
class SmoSolution:
    """Standard-SVM dual solution over its training data; ``steps`` counts the pair updates made."""

    alpha: np.ndarray
    b: float
    x: sparse.csr_matrix
    y: np.ndarray
    kernel: KernelSpec
    converged: bool
    steps: int


class _Smo:
    def __init__(self, x, y, c, kernel, tol, cache):
        self.y = y
        self.c = c
        self.tol = tol
        self.cache = cache or KernelCache(x, kernel, SvmParams().cache_mb)
        self.alpha = np.zeros(x.shape[0])
        self.errors = -y  # f(x_i) - y_i, with f the decision function without its intercept
        self.steps = 0

    def solve(self) -> bool:
        c, y, alpha, errors = self.c, self.y, self.alpha, self.errors
        diagonal = self.cache.diagonal
        pos = y > 0
        up = np.where(pos, alpha < c, alpha > 0.0)  # I_up
        low = np.where(pos, alpha > 0.0, alpha < c)  # I_low
        near = _ROUNDING * c
        while True:
            i = np.where(up, errors, np.inf).argmin().item()
            e_i = errors[i]
            cand = np.flatnonzero(low & (errors > e_i))  # ascending, so ties go to the lowest index
            gap = errors[cand] - e_i
            if not cand.size or gap.max() < 2.0 * self.tol:
                return True
            if self.steps >= _MAX_STEPS:
                log.warning("SMO stopped at the step cap before reaching the tolerance")
                return False
            row_i = self.cache.row(i)
            eta = diagonal[cand] + diagonal[i] - 2.0 * row_i[cand]
            eta[eta <= 0.0] = _TAU
            best = (gap * gap / eta).argmax().item()
            j = cand[best].item()
            row_j = self.cache.row(j)
            # alpha_i moves by y_i * lam and alpha_j by -y_j * lam, as far as the box allows
            room_i = c - alpha[i] if pos[i] else alpha[i]
            room_j = alpha[j] if pos[j] else c - alpha[j]
            lam = min(gap[best] / eta[best], room_i, room_j)
            alpha[i] = (c if pos[i] else 0.0) if lam == room_i else alpha[i] + y[i] * lam
            alpha[j] = (0.0 if pos[j] else c) if lam == room_j else alpha[j] - y[j] * lam
            errors += lam * (row_i - row_j)
            for t in (i, j):
                if alpha[t] <= near:
                    alpha[t] = 0.0
                elif alpha[t] >= c - near:
                    alpha[t] = c
                up[t] = alpha[t] < c if pos[t] else alpha[t] > 0.0
                low[t] = alpha[t] > 0.0 if pos[t] else alpha[t] < c
            self.steps += 1

    def final_intercept(self) -> float:
        """Intercept recomputed from the final multipliers.

        Derived from the stationarity conditions: an interior point pins it
        exactly, a bound point constrains it from one side.  Multipliers
        within a small relative slack of a bound count as bound points; their
        gradients are not converged tightly enough to pin anything.
        """
        g = -self.errors  # y_i minus the raw (intercept-free) decision
        slack = _BOUND_EPS * self.c
        at_zero = self.alpha <= slack
        at_c = self.alpha >= self.c - slack
        interior = ~at_zero & ~at_c
        if interior.any():
            return float(g[interior].mean())
        pos = self.y > 0
        lower = g[(at_zero & pos) | (at_c & ~pos)]
        upper = g[(at_zero & ~pos) | (at_c & pos)]
        # the equality constraint all but forces both sides to be populated;
        # when one is empty, the other side's bound is the intercept
        lo = lower.max() if lower.size else upper.min()
        hi = upper.min() if upper.size else lo
        return float((lo + hi) / 2.0)


def smo_train(
    x: sparse.csr_matrix,
    y: np.ndarray,
    c: float = 0.7,
    kernel: KernelSpec = KernelSpec(),
    tol: float = 1e-3,
    cache: KernelCache | None = None,
) -> SmoSolution:
    """Standard soft-margin dual solution (tau plays no part here)."""
    y = np.asarray(y, dtype=np.float64)
    m = x.shape[0]
    if m == 0:
        raise ValueError("empty training set")
    if y.shape[0] != m or not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1/-1, one per row")
    if np.all(y == y[0]):
        raise ValueError("both classes must be present")
    if c <= 0:
        raise ValueError("C must be positive")
    if cache is not None and cache.m != m:
        raise ValueError(f"the kernel cache holds {cache.m} rows, the training set {m}")
    solver = _Smo(x, y, c, kernel, tol, cache)
    converged = solver.solve()
    return SmoSolution(solver.alpha, solver.final_intercept(), x, y, kernel, converged, solver.steps)


@dataclass(frozen=True)
class SvmModel:
    """Support-vector expansion with the uneven-margin transform folded in.

    ``rows``, set by ``apply_uneven_margin`` and never saved, are the
    training rows of the supports, in order.
    """

    support: sparse.csr_matrix
    coef: np.ndarray
    intercept: float
    kernel: KernelSpec
    tau: float
    rows: np.ndarray | None = None


def svm_to_obj(model: SvmModel) -> dict:
    return {
        "support": _csr_to_obj(model.support),
        "coef": model.coef.tolist(),
        "intercept": model.intercept,
        "kernel": {"kind": model.kernel.kind, "degree": model.kernel.degree},
        "tau": model.tau,
    }


def svm_from_obj(obj: dict, n_features: int) -> SvmModel:
    support = _csr_from_obj(obj["support"], "SVM support", n_features)
    kernel = _typed(obj["kernel"], dict, "SVM kernel")
    return SvmModel(
        support,
        _floats(obj["coef"], "SVM coef", (support.shape[0],)),
        _typed(obj["intercept"], float, "SVM intercept"),
        KernelSpec(_typed(kernel["kind"], str, "SVM kernel kind"), _typed(kernel["degree"], int, "SVM kernel degree")),
        _typed(obj["tau"], float, "SVM tau"),
    )


def with_margin(model: SvmModel, tau: float) -> SvmModel:
    """A tau = 1 model moved to margin ``tau``: scaled by (1+tau)/2 and shifted by (1-tau)/2.

    A tau = 1 model from ``apply_uneven_margin`` holds alpha * y times 1.0 and
    b times 1.0 plus 0.0, which are alpha * y and b exactly (up to the sign of
    a zero intercept, which the shift then erases), so moving it to ``tau``
    equals ``apply_uneven_margin(solution, tau)`` bit for bit.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")
    scale = (1.0 + tau) / 2.0
    shift = (1.0 - tau) / 2.0
    return replace(model, coef=model.coef * scale, intercept=scale * model.intercept + shift, tau=tau)


def apply_uneven_margin(solution: SmoSolution, tau: float = 0.8) -> SvmModel:
    """The solution's support-vector expansion at margin ``tau``; tau = 1 is the identity."""
    sv = np.flatnonzero(solution.alpha > 0.0)
    standard = SvmModel(solution.x[sv], solution.alpha[sv] * solution.y[sv], solution.b, solution.kernel, 1.0, sv)
    return with_margin(standard, tau)


def svm_decision(model: SvmModel, queries: sparse.csr_matrix) -> np.ndarray:
    if model.coef.size == 0:
        return np.full(queries.shape[0], model.intercept)
    # C order matters: an F-ordered matrix takes another BLAS path in ``@ coef``
    # and changes the last bits of the scores
    dots = np.ascontiguousarray((model.support @ queries.toarray().T).T)
    return _transform(dots, model.kernel) @ model.coef + model.intercept


@dataclass(frozen=True)
class SupportStack:
    """The distinct support rows of several SVM models, as a CSC matrix, and where each model's rows are."""

    columns: sparse.csc_matrix
    positions: tuple[np.ndarray, ...]


def stack_supports(models: Sequence[SvmModel]) -> SupportStack:
    """Each distinct support row of one or more models once, keyed by the bytes of its indices and data."""
    ids: dict[tuple[bytes, bytes], int] = {}
    data, indices = [], []
    positions = []
    for model in models:
        support = model.support
        bounds = support.indptr.tolist()
        pos = np.empty(support.shape[0], dtype=np.intp)
        for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            row_indices, row_data = support.indices[lo:hi], support.data[lo:hi]
            key = (row_indices.tobytes(), row_data.tobytes())
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(ids)
                indices.append(row_indices)
                data.append(row_data)
            pos[r] = i
        positions.append(pos)
    indptr = np.concatenate([[0], np.cumsum([a.size for a in indices])])
    rows = sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), indptr), shape=(len(ids), models[0].support.shape[1])
    )
    return SupportStack(rows.tocsc(), tuple(positions))


def stacked_svm_decisions(
    models: Sequence[SvmModel], stack: SupportStack, queries: sparse.csr_matrix
) -> np.ndarray:
    """(queries x models) decision values, column j equal to ``svm_decision(models[j], queries)``.

    The models share one kernel and ``stack`` is ``stack_supports(models)``.
    The kernel block multiplies only the support columns that ``queries`` stores.
    """
    n_queries = queries.shape[0]
    stored = np.unique(queries.indices)
    supports = stack.columns[:, stored]
    queries = sparse.csr_matrix(
        (queries.data, np.searchsorted(stored, queries.indices), queries.indptr), shape=(n_queries, stored.size)
    )
    k = np.empty((supports.shape[0], n_queries))
    step = max(1, _CHUNK_VALUES // max(1, queries.shape[1]))
    for lo in range(0, n_queries, step):
        k[:, lo:lo + step] = supports @ queries[lo:lo + step].T.toarray()
    _transform(k, models[0].kernel)
    scores = np.empty((n_queries, len(models)))
    for j, (model, pos) in enumerate(zip(models, stack.positions)):
        scores[:, j] = np.ascontiguousarray(k[pos].T) @ model.coef + model.intercept
    return scores

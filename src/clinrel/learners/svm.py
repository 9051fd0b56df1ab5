"""Soft-margin SVM trained by sequential minimal optimization.

The solver is Platt-style SMO made fully deterministic: the random starting
points of the original second-choice heuristic are replaced by a fixed scan
order, so identical inputs yield identical solutions.  Kernel rows are served
from a shared cache (full Gram matrix when it fits the memory budget,
least-recently-used rows otherwise), which one-vs-all training reuses across
its per-class problems.

Kernel rows on the LRU path and decision values are sparse x dense products
(``x @ x[i].toarray().ravel()``, ``support @ queries.toarray().T``): scipy's
sparse x sparse product builds a sparse result through a symbolic pass and
is several times slower per row.  Both forms give the same bits.  Each output
entry is a sum, starting from +0.0, over the columns two rows share, in the
storage order of one of the rows; for canonical CSR rows (sorted, unique
column indices) that is ascending column order whichever row is walked.  The
dense form also adds the products whose dense factor is zero, which leaves a
nonzero sum unchanged and cannot turn +0.0 into -0.0.  The same argument
makes K(i, j) and K(j, i) equal bit for bit, which ``KernelCache.entry``
relies on, so the cache brings its matrix to canonical form.  The full Gram
matrix stays a sparse x sparse product: a dense operand was not faster there.

Cross-validation builds one Gram matrix over the training rows of all folds
and hands each fold the slice at its training rows (``KernelCache``'s
``gram``).  The slice equals the fold's own Gram matrix bit for bit: K(i, j)
sums the products of the same stored entries, the columns rows i and j share,
in ascending column order.  The folds' column sets only drop columns where
their training rows store nothing, and renumber the others in the same order.

One-vs-all prediction scores every class from one kernel block
(``stacked_svm_decisions``).  The class models of one training set share many
support rows (160 documents of ``clinrel generate --seed 1001``: 2,413 support
rows, 1,272 distinct), so ``stack_supports`` keeps each distinct row once,
keyed by the bytes of its stored indices and data.  A row of the block is the
same sum, over the stored entries of that row in storage order, that a class's
own product computes, so it does not matter which class a row came from or
which other rows share the block.  The query block is densified in chunks of
rows, which bounds the memory the block needs beyond its own size; a column of
the block depends on its query row alone.  Each class then takes its rows of
the block, in its own support order, as a C-ordered (queries x supports)
matrix and multiplies it by its coefficients, exactly the shape
``svm_decision`` gives BLAS.  The matrix-vector product rounds differently for
different matrix heights (with OpenBLAS 0.3.31, rows multiplied as part of a
taller matrix got other last bits than the same rows alone in 131 of 200
random trials), so no product runs over a taller block than before, and the
callers keep scoring the blocks they scored before.

The SMO loop reads its multipliers, errors and kernel entries as Python
floats.  Those are IEEE doubles too, and each operation and its order are
those of numpy scalar arithmetic, so the step sequence and every result are
unchanged; only the per-operation overhead of numpy scalars is gone.

Uneven margins are applied after the fact: the standard decision function is
scaled by (1+tau)/2 and shifted by (1-tau)/2, which satisfies the hard
constraints f >= 1 on positives and f <= -tau on negatives whenever the
standard solution satisfied f >= 1 / f <= -1.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np
from scipy import sparse

from .params import KernelSpec, SvmParams, _csr_from_obj, _csr_to_obj, _floats, _typed

log = logging.getLogger(__name__)

_STEP_EPS = 1e-12
_MAX_STEPS = 2_000_000
_BOUND_EPS = 1e-6
# dense query values per chunk of a stacked kernel block: 1 MB of float64
_CHUNK_VALUES = 1 << 17


def _transform(dots, spec: KernelSpec):
    if spec.kind == "linear":
        return dots
    return (dots + 1.0) ** spec.degree


def kernel_matrix(spec: KernelSpec, a: sparse.csr_matrix, b: sparse.csr_matrix) -> np.ndarray:
    """Dense K(a_i, b_j) matrix."""
    k = np.asarray((a @ b.T).toarray(), dtype=np.float64)
    if spec.kind != "linear":
        # in place, so the build holds one matrix; same operations as _transform
        k += 1.0
        k **= spec.degree
    return k


def gram_budget(cache_mb: float) -> int:
    """How many float64 kernel values a budget of ``cache_mb`` MB holds."""
    return int(cache_mb * 1e6 / 8)


class KernelCache:
    """Kernel rows for one training matrix, bounded by a memory budget in MB.

    ``gram``, when given, is the full Gram matrix of ``x`` computed elsewhere
    (a slice of a matrix shared by several folds); it must fit the budget.
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
            self._rows: OrderedDict[int, np.ndarray] | None = None
            self._capacity = 0
        else:
            self._gram = None
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
        dots = self.x @ self.x[i].toarray().ravel()
        row = _transform(dots, self.spec)
        self._rows[i] = row
        while len(self._rows) > self._capacity:
            self._rows.popitem(last=False)
        return row

    def entry(self, i: int, j: int) -> float:
        """K(x_i, x_j), equal to ``row(i)[j]``, without computing a row on a miss."""
        if self._gram is not None:
            return self._gram.item(i, j)
        cached = self._rows.get(i)
        if cached is not None:
            return cached.item(j)
        cached = self._rows.get(j)
        if cached is not None:
            return cached.item(i)
        return _transform(self.x[j] @ self.x[i].toarray().ravel(), self.spec).item(0)


@dataclass(frozen=True)
class SmoSolution:
    """Standard-SVM dual solution over its training data."""

    alpha: np.ndarray
    b: float
    x: sparse.csr_matrix
    y: np.ndarray
    kernel: KernelSpec
    converged: bool


class _Smo:
    def __init__(self, x, y, c, kernel, tol, cache):
        self.x = x
        self.y = y
        self.c = c
        self.tol = tol
        self.cache = cache or KernelCache(x, kernel, SvmParams().cache_mb)
        self.m = x.shape[0]
        self.alpha = np.zeros(self.m)
        self.free = np.zeros(self.m, dtype=bool)  # 0 < alpha < c
        self.b = 0.0
        self.errors = -y.astype(np.float64)
        self.steps = 0
        self._y = y.tolist()
        self._diagonal = self.cache.diagonal.tolist()

    def take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        c = self.c
        a1, a2 = self.alpha.item(i1), self.alpha.item(i2)
        y1, y2 = self._y[i1], self._y[i2]
        e1, e2 = self.errors.item(i1), self.errors.item(i2)
        s = y1 * y2
        if s < 0:
            low = max(0.0, a2 - a1)
            high = min(c, c + a2 - a1)
        else:
            low = max(0.0, a2 + a1 - c)
            high = min(c, a2 + a1)
        if low == high:
            return False

        k11 = self._diagonal[i1]
        k22 = self._diagonal[i2]
        k12 = self.cache.entry(i1, i2)
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2_new = a2 + y2 * (e1 - e2) / eta
            a2_new = min(max(a2_new, low), high)
        else:
            f1 = y1 * (e1 + self.b) - a1 * k11 - s * a2 * k12
            f2 = y2 * (e2 + self.b) - a2 * k22 - s * a1 * k12
            l1 = a1 + s * (a2 - low)
            h1 = a1 + s * (a2 - high)
            obj_low = (
                l1 * f1 + low * f2 + 0.5 * l1 * l1 * k11 + 0.5 * low * low * k22 + s * low * l1 * k12
            )
            obj_high = (
                h1 * f1 + high * f2 + 0.5 * h1 * h1 * k11 + 0.5 * high * high * k22 + s * high * h1 * k12
            )
            if obj_low < obj_high - _STEP_EPS:
                a2_new = low
            elif obj_low > obj_high + _STEP_EPS:
                a2_new = high
            else:
                a2_new = a2
        if abs(a2_new - a2) < _STEP_EPS * (a2_new + a2 + _STEP_EPS):
            return False

        # rows are fetched only now: a failed step would discard them
        row1 = self.cache.row(i1)
        row2 = self.cache.row(i2)
        a1_new = a1 + s * (a2 - a2_new)
        a1_new = min(max(a1_new, 0.0), c)
        d1 = y1 * (a1_new - a1)
        d2 = y2 * (a2_new - a2)
        b1 = self.b - e1 - d1 * k11 - d2 * k12
        b2 = self.b - e2 - d1 * k12 - d2 * k22
        free1 = 0.0 < a1_new < c
        free2 = 0.0 < a2_new < c
        if free1:
            b_new = b1
        elif free2:
            b_new = b2
        else:
            b_new = (b1 + b2) / 2.0
        self.errors += d1 * row1 + d2 * row2 + (b_new - self.b)
        self.alpha[i1] = a1_new
        self.alpha[i2] = a2_new
        self.free[i1] = free1
        self.free[i2] = free2
        self.b = b_new
        self.steps += 1
        return True

    def examine(self, i2: int) -> int:
        y2 = self._y[i2]
        a2 = self.alpha.item(i2)
        e2 = self.errors.item(i2)
        r2 = e2 * y2
        if not ((r2 < -self.tol and a2 < self.c) or (r2 > self.tol and a2 > 0.0)):
            return 0
        non_bound = self.free.nonzero()[0]
        if non_bound.size > 1:
            gaps = np.abs(self.errors[non_bound] - e2)
            i1 = non_bound.item(gaps.argmax())
            if self.take_step(i1, i2):
                return 1
        # both scans start at the first index >= i2 + 1 and wrap around
        start = (i2 + 1) % self.m
        free = non_bound.tolist()
        cut = bisect_left(free, start)
        for i1 in chain(free[cut:], free[:cut]):
            if self.take_step(i1, i2):
                return 1
        for i1 in chain(range(start, self.m), range(start)):
            if self.take_step(i1, i2):
                return 1
        return 0

    def solve(self) -> bool:
        examine_all = True
        num_changed = 0
        while (num_changed > 0 or examine_all) and self.steps < _MAX_STEPS:
            num_changed = 0
            if examine_all:
                for i in range(self.m):
                    num_changed += self.examine(i)
            else:
                for i in self.free.nonzero()[0].tolist():
                    num_changed += self.examine(i)
            if examine_all:
                examine_all = False
            elif num_changed == 0:
                examine_all = True
        if self.steps >= _MAX_STEPS:
            log.warning("SMO stopped at the step cap before reaching the tolerance")
            return False
        return True

    def final_intercept(self) -> float:
        """Intercept recomputed from the final multipliers.

        The per-step value can drift outside the feasible range when the
        solution leaves every multiplier at a bound, so derive it from the
        stationarity conditions instead: an interior point pins it exactly,
        a bound point constrains it from one side.  Multipliers within a
        small relative slack of a bound count as bound points; their
        gradients are not converged tightly enough to pin anything.
        """
        g = self.b - self.errors  # y_i minus the raw (intercept-free) decision
        slack = _BOUND_EPS * self.c
        at_zero = self.alpha <= slack
        at_c = self.alpha >= self.c - slack
        interior = ~at_zero & ~at_c
        if interior.any():
            return float(g[interior].mean())
        pos = self.y > 0
        lower = g[(at_zero & pos) | (at_c & ~pos)]
        upper = g[(at_zero & ~pos) | (at_c & pos)]
        # the equality constraint forces both sides to be populated here
        if lower.size == 0 or upper.size == 0:
            return self.b
        return float((lower.max() + upper.min()) / 2.0)


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
    solver = _Smo(x, y, c, kernel, tol, cache)
    converged = solver.solve()
    return SmoSolution(solver.alpha, solver.final_intercept(), x, y, kernel, converged)


@dataclass(frozen=True)
class SvmModel:
    """Support-vector expansion with the uneven-margin transform folded in."""

    support: sparse.csr_matrix
    coef: np.ndarray
    intercept: float
    kernel: KernelSpec
    tau: float


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


def apply_uneven_margin(solution: SmoSolution, tau: float = 0.8) -> SvmModel:
    """Scale by (1+tau)/2 and shift by (1-tau)/2; tau = 1 is the identity."""
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")
    scale = (1.0 + tau) / 2.0
    shift = (1.0 - tau) / 2.0
    sv = np.flatnonzero(solution.alpha > 0.0)
    coef = (solution.alpha[sv] * solution.y[sv]) * scale
    return SvmModel(
        support=solution.x[sv],
        coef=coef,
        intercept=scale * solution.b + shift,
        kernel=solution.kernel,
        tau=tau,
    )


def svm_decision(model: SvmModel, queries: sparse.csr_matrix) -> np.ndarray:
    if model.coef.size == 0:
        return np.full(queries.shape[0], model.intercept)
    # C order matters: an F-ordered matrix takes another BLAS path in ``@ coef``
    # and changes the last bits of the scores
    dots = np.ascontiguousarray((model.support @ queries.toarray().T).T)
    return _transform(dots, model.kernel) @ model.coef + model.intercept


@dataclass(frozen=True)
class SupportStack:
    """The distinct support rows of several SVM models, and where each model's rows are."""

    rows: sparse.csr_matrix
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
    return SupportStack(rows, tuple(positions))


def stacked_svm_decisions(
    models: Sequence[SvmModel], stack: SupportStack, queries: sparse.csr_matrix
) -> np.ndarray:
    """(queries x models) decision values, column j equal to ``svm_decision(models[j], queries)``.

    The models share one kernel and ``stack`` is ``stack_supports(models)``.
    """
    n_queries = queries.shape[0]
    k = np.empty((stack.rows.shape[0], n_queries))
    step = max(1, _CHUNK_VALUES // max(1, queries.shape[1]))
    for lo in range(0, n_queries, step):
        k[:, lo:lo + step] = stack.rows @ queries[lo:lo + step].T.toarray()
    spec = models[0].kernel
    if spec.kind != "linear":
        k += 1.0
        k **= spec.degree
    scores = np.empty((n_queries, len(models)))
    for j, (model, pos) in enumerate(zip(models, stack.positions)):
        scores[:, j] = np.ascontiguousarray(k[pos].T) @ model.coef + model.intercept
    return scores


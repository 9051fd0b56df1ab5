"""Independent reference solvers used by several test modules."""

import numpy as np

from clinrel.features import build_index, extract, vectorize
from clinrel.harness import FoldData, make_folds
from clinrel.pairing import labeled_instances


def _kernel_of_dots(dots, spec):
    return dots if spec.kind == "linear" else (dots + 1.0) ** spec.degree


def sparse_kernel_row(spec, x, i):
    """K(x_i, x_j) for every j, as the sparse x sparse product ``x @ x[i].T``."""
    return _kernel_of_dots(np.asarray((x @ x[i].T).todense()).ravel(), spec)


def sparse_svm_decision(model, queries):
    """SVM decision values through the sparse x sparse kernel ``queries @ support.T``."""
    if model.coef.size == 0:
        return np.full(queries.shape[0], model.intercept)
    dots = np.asarray((queries @ model.support.T).todense(), dtype=np.float64)
    return _kernel_of_dots(dots, model.kernel) @ model.coef + model.intercept


def dual_solve(k, y, c, eps=1e-8, max_sweeps=50_000):
    """Pairwise coordinate ascent on the soft-margin dual.

    Sweeps every index pair in a fixed round-robin order, applying the exact
    two-variable update under the box and equality constraints, until the
    largest single change falls below eps.

    Returns (alpha, b, b_lower, b_upper).  With non-bound multipliers the
    intercept is unique and the interval collapses onto it; with every
    multiplier at a bound any value in [b_lower, b_upper] satisfies the KKT
    conditions, so callers should compare against the whole interval.
    """
    k = np.asarray(k, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = y.shape[0]
    alpha = np.zeros(m)
    for _ in range(max_sweeps):
        biggest = 0.0
        f = k @ (alpha * y)
        for i in range(m):
            for j in range(i + 1, m):
                s = y[i] * y[j]
                if s < 0:
                    low = max(0.0, alpha[j] - alpha[i])
                    high = min(c, c + alpha[j] - alpha[i])
                else:
                    low = max(0.0, alpha[i] + alpha[j] - c)
                    high = min(c, alpha[i] + alpha[j])
                if high - low < 1e-15:
                    continue
                eta = k[i, i] + k[j, j] - 2.0 * k[i, j]
                if eta <= 0.0:
                    continue
                ei = f[i] - y[i]
                ej = f[j] - y[j]
                aj = alpha[j] + y[j] * (ei - ej) / eta
                aj = min(max(aj, low), high)
                ai = alpha[i] + s * (alpha[j] - aj)
                di = ai - alpha[i]
                dj = aj - alpha[j]
                if abs(dj) < 1e-16:
                    continue
                f += di * y[i] * k[:, i] + dj * y[j] * k[:, j]
                alpha[i] = ai
                alpha[j] = aj
                biggest = max(biggest, abs(dj))
        if biggest < eps:
            break

    f = k @ (alpha * y)
    non_bound = np.flatnonzero((alpha > 1e-10) & (alpha < c - 1e-10))
    if non_bound.size:
        b = float(np.mean(y[non_bound] - f[non_bound]))
        return alpha, b, b, b
    # feasible interval from the bound KKT conditions:
    # alpha=0,y=+1 and alpha=C,y=-1 need y_i(f_i+b) >= 1 -> lower bounds;
    # alpha=0,y=-1 and alpha=C,y=+1 need y_i(f_i+b) <= 1 -> upper bounds
    upper = np.inf
    lower = -np.inf
    for i in range(m):
        g = y[i] - f[i]
        at_zero = alpha[i] <= 1e-10
        if (at_zero and y[i] > 0) or (not at_zero and y[i] < 0):
            lower = max(lower, g)
        else:
            upper = min(upper, g)
    if not np.isfinite(upper):
        upper = lower
    if not np.isfinite(lower):
        lower = upper
    b = (lower + upper) / 2.0
    return alpha, float(b), float(lower), float(upper)


def assert_same_csr(a, b):
    """Equal shapes, and equal ``data``/``indices``/``indptr`` arrays and dtypes."""
    assert a.shape == b.shape
    for part in ("data", "indices", "indptr"):
        assert getattr(a, part).dtype == getattr(b, part).dtype, part
        assert np.array_equal(getattr(a, part), getattr(b, part)), part
    assert a.has_sorted_indices == b.has_sorted_indices


def local_prepare_folds(corpus, feature_cfg, k, seed, max_crossings, only=None):
    """Folds built the direct way: extract per document, index per fold.

    Each fold indexes the keys of its own training vectors and vectorizes
    its training and test vectors against that index.  ``only`` limits the
    folds built to the given fold numbers.
    """
    plan = make_folds(corpus, k, seed)
    docs = {doc.id: doc for doc in corpus}
    per_doc = {}
    for doc in corpus:
        instances, _ = labeled_instances(doc, max_crossings)
        per_doc[doc.id] = (instances, [extract(inst.pair, doc, feature_cfg) for inst in instances])

    folds = []
    for f in range(plan.k) if only is None else only:
        test_ids = set(plan.folds[f])
        train_vectors, train_labels, test_vectors, test_instances = [], [], [], []
        for doc in corpus:
            instances, vectors = per_doc[doc.id]
            if doc.id in test_ids:
                test_vectors.extend(vectors)
                test_instances.extend(instances)
            else:
                train_vectors.extend(vectors)
                train_labels.extend(inst.label.value for inst in instances)
        index = build_index(train_vectors)
        folds.append(
            FoldData(
                index_keys=len(index),
                x_train=vectorize(train_vectors, index),
                train_labels=tuple(train_labels),
                x_test=vectorize(test_vectors, index),
                test_instances=tuple(test_instances),
                test_docs=tuple(docs[i] for i in plan.folds[f]),
            )
        )
    return folds

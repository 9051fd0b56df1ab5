"""Independent reference solvers used by several test modules."""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from clinrel.cli import main
from clinrel.corpus import load_corpus
from clinrel.features import build_index, extract, vectorize
from clinrel.harness import FoldData, make_folds
from clinrel.learners import KernelCache, NaiveBayesModel, SvmParams, Split, load_model, ova_scores, svm_decision
from clinrel.learners.decision_tree import _MEAN_GAIN_EPS, _entropy, _entropy_cols, _numeric_candidates, _split_stats
from clinrel.learners.multiclass import _Constant
from clinrel.learners.paum import PaumModel
from clinrel.learners.svm import _BOUND_EPS, _MAX_STEPS, _STEP_EPS, log
from clinrel.pairing import labeled_instances


def _kernel_of_dots(dots, spec):
    return dots if spec.kind == "linear" else (dots + 1.0) ** spec.degree


def kernel_eval(spec, x, y) -> float:
    """Kernel value for two vectors (1-D arrays or single sparse rows)."""
    if sparse.issparse(x):
        dot = float((x @ y.T).todense()[0, 0]) if sparse.issparse(y) else float(x @ y)
    else:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        dot = float(x @ y)
    return float(_kernel_of_dots(dot, spec))


def power_kernel_matrix(spec, a, b):
    """Dense K(a_i, b_j) as ``(dots + 1.0) ** degree`` on a fresh dense product."""
    dots = np.asarray((a @ b.T).todense(), dtype=np.float64)
    return _kernel_of_dots(dots, spec)


def smo_decision(solution, queries):
    """Decision values of an untransformed SMO solution."""
    k = power_kernel_matrix(solution.kernel, queries, solution.x)
    return k @ (solution.alpha * solution.y) + solution.b


def sparse_kernel_row(spec, x, i):
    """K(x_i, x_j) for every j, as the sparse x sparse product ``x @ x[i].T``."""
    return _kernel_of_dots(np.asarray((x @ x[i].T).todense()).ravel(), spec)


def sparse_svm_decision(model, queries):
    """SVM decision values through the sparse x sparse kernel ``queries @ support.T``."""
    if model.coef.size == 0:
        return np.full(queries.shape[0], model.intercept)
    dots = np.asarray((queries @ model.support.T).todense(), dtype=np.float64)
    return _kernel_of_dots(dots, model.kernel) @ model.coef + model.intercept


def _binarized(x):
    out = x.copy()
    out.data = (out.data > 0).astype(np.float64)
    return out


def onehot_nb_train(x, labels):
    """NB from a binarized copy of x and a dense one-hot x sparse product of the class rows."""
    m = x.shape[0]
    classes = tuple(sorted(set(labels)))
    class_index = {c: i for i, c in enumerate(classes)}
    rows = np.array([class_index[label] for label in labels], dtype=np.intp)
    onehot = np.zeros((len(classes), m), dtype=np.float64)
    onehot[rows, np.arange(m)] = 1.0
    class_counts = onehot.sum(axis=1)
    present_counts = np.asarray(onehot @ _binarized(x))
    p_present = (present_counts + 1.0) / (class_counts[:, None] + 2.0)
    return NaiveBayesModel(classes, np.log(class_counts / m), np.log(p_present), np.log1p(-p_present))


def per_class_nb_train(x, y):
    """One binary NB model as each class trained on its own, labelled "+1"/"-1"."""
    return onehot_nb_train(x, ["+1" if v > 0 else "-1" for v in y])


def per_class_nb_margin(model, x):
    """One binary NB model's "+1" minus "-1" score, with its own binarized copy of x."""
    scores = model.log_priors[None, :] + np.asarray(_binarized(x) @ model.log_p_present.T)
    return scores[:, model.classes.index("+1")] - scores[:, model.classes.index("-1")]


def per_class_nb_ova(x, labels, classes):
    """NB one-vs-all class models, each fitted on its own; one-sided classes are constants."""
    labels = np.array(labels)
    models = []
    for cls in classes:
        y = np.where(labels == cls, 1.0, -1.0)
        if not np.any(y > 0):
            models.append(_Constant(-1.0))
        elif np.all(y > 0):
            models.append(_Constant(1.0))
        else:
            models.append(per_class_nb_train(x, y))
    return models


def per_class_nb_scores(models, queries):
    """NB one-vs-all scores with a binarized copy of the queries and a product per class."""
    return np.column_stack([
        np.full(queries.shape[0], m.score) if isinstance(m, _Constant) else per_class_nb_margin(m, queries)
        for m in models
    ])


def per_class_svm_scores(ova, queries):
    """SVM one-vs-all scores with one dense query block and kernel product per class model."""
    return np.column_stack([
        np.full(queries.shape[0], m.score) if isinstance(m, _Constant) else svm_decision(m, queries)
        for m in ova.models
    ])


def row_paum_train(x, y, hp):
    """PAUM training that scores every row on its own, in input order."""
    m, n = x.shape
    y = np.asarray(y, dtype=np.float64)
    row_norms_sq = np.asarray(x.multiply(x).sum(axis=1)).ravel()
    r_sq = float(row_norms_sq.max()) if m else 0.0

    w = np.zeros(n, dtype=np.float64)
    b = 0.0
    w_aug = 0.0
    taus = {1.0: hp.tau_pos, -1.0: hp.tau_neg}

    indptr, indices, data = x.indptr, x.indices, x.data
    rows = [(indices[indptr[i]: indptr[i + 1]], data[indptr[i]: indptr[i + 1]]) for i in range(m)]

    converged = False
    epochs = 0
    for _ in range(hp.max_epochs):
        epochs += 1
        updated = False
        for i in range(m):
            idx, vals = rows[i]
            score = float(vals @ w[idx]) + w_aug * hp.opt_b + b
            if y[i] * score <= taus[y[i]]:
                step = hp.eta * y[i]
                w[idx] += step * vals
                w_aug += step * hp.opt_b
                b += step * r_sq
                updated = True
        if not updated:
            converged = True
            break
    return PaumModel(w, b, w_aug, hp.opt_b, converged, epochs)


def loop_vectorize(vectors, index):
    """Row-per-instance CSR matrix, one ``index.column`` call per key."""
    data = []
    indices = []
    indptr = [0]
    for vec in vectors:
        cols = []
        for key, value in vec.items():
            col = index.column(key)
            if col is not None:
                cols.append((col, value))
        cols.sort()
        indices.extend(c for c, _ in cols)
        data.extend(v for _, v in cols)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int32), np.asarray(indptr, dtype=np.int32)),
        shape=(len(vectors), len(index)),
    )


def _knn_squared_distances(model, queries):
    train_sq = np.asarray(model.x.multiply(model.x).sum(axis=1)).ravel()
    query_sq = np.asarray(queries.multiply(queries).sum(axis=1)).ravel()
    cross = np.asarray((queries @ model.x.T).todense())
    d2 = query_sq[:, None] + train_sq[None, :] - 2.0 * cross
    np.maximum(d2, 0.0, out=d2)
    return d2


def _knn_label_shares(model, d2_row):
    m = d2_row.shape[0]
    k = min(model.k, m)
    kth = np.partition(d2_row, k - 1)[k - 1]
    neighbor_idx = np.flatnonzero(d2_row <= kth)

    zero_idx = neighbor_idx[d2_row[neighbor_idx] == 0.0]
    votes = {}
    if zero_idx.size:
        for i in zero_idx:
            votes[model.labels[i]] = votes.get(model.labels[i], 0.0) + 1.0
    else:
        weights = {}
        for i in neighbor_idx:
            weights.setdefault(model.labels[i], []).append(1.0 / d2_row[i])
        votes = {label: float(np.sum(np.sort(w))) for label, w in weights.items()}

    total = sum(sorted(votes.values()))
    shares = {label: v / total for label, v in votes.items()}
    top = max(shares.values())
    winner = min(label for label, s in shares.items() if s == top)
    return winner, shares


def per_query_knn_classify(model, queries):
    """kNN labels from a full distance matrix and one dict of votes per query."""
    d2 = _knn_squared_distances(model, queries)
    return [_knn_label_shares(model, d2[i])[0] for i in range(d2.shape[0])]


def per_query_knn_score(model, queries):
    """One binary kNN model's signed +1 share, one query at a time."""
    d2 = _knn_squared_distances(model, queries)
    out = np.empty(d2.shape[0], dtype=np.float64)
    for i in range(d2.shape[0]):
        _, shares = _knn_label_shares(model, d2[i])
        out[i] = shares.get("+1", 0.0) - shares.get("-1", 0.0)
    return out


def per_class_ova_scores(ova, queries):
    """kNN one-vs-all scores with a distance pass and neighbor search per class."""
    return np.column_stack([
        np.full(queries.shape[0], m.score) if hasattr(m, "score") else per_query_knn_score(m, queries)
        for m in ova.models
    ])


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
                x_train=vectorize(train_vectors, index),
                train_labels=tuple(train_labels),
                x_test=vectorize(test_vectors, index),
                test_instances=tuple(test_instances),
                test_docs=tuple(docs[i] for i in plan.folds[f]),
            )
        )
    return folds


def heldout_ova_scores(model_path, tmp_path):
    """A saved model's one-vs-all scores on the 20-document seed-7 held-out corpus."""
    heldout = tmp_path / "heldout.jsonl"
    assert main(["generate", "--docs", "20", "--seed", "7", "--out", str(heldout)]) == 0
    model = load_model(model_path)
    vectors = []
    for doc in load_corpus(heldout):
        instances, _ = labeled_instances(doc, model.max_crossings)
        vectors.extend(extract(inst.pair, doc, model.feature_config) for inst in instances)
    return ova_scores(model.ova, vectorize(vectors, model.index))


def heldout_prediction(model_path, tmp_path):
    """The bytes ``clinrel predict`` writes for the 20-document seed-7 held-out corpus."""
    heldout = tmp_path / "heldout.jsonl"
    predicted = tmp_path / "predicted.jsonl"
    assert main(["generate", "--docs", "20", "--seed", "7", "--out", str(heldout)]) == 0
    assert main(["predict", "--corpus", str(heldout), "--model", str(model_path), "--out", str(predicted)]) == 0
    return predicted.read_bytes()


@dataclass(frozen=True)
class _Candidate:
    attribute: int
    threshold: float
    gain: float
    split_info: float
    n_low: int
    n_high: int


def list_numeric_candidate(
    values: np.ndarray, y: np.ndarray, n_classes: int, attribute: int
) -> _Candidate | None:
    """Best-gain midpoint split of one attribute; ties take the smaller threshold."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    labels = y[order]
    m = v.shape[0]
    onehot = np.zeros((m, n_classes))
    onehot[np.arange(m), labels] = 1.0
    cum = onehot.cumsum(axis=0)
    total = cum[-1]

    best: _Candidate | None = None
    for p in range(1, m):
        if v[p] == v[p - 1]:
            continue
        low = cum[p - 1]
        gain, split_info = _split_stats(low, total - low)
        if best is None or gain > best.gain:
            best = _Candidate(
                attribute,
                (v[p - 1] + v[p]) / 2.0,
                gain,
                split_info,
                int(p),
                int(m - p),
            )
    return best


def c45_gain_ratio(x: sparse.csr_matrix, labels, attribute: int) -> tuple[float, float, float | None]:
    """(gain, split_info, ratio) of the attribute's best midpoint split, as C4.5's split search scores it.

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


def list_choose_split(self, rows: np.ndarray, counts: np.ndarray) -> tuple[int, float] | None:
    """The C4.5 split choice with one Python candidate object per attribute.

    ``self`` is a ``decision_tree._Builder``; the body is the builder method
    the array version replaced.
    """
    candidates = list_binary_candidates(self, rows, counts)
    y_rows = self.y[rows]
    for attribute in self.numeric_cols:
        values = self._column_values(rows, attribute)
        cand = list_numeric_candidate(values, y_rows, len(self.classes), int(attribute))
        if cand is not None:
            candidates.append(cand)
    valid = [
        c
        for c in candidates
        if c.n_low >= self.hp.min_cases and c.n_high >= self.hp.min_cases
    ]
    if not valid:
        return None
    valid.sort(key=lambda c: (c.attribute, c.threshold))
    positive = [c for c in valid if c.gain > 0.0]
    if positive:
        mean_gain = sum(c.gain for c in positive) / len(positive)
        admissible = [c for c in positive if c.gain >= mean_gain - _MEAN_GAIN_EPS]
        best = admissible[0]
        for c in admissible[1:]:
            ratio = c.gain / c.split_info
            best_ratio = best.gain / best.split_info
            if ratio > best_ratio:
                best = c
        return best.attribute, best.threshold
    # impure node, no informative split: fall back to the first workable
    # one so consistent data still separates
    first = valid[0]
    return first.attribute, first.threshold


def list_binary_candidates(self, rows: np.ndarray, counts: np.ndarray) -> list[_Candidate]:
    sub = self.x[rows]
    repeated = np.repeat(self.y[rows], np.diff(sub.indptr))
    n_classes = len(self.classes)
    present = np.zeros((n_classes, self.n_cols))
    for c in range(n_classes):
        cols = sub.indices[repeated == c]
        if cols.size:
            present[c] = np.bincount(cols, minlength=self.n_cols)
    low = counts[:, None] - present
    n_high = present.sum(axis=0)
    n_low = rows.shape[0] - n_high

    info = _entropy(counts)
    m = float(rows.shape[0])
    after = (n_low / m) * _entropy_cols(low) + (n_high / m) * _entropy_cols(present)
    gains = info - after
    frac_low = n_low / m
    frac_high = n_high / m
    split_info = -(
        frac_low * np.log2(np.where(frac_low > 0, frac_low, 1.0))
        + frac_high * np.log2(np.where(frac_high > 0, frac_high, 1.0))
    )
    usable = self.binary_mask & (n_high > 0) & (n_low > 0)
    return [
        _Candidate(int(j), 0.5, float(gains[j]), float(split_info[j]), int(n_low[j]), int(n_high[j]))
        for j in np.flatnonzero(usable)
    ]


def _descend(node, features: dict[int, float]):
    while isinstance(node, Split):
        node = node.low if features.get(node.attribute, 0.0) <= node.threshold else node.high
    return node


def _row_features(x: sparse.csr_matrix, i: int) -> dict[int, float]:
    start, end = x.indptr[i], x.indptr[i + 1]
    return dict(zip(x.indices[start:end].tolist(), x.data[start:end].tolist()))


def per_row_c45_classify(tree, x: sparse.csr_matrix) -> list[str]:
    """C4.5 labels from one dict of stored values and one tree walk per row."""
    return [_descend(tree.root, _row_features(x, i)).label for i in range(x.shape[0])]


def per_row_c45_score(tree, x: sparse.csr_matrix) -> np.ndarray:
    """Signed Laplace leaf confidence, one tree walk per row."""
    out = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        leaf = _descend(tree.root, _row_features(x, i))
        confidence = (leaf.n - leaf.errors + 1.0) / (leaf.n + 2.0)
        out[i] = confidence if leaf.label == "+1" else -confidence
    return out


# The SMO solver as it was before its loop moved to Python floats: every
# multiplier, error and kernel entry is a numpy scalar, and the free set is
# recomputed from the multipliers at each use.  Kept unchanged as the
# reference the float-scalar solver must match bit for bit.


def _rolled(order: np.ndarray, start: int) -> np.ndarray:
    """The index array rotated so scanning begins at the first entry >= start."""
    cut = int(np.searchsorted(order, start))
    return np.concatenate((order[cut:], order[:cut]))


class _NumpyScalarSmo:
    def __init__(self, x, y, c, kernel, tol, cache):
        self.x = x
        self.y = y
        self.c = c
        self.tol = tol
        self.cache = cache or KernelCache(x, kernel, SvmParams().cache_mb)
        self.m = x.shape[0]
        self.alpha = np.zeros(self.m)
        self.b = 0.0
        self.errors = -y.astype(np.float64)
        self.steps = 0

    def take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        a1, a2 = self.alpha[i1], self.alpha[i2]
        y1, y2 = self.y[i1], self.y[i2]
        e1, e2 = self.errors[i1], self.errors[i2]
        s = y1 * y2
        if s < 0:
            low = max(0.0, a2 - a1)
            high = min(self.c, self.c + a2 - a1)
        else:
            low = max(0.0, a2 + a1 - self.c)
            high = min(self.c, a2 + a1)
        if low == high:
            return False

        k11 = self.cache.diagonal[i1]
        k22 = self.cache.diagonal[i2]
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
        a1_new = min(max(a1_new, 0.0), self.c)
        d1 = y1 * (a1_new - a1)
        d2 = y2 * (a2_new - a2)
        b1 = self.b - e1 - d1 * k11 - d2 * k12
        b2 = self.b - e2 - d1 * k12 - d2 * k22
        if 0.0 < a1_new < self.c:
            b_new = b1
        elif 0.0 < a2_new < self.c:
            b_new = b2
        else:
            b_new = (b1 + b2) / 2.0
        self.errors += d1 * row1 + d2 * row2 + (b_new - self.b)
        self.alpha[i1] = a1_new
        self.alpha[i2] = a2_new
        self.b = b_new
        self.steps += 1
        return True

    def examine(self, i2: int) -> int:
        y2 = self.y[i2]
        a2 = self.alpha[i2]
        e2 = self.errors[i2]
        r2 = e2 * y2
        if not ((r2 < -self.tol and a2 < self.c) or (r2 > self.tol and a2 > 0.0)):
            return 0
        non_bound = np.flatnonzero((self.alpha > 0.0) & (self.alpha < self.c))
        if non_bound.size > 1:
            gaps = np.abs(self.errors[non_bound] - e2)
            i1 = int(non_bound[int(np.argmax(gaps))])
            if self.take_step(i1, i2):
                return 1
        start = (i2 + 1) % self.m
        for i1 in _rolled(non_bound, start):
            if self.take_step(int(i1), i2):
                return 1
        for i1 in _rolled(np.arange(self.m), start):
            if self.take_step(int(i1), i2):
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
                for i in np.flatnonzero((self.alpha > 0.0) & (self.alpha < self.c)):
                    num_changed += self.examine(int(i))
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


def numpy_scalar_smo(x, y, c, kernel, tol, cache=None):
    """The reference solver run to its end; read ``alpha``, ``errors``, ``b`` and ``steps``."""
    solver = _NumpyScalarSmo(x, np.asarray(y, dtype=np.float64), c, kernel, tol, cache)
    solver.converged = solver.solve()
    return solver

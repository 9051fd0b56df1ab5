"""Independent reference solvers used by several test modules."""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from clinrel.cli import main
from clinrel.corpus import load_corpus
from clinrel.features import _mention_features, _span_bounds, build_index, dependency_path, vectorize
from clinrel.harness import FoldData, make_folds
from clinrel.learners import NaiveBayesModel, Split, load_model, ova_scores, svm, svm_decision
from clinrel.learners.decision_tree import _MEAN_GAIN_EPS, _entropy, _entropy_cols, _numeric_candidates, _split_stats
from clinrel.learners.multiclass import _Constant
from clinrel.learners.paum import PaumModel
from clinrel.learners.svm import _TAU, KernelCache, _Smo, _transform
from clinrel.pairing import labeled_instances
from clinrel.preprocess import generalize_pos
from clinrel.schema import RELATION_TYPES


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


def pair_extract(pair, doc, cfg):
    """Feature vector for one candidate pair, every key rendered afresh: the reference for ``extract``."""
    m1 = doc.entity(pair.arg1)
    m2 = doc.entity(pair.arg2)
    out = {}

    if "tokN" in cfg.sets or "gentokN" in cfg.sets:
        _pair_window_features(out, doc, m1, m2, cfg)
    if "atype" in cfg.sets:
        out[f"atype={m1.etype.value}-{m2.etype.value}"] = 1.0
    if "dir" in cfg.sets:
        out["dir=fwd" if m1.first_token < m2.first_token else "dir=bwd"] = 1.0
    for set_name in ("str", "pos", "root", "genpos"):
        if set_name in cfg.sets:
            _pair_structure_features(out, doc, m1, m2, set_name)
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


def _pair_window_features(out, doc, m1, m2, cfg):
    n_tokens = len(doc.tokens)
    for arg_no, mention, other in ((1, m1, m2), (2, m2, m1)):
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


_PAIR_VALUE_OF = {
    "str": lambda tok: tok.surface,
    "pos": lambda tok: tok.pos,
    "root": lambda tok: tok.root,
    "genpos": lambda tok: generalize_pos(tok.pos),
}


def _pair_structure_features(out, doc, m1, m2, set_name):
    value = _PAIR_VALUE_OF[set_name]
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


def loop_vectorize(vectors, index):
    """Row-per-instance CSR matrix, one ``index`` lookup per key."""
    data = []
    indices = []
    indptr = [0]
    for vec in vectors:
        cols = []
        for key, value in vec.items():
            col = index.get(key)
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
    return {label: v / total for label, v in votes.items()}


def per_query_knn_score(model, queries):
    """One binary kNN model's signed +1 share, one query at a time."""
    d2 = _knn_squared_distances(model, queries)
    out = np.empty(d2.shape[0], dtype=np.float64)
    for i in range(d2.shape[0]):
        shares = _knn_label_shares(model, d2[i])
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


def dense_kernel_row(cache, i):
    """Row i of ``cache``'s kernel as the sparse x dense product ``x @ x[i].toarray().ravel()``."""
    return _transform(cache.x @ cache.x[i].toarray().ravel(), cache.spec)


class FullScanSmo(_Smo):
    """SMO that scores every index of the problem to pick j, with rows from ``dense_kernel_row``.

    Rows are memoized per solve, so long problems compute each row once.  It
    stops at ``svm._MAX_STEPS`` as read when it runs, and sets a multiplier
    within ``svm._ROUNDING * C`` of a bound to that bound, as ``_Smo`` does.
    """

    def solve(self) -> bool:
        c, y, alpha, errors = self.c, self.y, self.alpha, self.errors
        diagonal = self.cache.diagonal
        rows = {}

        def row(t):
            if t not in rows:
                rows[t] = dense_kernel_row(self.cache, t)
            return rows[t]

        pos = y > 0
        up = np.where(pos, alpha < c, alpha > 0.0)
        low = np.where(pos, alpha > 0.0, alpha < c)
        near = svm._ROUNDING * c
        while True:
            i = np.where(up, errors, np.inf).argmin().item()
            gap = np.where(low, errors - errors[i], -np.inf)
            if gap.max() < 2.0 * self.tol:
                return True
            if self.steps >= svm._MAX_STEPS:
                return False
            row_i = row(i)
            eta = diagonal + diagonal[i] - 2.0 * row_i
            eta[eta <= 0.0] = _TAU
            j = np.where(gap > 0.0, gap * gap / eta, 0.0).argmax().item()
            row_j = row(j)
            room_i = c - alpha[i] if pos[i] else alpha[i]
            room_j = alpha[j] if pos[j] else c - alpha[j]
            lam = min(gap[j] / eta[j], room_i, room_j)
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


def full_scan_smo(x, y, c, spec, tol):
    """The ``FullScanSmo`` solver of one problem after solving, and whether it converged.

    It reads only the canonical x and the diagonal of its cache, whose zero
    budget keeps it from building a Gram matrix.
    """
    cache = KernelCache(x, spec, cache_mb=0.0)
    solver = FullScanSmo(x, np.asarray(y, dtype=np.float64), c, spec, tol, cache)
    return solver, solver.solve()


def assert_same_csr(a, b):
    """Equal shapes, and equal ``data``/``indices``/``indptr`` arrays and dtypes."""
    assert a.shape == b.shape
    for part in ("data", "indices", "indptr"):
        assert getattr(a, part).dtype == getattr(b, part).dtype, part
        assert np.array_equal(getattr(a, part), getattr(b, part)), part
    assert a.has_sorted_indices == b.has_sorted_indices


def labeled_counts(corpus, max_crossings):
    """Non-null labeled instances per relation type, each document paired on its own."""
    counts = {rtype: 0 for rtype in RELATION_TYPES}
    for doc in corpus:
        instances, _ = labeled_instances(doc, max_crossings)
        for inst in instances:
            if not inst.label.is_null:
                counts[inst.label] += 1
    return counts


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
        per_doc[doc.id] = (instances, [pair_extract(inst.pair, doc, feature_cfg) for inst in instances])

    folds = []
    for f in range(len(plan)) if only is None else only:
        test_ids = set(plan[f])
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
                test_docs=tuple(docs[i] for i in plan[f]),
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
        vectors.extend(pair_extract(inst.pair, doc, model.feature_config) for inst in instances)
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


def per_row_c45_score(tree, x: sparse.csr_matrix) -> np.ndarray:
    """Signed Laplace leaf confidence, one tree walk per row."""
    out = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        leaf = _descend(tree.root, _row_features(x, i))
        confidence = (leaf.n - leaf.errors + 1.0) / (leaf.n + 2.0)
        out[i] = confidence if leaf.label == "+1" else -confidence
    return out


def kkt_problems(solution, c: float, tol: float) -> list[str]:
    """What an SVM dual solution violates, checked apart from the solver; empty when nothing.

    The gradient is recomputed from the multipliers and a fresh kernel
    product (``power_kernel_matrix`` against the support rows), never read
    from the solver's errors.  ``g_t = y_t - sum_s alpha_s y_s K(s, t)`` is
    ``-y_t`` times the dual gradient; over I_up (alpha < C on positives,
    alpha > 0 on negatives) its maximum is ``m``, over I_low (alpha > 0 on
    positives, alpha < C on negatives) its minimum is ``M``.  The checks:
    every multiplier in [0, C]; ``sum y * alpha`` zero up to the rounding of
    the steps that moved it; the maximal violating pair ``m - M`` within
    ``2 * tol``; the intercept between ``M`` and ``m``.  The last two allow
    for the rounding by which the solver's running gradient drifts from the
    recomputed one.
    """
    x, y, alpha, b = solution.x, solution.y, solution.alpha, solution.b
    sv = np.flatnonzero(alpha > 0.0)
    g = y - power_kernel_matrix(solution.kernel, x, x[sv]) @ (alpha[sv] * y[sv])
    eps = np.finfo(np.float64).eps
    drift = 1e-9 * max(1.0, float(np.abs(g).max()))
    problems = []
    if not np.all((alpha >= 0.0) & (alpha <= c)):
        problems.append("a multiplier lies outside [0, C]")
    # each step moves two multipliers by one rounded amount, at most an ulp of C off
    balance = abs(float(y @ alpha))
    if balance > (4 * solution.steps + alpha.size) * eps * c:
        problems.append(f"sum y * alpha is {balance!r}")
    pos = y > 0
    up = np.where(pos, alpha < c, alpha > 0.0)
    low = np.where(pos, alpha > 0.0, alpha < c)
    m, big_m = g[up].max(), g[low].min()
    if m - big_m > 2.0 * tol + drift:
        problems.append(f"maximal violating pair gap {m - big_m!r} exceeds 2 * tol")
    if not min(m, big_m) - drift <= b <= max(m, big_m) + drift:
        problems.append(f"intercept {b!r} lies outside [{big_m!r}, {m!r}]")
    return problems

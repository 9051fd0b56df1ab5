"""One-vs-all reduction from multi-class labels to binary scorers.

One binary problem per target class (that class against everything else,
including the null label).  Prediction takes the best-scoring class among
those with a positive score, falling back to the null label when no score is
positive.  Ties go to the lexicographically smallest class.  ``LEARNERS``
holds all that depends on the algorithm name, one record per algorithm.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from .decision_tree import c45_build, c45_from_obj, c45_score, c45_to_obj
from .knn import knn_from_obj, knn_score, knn_to_obj, knn_train
from .naive_bayes import nb_fit_classes, nb_from_obj, nb_margins, nb_to_obj
from .naive_bayes import nb_scores, nb_train  # noqa: F401  (unused here; perfbench traces these names)
from .params import KernelSpec, KnnParams, NbParams, Params, PaumParams, SvmParams, TreeParams
from .paum import paum_decision, paum_from_obj, paum_rows, paum_to_obj, paum_train
from .svm import (
    KernelCache,
    SupportStack,
    _transform,
    apply_uneven_margin,
    gram_budget,
    smo_train,
    stack_supports,
    stacked_svm_decisions,
    svm_decision,
    svm_from_obj,
    svm_to_obj,
)

log = logging.getLogger(__name__)

NULL_LABEL = "null"


@dataclass(frozen=True)
class _Constant:
    """Degenerate binary scorer for one-sided problems."""

    score: float


@dataclass(frozen=True, eq=False)
class FoldDots:
    """One fold's rows in the dot-product matrix X·Xᵀ that the folds of a plan share.

    ``train`` and ``test`` are the fold's training and test rows as rows of
    ``dots``, in the order of its matrices; ``queries`` is its test matrix,
    the one query matrix the (test x train) block stands for.  Each entry
    sums, from +0.0 in ascending column order, the products over the columns
    both rows store, as a sparse product of the fold's own matrices does.
    """

    dots: np.ndarray
    train: np.ndarray
    test: np.ndarray
    queries: sparse.csr_matrix

    def gram(self, spec: KernelSpec, cache_mb: float) -> np.ndarray | None:
        """The training rows' Gram matrix, or None unless it fits ``cache_mb`` beside ``dots``.

        Within that budget the fold's own ``KernelCache`` would also hold
        its full Gram matrix, so no fold moves between the full and the LRU
        path.
        """
        if self.dots.size + self.train.size**2 > gram_budget(cache_mb):
            return None
        return _transform(self.dots[np.ix_(self.train, self.train)], spec)

    def cross(self, queries: sparse.csr_matrix) -> np.ndarray | None:
        """(queries x training rows) dot products when ``queries`` is the fold's test matrix, else None."""
        return self.dots[np.ix_(self.test, self.train)] if queries is self.queries else None


@dataclass(frozen=True)
class OvaModel:
    """``dots``, when set, is the fold's ``FoldDots`` that its scorers may cut from; it is never saved."""

    algorithm: str
    classes: tuple[str, ...]
    models: tuple[object, ...]
    params: Params
    n_features: int
    dots: FoldDots | None = None

    @cached_property
    def fitted(self) -> tuple[int, ...]:
        """The columns whose class model was trained: every class that is not one-sided."""
        return tuple(j for j, m in enumerate(self.models) if not isinstance(m, _Constant))

    @cached_property
    def svm_stacks(self) -> tuple[tuple[list[int], SupportStack], ...]:
        """The fitted class models with support vectors, grouped by kernel.

        Each group is its positions in ``fitted`` and its stacked supports.
        Built on first use and kept with the model, so a model that scores one
        document at a time stacks its supports once.
        """
        models = _fitted_models(self)
        groups: dict[KernelSpec, list[int]] = {}
        for i, m in enumerate(models):
            if m.coef.size:
                groups.setdefault(m.kernel, []).append(i)
        return tuple((cols, stack_supports([models[i] for i in cols])) for cols in groups.values())


def _fitted_models(model: OvaModel) -> list:
    """The class models in columns ``model.fitted``, in order."""
    return [model.models[j] for j in model.fitted]


def _signs(y: np.ndarray) -> list[str]:
    """The +1/-1 labels as the "+1"/"-1" strings that c45 and knn store in their models."""
    return ["+1" if v > 0 else "-1" for v in y]


def _each(score_one: Callable) -> Callable[[OvaModel, sparse.csr_matrix], np.ndarray]:
    """A one-vs-all scorer that scores each fitted class model on its own with ``score_one``."""
    return lambda model, x: np.column_stack([score_one(m, x) for m in _fitted_models(model)])


def _cross(model: OvaModel, x: sparse.csr_matrix) -> np.ndarray | None:
    """The (x x training rows) dot products cut from the model's fold, or None."""
    return None if model.dots is None else model.dots.cross(x)


def _knn_scores(model: OvaModel, x: sparse.csr_matrix) -> np.ndarray:
    """Every fitted kNN class's scores from one neighbor search over the shared training rows."""
    models = _fitted_models(model)
    first = models[0]
    if any(m.x is not first.x or m.k != first.k for m in models):
        raise ValueError("kNN class models must share one training matrix and k")
    return knn_score(first, x, np.column_stack([np.asarray(m.labels) == "+1" for m in models]), _cross(model, x))


def _svm_scores(model: OvaModel, x: sparse.csr_matrix) -> np.ndarray:
    """Every fitted SVM class's decision values from one kernel block.

    A fold's model cuts the block from its ``FoldDots`` and reads each
    class's support columns through the model's ``rows``; any other model
    or query matrix stacks the distinct supports of each kernel.
    """
    models = _fitted_models(model)
    scores = np.empty((x.shape[0], len(models)))
    cross = _cross(model, x)
    if cross is None:
        for cols, stack in model.svm_stacks:
            scores[:, cols] = stacked_svm_decisions([models[i] for i in cols], stack, x)
    else:
        k = _transform(cross, model.params.kernel)
        for i, m in enumerate(models):
            # a C-ordered (queries x supports) matrix, as ``svm_decision`` gives BLAS: a column cut is
            # not C-ordered, and another BLAS path changes the last bits of the scores
            if m.coef.size:
                scores[:, i] = np.ascontiguousarray(k[:, m.rows]) @ m.coef + m.intercept
    for i, m in enumerate(models):
        if not m.coef.size:
            scores[:, i] = svm_decision(m, x)
    return scores


def _c45_fit(x: sparse.csr_matrix, ys: Sequence[np.ndarray], p: TreeParams, dots) -> list:
    xcsc = x.tocsc()
    return [c45_build(x, _signs(y), p, xcsc=xcsc) for y in ys]


def _paum_fit(x: sparse.csr_matrix, ys: Sequence[np.ndarray], p: PaumParams, dots) -> list:
    rows = paum_rows(x)
    return [paum_train(x, y, p, rows) for y in ys]


def _svm_fit(x: sparse.csr_matrix, ys: Sequence[np.ndarray], p: SvmParams, dots: FoldDots | None) -> list:
    cache = KernelCache(x, p.kernel, p.cache_mb, gram=None if dots is None else dots.gram(p.kernel, p.cache_mb))
    return [apply_uneven_margin(smo_train(x, y, p.c, p.kernel, p.tol, cache), p.tau) for y in ys]


@dataclass(frozen=True)
class Learner:
    """Everything one algorithm name stands for.

    ``label`` heads its report column; the fields of ``params`` are its CLI
    flags and stored hyperparameters.  ``fit(x, ys, params, dots)`` trains
    every fitted class of one ``ova_train`` call: ``ys`` holds one vector in
    {+1, -1} per class, each with both signs present, and ``dots`` is the
    fold's ``FoldDots`` or None.  It returns their models in that order, each
    the model its class gets when fitted alone: the set-up a fit shares (a
    CSC copy, row blocks, a kernel cache) depends on ``x`` only, and NB's one
    count product gives each class its own exact integer column.
    ``score(model, x)`` returns the scores of the fitted class models of an
    ``OvaModel``, an (n x ``len(model.fitted)``) matrix.  One-sided classes
    are constants that ``ova_train`` and ``ova_scores`` handle themselves.
    Both look learner functions up in this module when called, so a name
    patched here (a benchmark span, a test's recorder) sees every call.
    ``to_obj(model)`` and ``from_obj(obj, n_features)`` are the model file's
    codec of a class model.  ``reads_dots`` marks a learner whose fit or
    scores cut from a fold's ``FoldDots``; cross-validation builds the shared
    matrix only for such a learner.
    """

    label: str
    params: type
    fit: Callable[[sparse.csr_matrix, Sequence[np.ndarray], Params, FoldDots | None], list]
    score: Callable[[OvaModel, sparse.csr_matrix], np.ndarray]
    to_obj: Callable[[object], dict]
    from_obj: Callable[[dict, int], object]
    reads_dots: bool = False


LEARNERS: dict[str, Learner] = {
    "nb": Learner(
        "Naive Bayes", NbParams, fit=lambda x, ys, p, dots: nb_fit_classes(x, [y > 0 for y in ys]),
        score=lambda model, x: nb_margins(_fitted_models(model), x), to_obj=nb_to_obj, from_obj=nb_from_obj,
    ),
    "c45": Learner(
        "C4.5", TreeParams, fit=_c45_fit, score=_each(lambda m, x: c45_score(m, x)),
        to_obj=c45_to_obj, from_obj=c45_from_obj,
    ),
    "knn": Learner(
        "KNN", KnnParams, fit=lambda x, ys, p, dots: [knn_train(x, _signs(y), p.k) for y in ys],
        score=_knn_scores, to_obj=knn_to_obj, from_obj=knn_from_obj, reads_dots=True,
    ),
    "paum": Learner(
        "PAUM", PaumParams, fit=_paum_fit, score=_each(lambda m, x: paum_decision(m, x)),
        to_obj=paum_to_obj, from_obj=paum_from_obj,
    ),
    "svm": Learner(
        "SVM UM", SvmParams, fit=_svm_fit, score=_svm_scores, to_obj=svm_to_obj, from_obj=svm_from_obj,
        reads_dots=True,
    ),
}


def _learner(algorithm: str) -> Learner:
    try:
        return LEARNERS[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}") from None


def params_for(algorithm: str, **overrides) -> Params:
    """Default hyperparameters for an algorithm name, with overrides applied."""
    return _learner(algorithm).params(**overrides)


def ova_train(
    x: sparse.csr_matrix,
    labels: Sequence[str],
    algorithm: str,
    params: Params | None = None,
    classes: Sequence[str] | None = None,
    *,
    dots: FoldDots | None = None,
) -> OvaModel:
    """Train one binary model per non-null class.

    A class with no positive instances gets a constant-negative scorer so the
    model shape is stable across folds.  ``dots``, the ``FoldDots`` of the
    fold whose training matrix ``x`` is, goes to the learner's fit and stays
    with the model for its scorers.
    """
    learner = _learner(algorithm)
    if params is None:
        params = learner.params()
    labels = list(labels)
    if classes is None:
        classes = sorted(set(labels) - {NULL_LABEL})
    classes = tuple(classes)

    label_arr = np.array(labels)
    models: list = []
    ys = []
    for cls in classes:
        y = np.where(label_arr == cls, 1.0, -1.0)
        if not np.any(y > 0):
            log.warning("class %s has no positive training instances; using a constant-negative model", cls)
            models.append(_Constant(-1.0))
        elif np.all(y > 0):
            models.append(_Constant(1.0))
        else:
            models.append(None)
            ys.append(y)
    if ys:
        fitted = iter(learner.fit(x, ys, params, dots))
        models = [next(fitted) if m is None else m for m in models]
    return OvaModel(algorithm, classes, tuple(models), params, x.shape[1], dots)


def ova_scores(model: OvaModel, x: sparse.csr_matrix) -> np.ndarray:
    """(instances x classes) decision-score matrix: a one-sided class scores its constant."""
    if x.shape[1] != model.n_features:
        raise ValueError("feature width does not match the model")
    scores = np.empty((x.shape[0], len(model.models)))
    for j, m in enumerate(model.models):
        if isinstance(m, _Constant):
            scores[:, j] = m.score
    if model.fitted:
        scores[:, model.fitted] = _learner(model.algorithm).score(model, x)
    return scores


def ova_classify(model: OvaModel, x: sparse.csr_matrix) -> list[str]:
    scores = ova_scores(model, x)
    if scores.shape[1] == 0:
        return [NULL_LABEL] * scores.shape[0]
    best = scores.argmax(axis=1)
    positive = scores[np.arange(scores.shape[0]), best] > 0.0
    labels = np.array(model.classes + (NULL_LABEL,), dtype=object)
    return labels[np.where(positive, best, len(model.classes))].tolist()

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
from .knn import KnnModel, knn_from_obj, knn_score, knn_to_obj, knn_train
from .naive_bayes import NaiveBayesModel, nb_context, nb_fit_binary, nb_from_obj, nb_margins, nb_to_obj
from .naive_bayes import nb_scores, nb_train  # noqa: F401  (unused here; perfbench traces these names)
from .params import KernelSpec, KnnParams, NbParams, Params, PaumParams, SvmParams, TreeParams
from .paum import paum_decision, paum_from_obj, paum_rows, paum_to_obj, paum_train
from .svm import (
    KernelCache,
    SupportStack,
    SvmModel,
    apply_uneven_margin,
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


@dataclass(frozen=True)
class OvaModel:
    algorithm: str
    classes: tuple[str, ...]
    models: tuple[object, ...]
    params: Params
    n_features: int
    null_label: str = NULL_LABEL

    @cached_property
    def svm_stacks(self) -> tuple[tuple[list[int], SupportStack], ...]:
        """The class models with support vectors, grouped by kernel: their columns and stacked supports.

        Built on first use and kept with the model, so a model that scores one
        document at a time stacks its supports once.
        """
        groups: dict[KernelSpec, list[int]] = {}
        for j, m in enumerate(self.models):
            if isinstance(m, SvmModel) and m.coef.size:
                groups.setdefault(m.kernel, []).append(j)
        return tuple((cols, stack_supports([self.models[j] for j in cols])) for cols in groups.values())


def _signs(y: np.ndarray) -> list[str]:
    """The +1/-1 labels as the "+1"/"-1" strings that c45 and knn store in their models."""
    return ["+1" if v > 0 else "-1" for v in y]


def _binary_scores(m, x: sparse.csr_matrix, score_one: Callable) -> np.ndarray:
    return np.full(x.shape[0], m.score) if isinstance(m, _Constant) else score_one(m, x)


def _per_class(score_one: Callable) -> Callable[[OvaModel, sparse.csr_matrix], np.ndarray]:
    """A one-vs-all scorer that scores each class model on its own with ``score_one``."""
    def score(model: OvaModel, x: sparse.csr_matrix) -> np.ndarray:
        return np.column_stack([_binary_scores(m, x, score_one) for m in model.models])
    return score


def _nb_scores(model: OvaModel, x: sparse.csr_matrix) -> np.ndarray:
    """Every NB class's margin from one binarized query matrix and one product."""
    scores = np.empty((x.shape[0], len(model.models)))
    fitted = []
    for j, m in enumerate(model.models):
        if isinstance(m, NaiveBayesModel):
            fitted.append(j)
        else:
            scores[:, j] = m.score
    if fitted:
        scores[:, fitted] = nb_margins([model.models[j] for j in fitted], x)
    return scores


def _knn_scores(model: OvaModel, x: sparse.csr_matrix) -> np.ndarray:
    """Every kNN class's scores from one neighbor search over the shared training rows."""
    models = model.models
    scores = np.empty((x.shape[0], len(models)))
    fitted = []
    for j, m in enumerate(models):
        if isinstance(m, KnnModel):
            fitted.append(j)
        else:
            scores[:, j] = m.score
    if fitted:
        first = models[fitted[0]]
        if any(models[j].x is not first.x or models[j].k != first.k for j in fitted):
            raise ValueError("kNN class models must share one training matrix and k")
        positives = np.column_stack([np.asarray(models[j].labels) == "+1" for j in fitted])
        scores[:, fitted] = knn_score(first, x, positives)
    return scores


def _svm_scores(model: OvaModel, x: sparse.csr_matrix) -> np.ndarray:
    """Every SVM class's decision values from one kernel block per kernel over the distinct supports."""
    scores = np.empty((x.shape[0], len(model.models)))
    stacked = set()
    for cols, stack in model.svm_stacks:
        scores[:, cols] = stacked_svm_decisions([model.models[j] for j in cols], stack, x)
        stacked.update(cols)
    for j, m in enumerate(model.models):
        if j not in stacked:
            scores[:, j] = _binary_scores(m, x, svm_decision)
    return scores


def _kernel_cache(x: sparse.csr_matrix, params: SvmParams, gram: np.ndarray | None) -> KernelCache:
    if gram is None:
        return KernelCache(x, params.kernel, params.cache_mb)
    return KernelCache(x, params.kernel, params.cache_mb, gram=gram)


@dataclass(frozen=True)
class Learner:
    """Everything one algorithm name stands for.

    ``label`` heads its report column; the fields of ``params`` are its CLI
    flags and stored hyperparameters.  ``context(x, params, gram)`` builds
    what one ``ova_train`` call shares across classes (``gram``: a Gram matrix
    of ``x``, or None); ``fit(x, y, params, ctx)`` trains on y in {+1, -1};
    ``score(model, x)`` scores every class of an ``OvaModel``.  They look
    learner functions up in this module when called, so a name patched here
    (a benchmark span, a test's recorder) sees every call.  ``to_obj(model)``
    and ``from_obj(obj, n_features)`` are the model file's codec of a class model.
    """

    label: str
    params: type
    fit: Callable
    score: Callable[[OvaModel, sparse.csr_matrix], np.ndarray]
    to_obj: Callable[[object], dict]
    from_obj: Callable[[dict, int], object]
    context: Callable = lambda x, p, gram: None


LEARNERS: dict[str, Learner] = {
    "nb": Learner(
        "Naive Bayes", NbParams, fit=lambda x, y, p, ctx: nb_fit_binary(ctx, y > 0), score=_nb_scores,
        to_obj=nb_to_obj, from_obj=nb_from_obj, context=lambda x, p, gram: nb_context(x),
    ),
    "c45": Learner(
        "C4.5", TreeParams, fit=lambda x, y, p, ctx: c45_build(x, _signs(y), p, xcsc=ctx),
        score=_per_class(lambda m, x: c45_score(m, x)), to_obj=c45_to_obj, from_obj=c45_from_obj,
        context=lambda x, p, gram: x.tocsc(),
    ),
    "knn": Learner(
        "KNN", KnnParams, fit=lambda x, y, p, ctx: knn_train(x, _signs(y), p.k), score=_knn_scores,
        to_obj=knn_to_obj, from_obj=knn_from_obj,
    ),
    "paum": Learner(
        "PAUM", PaumParams, fit=lambda x, y, p, ctx: paum_train(x, y, p, ctx),
        score=_per_class(lambda m, x: paum_decision(m, x)), to_obj=paum_to_obj, from_obj=paum_from_obj,
        context=lambda x, p, gram: paum_rows(x),
    ),
    "svm": Learner(
        "SVM UM", SvmParams,
        fit=lambda x, y, p, ctx: apply_uneven_margin(smo_train(x, y, p.c, p.kernel, p.tol, ctx), p.tau),
        score=_svm_scores, to_obj=svm_to_obj, from_obj=svm_from_obj, context=_kernel_cache,
    ),
}

ALGORITHMS = tuple(LEARNERS)


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
    null_label: str = NULL_LABEL,
    *,
    gram: np.ndarray | None = None,
) -> OvaModel:
    """Train one binary model per non-null class.

    A class with no positive instances gets a constant-negative scorer so the
    model shape is stable across folds.  ``gram`` is an SVM Gram matrix of
    ``x`` computed by the caller (see ``KernelCache``).
    """
    learner = _learner(algorithm)
    if params is None:
        params = learner.params()
    labels = list(labels)
    if classes is None:
        classes = sorted(set(labels) - {null_label})
    classes = tuple(classes)

    ctx = learner.context(x, params, gram) if x.shape[0] > 0 else None
    label_arr = np.array(labels)
    models = []
    for cls in classes:
        y = np.where(label_arr == cls, 1.0, -1.0)
        if not np.any(y > 0):
            log.warning("class %s has no positive training instances; using a constant-negative model", cls)
            models.append(_Constant(-1.0))
        elif np.all(y > 0):
            models.append(_Constant(1.0))
        else:
            models.append(learner.fit(x, y, params, ctx))
    return OvaModel(algorithm, classes, tuple(models), params, x.shape[1], null_label)


def ova_scores(model: OvaModel, x: sparse.csr_matrix) -> np.ndarray:
    """(instances x classes) decision-score matrix."""
    if x.shape[1] != model.n_features:
        raise ValueError("feature width does not match the model")
    if not model.classes:
        return np.zeros((x.shape[0], 0))
    return _learner(model.algorithm).score(model, x)


def ova_classify(model: OvaModel, x: sparse.csr_matrix) -> list[str]:
    scores = ova_scores(model, x)
    if scores.shape[1] == 0:
        return [model.null_label] * scores.shape[0]
    best = scores.argmax(axis=1)
    positive = scores[np.arange(scores.shape[0]), best] > 0.0
    labels = np.array(model.classes + (model.null_label,), dtype=object)
    return labels[np.where(positive, best, len(model.classes))].tolist()

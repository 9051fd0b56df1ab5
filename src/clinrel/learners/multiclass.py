"""One-vs-all reduction from multi-class labels to binary scorers.

One binary problem per target class (that class against everything else,
including the null label).  Prediction takes the best-scoring class among
those with a positive score, falling back to the null label when no score is
positive.  Ties go to the lexicographically smallest class.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import sparse

from .decision_tree import c45_build, c45_score
from .knn import KnnModel, knn_score, knn_train
from .naive_bayes import nb_scores, nb_train
from .params import KernelSpec, KnnParams, NbParams, Params, PaumParams, SvmParams, TreeParams, params_for
from .paum import paum_decision, paum_train
from .svm import (
    KernelCache,
    SupportStack,
    SvmModel,
    apply_uneven_margin,
    smo_train,
    stack_supports,
    stacked_svm_decisions,
    svm_decision,
)

log = logging.getLogger(__name__)

ALGORITHMS = ("nb", "c45", "knn", "paum", "svm")

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


def _fit_binary(algorithm: str, x, y: np.ndarray, params: Params, cache: KernelCache | None):
    if np.all(y == y[0]):
        return _Constant(float(y[0]))
    if algorithm == "nb":
        return nb_train(x, ["+1" if v > 0 else "-1" for v in y])
    if algorithm == "c45":
        return c45_build(x, ["+1" if v > 0 else "-1" for v in y], params)
    if algorithm == "knn":
        return knn_train(x, ["+1" if v > 0 else "-1" for v in y], params.k)
    if algorithm == "paum":
        return paum_train(x, y, params)
    if algorithm == "svm":
        solution = smo_train(x, y, params.c, params.kernel, params.tol, cache)
        return apply_uneven_margin(solution, params.tau)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _score_binary(algorithm: str, model, x) -> np.ndarray:
    if isinstance(model, _Constant):
        return np.full(x.shape[0], model.score)
    if algorithm == "nb":
        scores = nb_scores(model, x)
        pos = model.classes.index("+1")
        neg = model.classes.index("-1")
        return scores[:, pos] - scores[:, neg]
    if algorithm == "c45":
        return c45_score(model, x)
    if algorithm == "paum":
        return paum_decision(model, x)
    if algorithm == "svm":
        return svm_decision(model, x)
    raise ValueError(f"unknown algorithm {algorithm!r}")


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
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if params is None:
        params = params_for(algorithm)
    labels = list(labels)
    if classes is None:
        classes = sorted(set(labels) - {null_label})
    classes = tuple(classes)

    cache = None
    if algorithm == "svm" and x.shape[0] > 0:
        if gram is None:
            cache = KernelCache(x, params.kernel, params.cache_mb)
        else:
            cache = KernelCache(x, params.kernel, params.cache_mb, gram=gram)

    label_arr = np.array(labels)
    models = []
    for cls in classes:
        y = np.where(label_arr == cls, 1.0, -1.0)
        if not np.any(y > 0):
            log.warning("class %s has no positive training instances; using a constant-negative model", cls)
            models.append(_Constant(-1.0))
            continue
        models.append(_fit_binary(algorithm, x, y, params, cache))
    return OvaModel(algorithm, classes, tuple(models), params, x.shape[1], null_label)


def _knn_scores(models: tuple[object, ...], x: sparse.csr_matrix) -> np.ndarray:
    """Every kNN class's scores from one neighbor search over the shared training rows."""
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
            scores[:, j] = _score_binary("svm", m, x)
    return scores


def ova_scores(model: OvaModel, x: sparse.csr_matrix) -> np.ndarray:
    """(instances x classes) decision-score matrix."""
    if x.shape[1] != model.n_features:
        raise ValueError("feature width does not match the model")
    if not model.classes:
        return np.zeros((x.shape[0], 0))
    if model.algorithm == "knn":
        return _knn_scores(model.models, x)
    if model.algorithm == "svm":
        return _svm_scores(model, x)
    return np.column_stack(
        [_score_binary(model.algorithm, m, x) for m in model.models]
    )


def ova_classify(model: OvaModel, x: sparse.csr_matrix) -> list[str]:
    scores = ova_scores(model, x)
    if scores.shape[1] == 0:
        return [model.null_label] * scores.shape[0]
    best = scores.argmax(axis=1)
    positive = scores[np.arange(scores.shape[0]), best] > 0.0
    labels = np.array(model.classes + (model.null_label,), dtype=object)
    return labels[np.where(positive, best, len(model.classes))].tolist()

"""Bernoulli Naive Bayes with add-one smoothing.

Features are treated as present/absent events (real-valued features count as
present when > 0).  Classification scores sum the class log-prior with the
log-likelihoods of the features present in the instance; features never seen
in training are ignored, so an all-unseen instance falls back to the priors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .params import _floats, _strings


@dataclass(frozen=True)
class NaiveBayesModel:
    """Log-space priors and per-(class, feature) Bernoulli likelihoods.

    Both the present and the absent log-likelihood are kept so the two
    exponentials sum to one per (class, feature) pair.
    """

    classes: tuple[str, ...]
    log_priors: np.ndarray
    log_p_present: np.ndarray
    log_p_absent: np.ndarray

    @property
    def n_features(self) -> int:
        return self.log_p_present.shape[1]


def nb_to_obj(model: NaiveBayesModel) -> dict:
    return {
        "classes": list(model.classes),
        "log_priors": model.log_priors.tolist(),
        "log_p_present": model.log_p_present.tolist(),
        "log_p_absent": model.log_p_absent.tolist(),
    }


def nb_from_obj(obj: dict, n_features: int) -> NaiveBayesModel:
    classes = _strings(obj["classes"], "naive Bayes classes")
    n_classes = len(classes)
    return NaiveBayesModel(
        classes,
        _floats(obj["log_priors"], "naive Bayes log_priors", (n_classes,)),
        _floats(obj["log_p_present"], "naive Bayes log_p_present", (n_classes, n_features)),
        _floats(obj["log_p_absent"], "naive Bayes log_p_absent", (n_classes, n_features)),
    )


def _binarize(x: sparse.csr_matrix) -> sparse.csr_matrix:
    out = x.copy()
    out.data = (out.data > 0).astype(np.float64)
    return out


def nb_train(x: sparse.csr_matrix, labels: Sequence[str]) -> NaiveBayesModel:
    """Priors from class frequency; likelihoods smoothed over the 2 outcomes."""
    m, n = x.shape
    if m == 0:
        raise ValueError("empty training set")
    if m != len(labels):
        raise ValueError("label count does not match row count")
    classes = tuple(sorted(set(labels)))
    class_index = {c: i for i, c in enumerate(classes)}
    y = np.array([class_index[label] for label in labels], dtype=np.intp)
    onehot = np.zeros((len(classes), m), dtype=np.float64)
    onehot[y, np.arange(m)] = 1.0

    class_counts = onehot.sum(axis=1)
    present_counts = np.asarray(onehot @ _binarize(x))
    p_present = (present_counts + 1.0) / (class_counts[:, None] + 2.0)
    return NaiveBayesModel(
        classes=classes,
        log_priors=np.log(class_counts / m),
        log_p_present=np.log(p_present),
        log_p_absent=np.log1p(-p_present),
    )


def nb_scores(model: NaiveBayesModel, x: sparse.csr_matrix) -> np.ndarray:
    """Per-instance, per-class log-posterior scores (up to the shared evidence term)."""
    if x.shape[1] != model.n_features:
        raise ValueError("feature width does not match the model")
    return model.log_priors[None, :] + np.asarray(_binarize(x) @ model.log_p_present.T)


def nb_classify(model: NaiveBayesModel, x: sparse.csr_matrix) -> list[str]:
    """Argmax class per row; exact ties go to the lexicographically smallest class."""
    scores = nb_scores(model, x)
    return [model.classes[i] for i in scores.argmax(axis=1)]

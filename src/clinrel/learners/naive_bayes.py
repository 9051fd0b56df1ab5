"""Bernoulli Naive Bayes with add-one smoothing.

Features are treated as present/absent events (real-valued features count as
present when > 0).  Classification scores sum the class log-prior with the
log-likelihoods of the features present in the instance; features never seen
in training are ignored, so an all-unseen instance falls back to the priors.

A one-vs-all model fits every binary class from one product
(``nb_fit_classes``) and scores every class with one product
(``nb_margins``).  Both give ``nb_train`` and ``nb_scores`` per class bit for
bit.  The fit multiplies the binarized matrix by a 0/1 matrix whose first
column is all ones and whose other columns mark each class's "+1" rows.
Every count is a sum of 0/1 values, an integer far below 2**53, so it is
exact in any summation order: the "-1" row, total minus "+1" count, is the
count of the "-1" rows, and each (count + 1) / (n + 2), ``log`` and
``log1p`` is elementwise, so computing them for all classes at once gives
each class the values it gets alone.  Scoring multiplies the binarized
queries by the stacked ``log_p_present`` rows of all classes; scipy's
``csr_matvecs`` sums each output column over a row's stored entries in
storage order, independently of the other columns, so each class's column
is the sum its own two-column product makes.
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
    """``x`` with 1.0 for each value > 0 and 0.0 for the rest; it shares ``x``'s index arrays."""
    return sparse.csr_matrix(((x.data > 0).astype(np.float64), x.indices, x.indptr), shape=x.shape)


def _log_params(class_counts: np.ndarray, present: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
    """Log priors from class frequency and log likelihoods smoothed over the 2 outcomes, elementwise."""
    p_present = (present + 1.0) / (class_counts[..., None] + 2.0)
    return np.log(class_counts / m), np.log(p_present), np.log1p(-p_present)


def nb_train(x: sparse.csr_matrix, labels: Sequence[str]) -> NaiveBayesModel:
    """Priors from class frequency; likelihoods smoothed over the 2 outcomes."""
    m = x.shape[0]
    if m == 0:
        raise ValueError("empty training set")
    if m != len(labels):
        raise ValueError("label count does not match row count")
    classes = tuple(sorted(set(labels)))
    class_index = {c: i for i, c in enumerate(classes)}
    y = np.array([class_index[label] for label in labels], dtype=np.intp)
    members = np.zeros((m, len(classes)), dtype=np.float64)
    members[np.arange(m), y] = 1.0
    return NaiveBayesModel(classes, *_log_params(members.sum(axis=0), np.asarray(_binarize(x).T @ members).T, m))


def nb_fit_classes(x: sparse.csr_matrix, positives: Sequence[np.ndarray]) -> list[NaiveBayesModel]:
    """``nb_train(x, labels)`` for labels "+1" on each mask's rows and "-1" elsewhere.

    Both labels must occur in every mask.  The "-1" counts are the totals minus the "+1" counts.
    """
    m = x.shape[0]
    members = np.ones((m, 1 + len(positives)))
    members[:, 1:] = np.column_stack(positives)
    counts = np.asarray(_binarize(x).T @ members).T
    n_pos = members[:, 1:].sum(axis=0)
    class_counts = np.column_stack([n_pos, m - n_pos])
    present = np.stack([counts[1:], counts[0] - counts[1:]], axis=1)
    log_priors, log_p_present, log_p_absent = _log_params(class_counts, present, m)
    return [
        NaiveBayesModel(("+1", "-1"), log_priors[i], log_p_present[i], log_p_absent[i])
        for i in range(len(positives))
    ]


def _log_posteriors(log_priors: np.ndarray, log_p_present: np.ndarray, x: sparse.csr_matrix) -> np.ndarray:
    return log_priors[None, :] + np.asarray(_binarize(x) @ log_p_present.T)


def nb_scores(model: NaiveBayesModel, x: sparse.csr_matrix) -> np.ndarray:
    """Per-instance, per-class log-posterior scores (up to the shared evidence term)."""
    if x.shape[1] != model.n_features:
        raise ValueError("feature width does not match the model")
    return _log_posteriors(model.log_priors, model.log_p_present, x)


def nb_margins(models: Sequence[NaiveBayesModel], x: sparse.csr_matrix) -> np.ndarray:
    """(instances x models) "+1" minus "-1" score of each binary model, from one product."""
    pairs = [(m.classes.index("+1"), m.classes.index("-1")) for m in models]
    priors = np.array([m.log_priors[i] for m, pair in zip(models, pairs) for i in pair])
    stacked = np.vstack([m.log_p_present[list(pair)] for m, pair in zip(models, pairs)])
    scores = _log_posteriors(priors, stacked, x)
    return scores[:, 0::2] - scores[:, 1::2]

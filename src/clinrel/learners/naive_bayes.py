"""Bernoulli Naive Bayes with add-one smoothing.

Features are treated as present/absent events (real-valued features count as
present when > 0).  Classification scores sum the class log-prior with the
log-likelihoods of the features present in the instance; features never seen
in training are ignored, so an all-unseen instance falls back to the priors.

A one-vs-all model trains every binary class from one binarized matrix
(``nb_context``, then ``nb_fit_binary`` per class) and scores every class
with one product (``nb_margins``).  Both give ``nb_train`` and ``nb_scores``
per class bit for bit.  Every count is a sum of 0/1 values, an integer far
below 2**53, so it is exact in any summation order: the "-1" row, total minus
"+1" count, is the count of the "-1" rows, and each (count + 1) / (n + 2),
``log`` and ``log1p`` follows from the same integers.  Scoring multiplies the
binarized queries by the stacked ``log_p_present`` rows of all classes;
scipy's ``csr_matvecs`` sums each output column over a row's stored entries
in storage order, independently of the other columns, so each class's
column is the sum its own two-column product makes.
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


def _present_counts(xbin: sparse.csr_matrix, members: np.ndarray) -> np.ndarray:
    """(groups x features) count of present features over each group's rows.

    ``members`` is an (m x groups) 0/1 matrix; ``xbin`` holds 0/1 values.
    """
    return np.asarray(xbin.T @ members).T


def _from_counts(
    classes: tuple[str, ...], class_counts: np.ndarray, present_counts: np.ndarray, m: int
) -> NaiveBayesModel:
    """Priors from class frequency; likelihoods smoothed over the 2 outcomes."""
    p_present = (present_counts + 1.0) / (class_counts[:, None] + 2.0)
    return NaiveBayesModel(
        classes=classes,
        log_priors=np.log(class_counts / m),
        log_p_present=np.log(p_present),
        log_p_absent=np.log1p(-p_present),
    )


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
    return _from_counts(classes, members.sum(axis=0), _present_counts(_binarize(x), members), m)


@dataclass(frozen=True)
class NbContext:
    """One training matrix, binarized, and its per-column count of present features."""

    xbin: sparse.csr_matrix
    present: np.ndarray


def nb_context(x: sparse.csr_matrix) -> NbContext:
    xbin = _binarize(x)
    return NbContext(xbin, _present_counts(xbin, np.ones((x.shape[0], 1)))[0])


def nb_fit_binary(ctx: NbContext, positive: np.ndarray) -> NaiveBayesModel:
    """``nb_train(x, labels)`` for labels "+1" on the ``positive`` rows and "-1" elsewhere.

    Both labels must occur.  The "-1" counts are the totals minus the "+1" counts.
    """
    m = ctx.xbin.shape[0]
    pos = _present_counts(ctx.xbin, positive.astype(np.float64)[:, None])[0]
    n_pos = float(np.count_nonzero(positive))
    return _from_counts(("+1", "-1"), np.array([n_pos, m - n_pos]), np.vstack([pos, ctx.present - pos]), m)


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

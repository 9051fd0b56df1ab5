import json
import logging
from dataclasses import replace

import numpy as np
import pytest
from _oracles import per_class_nb_margin
from scipy import sparse

from clinrel.features import FeatureConfig
from clinrel.harness import prepare_folds
from clinrel.learners import (
    LEARNERS,
    NULL_LABEL,
    OvaModel,
    PaumModel,
    PaumParams,
    c45_score,
    knn_score,
    ova_classify,
    ova_scores,
    ova_train,
    paum_decision,
    svm_decision,
)
from clinrel.schema import RELATION_TYPES
from clinrel.synth import GeneratorConfig, generate_synthetic


def csr(rows):
    return sparse.csr_matrix(np.asarray(rows, dtype=np.float64))


def one_hot_problem():
    # class triggers in columns 0..2, a shared background column 3
    rows = [
        [1, 0, 0, 1],
        [1, 0, 0, 1],
        [0, 1, 0, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
        [0, 0, 0, 1],
    ]
    labels = ["a", "a", "b", "b", "c", "c", NULL_LABEL, NULL_LABEL]
    return csr(rows), labels


def test_constants():
    assert tuple(LEARNERS) == ("nb", "c45", "knn", "paum", "svm")
    assert NULL_LABEL == "null"


@pytest.mark.parametrize("algorithm", tuple(LEARNERS))
def test_disjoint_triggers_learned_perfectly(algorithm):
    x, labels = one_hot_problem()
    model = ova_train(x, labels, algorithm)
    assert model.classes == ("a", "b", "c")
    assert ova_classify(model, x) == labels
    scores = ova_scores(model, x)
    assert scores.shape == (8, 3)


def test_null_when_no_score_positive():
    x, labels = one_hot_problem()
    model = ova_train(x, labels, "paum")
    # background-only instances look like the training nulls
    assert ova_classify(model, csr([[0, 0, 0, 1]])) == [NULL_LABEL]


def test_single_positive_class():
    x = csr([[1, 0], [0, 1], [0, 1]])
    labels = ["a", NULL_LABEL, NULL_LABEL]
    model = ova_train(x, labels, "knn")
    assert model.classes == ("a",)
    assert ova_classify(model, x) == labels


def test_class_without_positives_scores_constant_negative(caplog):
    x = csr([[1, 0], [0, 1]])
    with caplog.at_level(logging.WARNING):
        model = ova_train(x, ["a", "a"], "nb", classes=("a", "b"))
    assert "constant-negative" in caplog.text
    scores = ova_scores(model, x)
    assert np.allclose(scores[:, 1], -1.0)
    assert ova_classify(model, x) == ["a", "a"]


def test_all_null_training():
    x = csr([[1.0], [0.0]])
    model = ova_train(x, [NULL_LABEL, NULL_LABEL], "svm")
    assert model.classes == ()
    assert ova_scores(model, x).shape == (2, 0)
    assert ova_classify(model, x) == [NULL_LABEL, NULL_LABEL]


def test_score_tie_prefers_smaller_class():
    shared = PaumModel(
        weights=np.zeros(2), bias=1.0, bias_feature=0.0, opt_b=0.0, converged=True, epochs=1
    )
    model = OvaModel("paum", ("a", "b"), (shared, shared), PaumParams(), 2)
    assert ova_classify(model, csr([[5.0, 5.0]])) == ["a"]


def test_binary_problems_are_independent():
    # a class's scorer depends only on its own one-vs-rest labeling
    x, labels = one_hot_problem()
    for algorithm in LEARNERS:
        full = ova_scores(ova_train(x, labels, algorithm), x)
        only_b = ova_scores(ova_train(x, labels, algorithm, classes=("b",)), x)
        assert np.array_equal(full[:, 1], only_b[:, 0]), algorithm


def test_explicit_class_order_respected():
    x, labels = one_hot_problem()
    model = ova_train(x, labels, "nb", classes=("c", "a"))
    assert model.classes == ("c", "a")
    predicted = ova_classify(model, x)
    assert predicted[0] == "a"
    assert predicted[4] == "c"


def test_validation():
    x = csr([[1.0]])
    with pytest.raises(ValueError):
        ova_train(x, ["a"], "boost")
    model = ova_train(x, ["a"], "nb")
    with pytest.raises(ValueError):
        ova_scores(model, csr([[1.0, 2.0]]))


# Each learner's binary class model scored on its own.
PER_CLASS = {
    "nb": per_class_nb_margin, "c45": c45_score, "knn": knn_score, "paum": paum_decision, "svm": svm_decision,
}


@pytest.mark.parametrize("algorithm", tuple(LEARNERS))
def test_score_sees_only_the_fitted_class_models(algorithm, monkeypatch):
    """``ova_scores`` scores one-sided classes itself; a learner's ``score`` gets the rest."""
    learner = LEARNERS[algorithm]
    blocks = []

    def recorded(model, x):
        blocks.append(learner.score(model, x))
        return blocks[-1]

    monkeypatch.setitem(LEARNERS, algorithm, replace(learner, score=recorded))
    x, labels = one_hot_problem()
    model = ova_train(x, labels, algorithm, classes=("a", "none", "b", "c"))
    assert model.fitted == (0, 2, 3)
    scores = ova_scores(model, x)
    (block,) = blocks
    assert block.shape == (x.shape[0], len(model.fitted))
    assert scores[:, 1].tolist() == [-1.0] * x.shape[0]
    for i, j in enumerate(model.fitted):
        expected = PER_CLASS[algorithm](model.models[j], x).tobytes()
        assert scores[:, j].tobytes() == block[:, i].tobytes() == expected

    one_sided = ova_train(x, ["a"] * x.shape[0], algorithm, classes=("a", "b"))
    assert one_sided.fitted == ()
    assert ova_scores(one_sided, x).tolist() == [[1.0, -1.0]] * x.shape[0]
    assert len(blocks) == 1


@pytest.fixture(scope="module")
def fold6():
    corpus = generate_synthetic(GeneratorConfig(n_docs=6))
    return prepare_folds(corpus, FeatureConfig(), 3, 42, 1)[0]


@pytest.mark.parametrize("algorithm", tuple(LEARNERS))
def test_fitting_every_class_at_once_equals_fitting_each_alone(algorithm, fold6, monkeypatch):
    """``fit`` gets every fitted class of an ``ova_train`` call in one call, and the shared set-up changes no model."""
    learner = LEARNERS[algorithm]
    calls = []

    def recorded(x, ys, params, dots):
        calls.append([y.copy() for y in ys])
        return learner.fit(x, ys, params, dots)

    monkeypatch.setitem(LEARNERS, algorithm, replace(learner, fit=recorded))
    x, labels = fold6.x_train, np.array(fold6.train_labels)
    classes = tuple(r.value for r in RELATION_TYPES)
    model = ova_train(x, labels, algorithm, classes=classes)
    (ys,) = calls
    assert len(model.fitted) == len(ys) >= 3
    params = learner.params()
    for j, y in zip(model.fitted, ys):
        assert y.tolist() == np.where(labels == classes[j], 1.0, -1.0).tolist()
        (alone,) = learner.fit(x, [y], params, None)
        assert json.dumps(learner.to_obj(model.models[j])) == json.dumps(learner.to_obj(alone))

"""kNN and SVM scores cut from the dot products the folds of a plan share.

A fold's model scores its own test matrix from the (test x train) block of
the shared X·Xᵀ; every other query matrix, and a model without the block,
multiplies.  The products stay the reference: the block's scores must equal
them byte for byte.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from clinrel import harness
from clinrel.experiments import DEFAULT_TAU_VALUES
from clinrel.features import FeatureConfig
from clinrel.harness import FoldData, FoldOrigin, fold_models, prepare_folds, run_cv
from clinrel.learners import KernelSpec, SvmModel, ova_scores, params_for
from clinrel.learners.svm import with_margin
from clinrel.synth import GeneratorConfig, generate_synthetic


def assert_block_scores_equal_products(folds, algorithm, params=None):
    """Every fold's scores from its block equal its scores from products; returns the models."""
    models = list(fold_models(folds, algorithm, params or params_for(algorithm)))
    for fold, model in zip(folds, models):
        assert model.dots.cross(fold.x_test) is not None
        got = ova_scores(model, fold.x_test)
        expected = ova_scores(replace(model, dots=None), fold.x_test)
        assert got.tobytes() == expected.tobytes()
    return models


@pytest.fixture(scope="module")
def default_folds(corpus40):
    return prepare_folds(corpus40, FeatureConfig())


@pytest.mark.parametrize("algorithm", ["knn", "svm"])
def test_every_fold_of_the_default_corpus(default_folds, algorithm):
    assert_block_scores_equal_products(default_folds, algorithm)


def test_every_margin_of_the_tau_sweep(default_folds):
    for fold, base in zip(default_folds, fold_models(default_folds, "svm", params_for("svm", tau=1.0))):
        for tau in DEFAULT_TAU_VALUES:
            model = replace(base, models=tuple(with_margin(m, tau) if isinstance(m, SvmModel) else m for m in base.models))
            got = ova_scores(model, fold.x_test)
            assert got.tobytes() == ova_scores(replace(model, dots=None), fold.x_test).tobytes()


@pytest.mark.parametrize("algorithm, params", [("knn", params_for("knn", k=3)), ("svm", None)])
def test_twenty_documents_of_seed_7_in_three_folds(algorithm, params):
    corpus = generate_synthetic(GeneratorConfig(n_docs=20, seed=7))
    assert_block_scores_equal_products(prepare_folds(corpus, FeatureConfig(), 3, 1), algorithm, params)


def test_another_query_matrix_falls_back_to_products(default_folds):
    fold = default_folds[0]
    model = next(fold_models(default_folds, "svm", params_for("svm")))
    reversed_rows = fold.x_test[::-1]
    assert reversed_rows.shape == fold.x_test.shape
    for x in (reversed_rows, fold.x_test.copy()):
        assert model.dots.cross(x) is None
        assert ova_scores(model, x).tobytes() == ova_scores(replace(model, dots=None), x).tobytes()
    assert ova_scores(model, reversed_rows).tobytes() != ova_scores(model, fold.x_test).tobytes()


def test_only_knn_and_svm_build_the_matrix_once_per_plan(corpus40, monkeypatch):
    folds = prepare_folds(corpus40, FeatureConfig(), 4, 3)
    built = []
    real = harness.shared_dots
    monkeypatch.setattr(harness, "shared_dots", lambda *a: built.append(a) or real(*a))
    for algorithm in ("nb", "c45", "paum"):
        run_cv(corpus40, algorithm, folds=folds)
    assert built == [] and folds[0].origin.dots is None
    run_cv(corpus40, "knn", folds=folds)
    dots = folds[0].origin.dots
    assert dots is not None
    run_cv(corpus40, "svm", folds=folds)
    assert len(built) == 2 and folds[0].origin.dots is dots


def hand_folds(x: sparse.csr_matrix, labels: list[str], tests: list[list[int]]) -> list[FoldData]:
    """Folds cut from ``x`` as ``prepare_folds`` cuts them, with the given test rows per fold."""
    splits = []
    for test in tests:
        test_rows = np.asarray(test, dtype=np.intp)
        train_rows = np.setdiff1d(np.arange(x.shape[0]), test_rows)
        present = np.zeros(x.shape[1], dtype=bool)
        present[x[train_rows].indices] = True
        splits.append(harness._Split(train_rows, test_rows, tuple(labels[i] for i in train_rows), (), present))
    origin = FoldOrigin(x, np.ones(x.shape[1], dtype=bool), splits)
    return [
        FoldData(
            x_train=x[s.train_rows][:, np.flatnonzero(s.present)], train_labels=s.train_labels,
            x_test=x[s.test_rows][:, np.flatnonzero(s.present)], test_instances=(), test_docs=(),
            origin=origin, train_rows=s.train_rows, test_rows=s.test_rows,
        )
        for s in splits
    ]


@pytest.fixture(scope="module")
def hand_matrix():
    """30 rows over 12 columns.  Row 0 alone stores column 11, and row 1 stores nothing."""
    rng = np.random.default_rng(5)
    dense = rng.normal(size=(30, 12)) * (rng.random((30, 12)) < 0.4)
    dense[:, 11] = 0.0
    dense[0, 11] = 2.5
    dense[1] = 0.0
    dense[2:, 0] += 1.0  # every other row stores column 0
    return sparse.csr_matrix(dense)


LABELS = ["has_finding", "has_indication", "null"] * 10  # the other relation types have no positives


@pytest.mark.parametrize(
    "algorithm, params",
    [
        ("knn", params_for("knn", k=1)),
        ("knn", params_for("knn", k=3)),
        ("svm", params_for("svm")),
        ("svm", params_for("svm", kernel=KernelSpec("linear"))),
        ("svm", params_for("svm", tol=1.5)),  # stops before any step: no class has a support vector
    ],
    ids=["knn-1", "knn-3", "svm", "svm-linear", "svm-no-supports"],
)
def test_hand_built_folds(hand_matrix, algorithm, params):
    folds = hand_folds(hand_matrix, LABELS, [[0, 1, 5, 9], [2, 3, 4, 10, 20], [6, 7, 8]])
    assert folds[0].x_test.shape[1] == 11 and folds[0].x_test[0].nnz > 0  # column 11 is row 0's alone
    assert folds[0].x_test[1].nnz == 0
    models = assert_block_scores_equal_products(folds, algorithm, params)
    one_sided = [j for j, cls in enumerate(models[0].classes) if cls not in LABELS]
    assert one_sided and not set(one_sided) & set(models[0].fitted)
    if algorithm == "svm" and params.tol > 1.0:
        assert all(models[0].models[j].coef.size == 0 for j in models[0].fitted)


def test_hand_built_folds_with_only_one_class(hand_matrix):
    folds = hand_folds(hand_matrix, ["has_finding"] * 30, [[0, 1, 2], [3, 4, 5]])
    for algorithm in ("knn", "svm"):
        models = assert_block_scores_equal_products(folds, algorithm)
        assert models[0].fitted == ()

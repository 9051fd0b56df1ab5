"""One-vs-all SVM scores from one kernel block over the distinct support rows.

``ova_scores`` must give, byte for byte, what scoring each class model on
its own gives (``per_class_svm_scores``), whatever the block of queries.
"""

from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from _oracles import per_class_svm_scores
from scipy import sparse

from clinrel.features import FeatureConfig
from clinrel.harness import prepare_folds
from clinrel.learners import KernelSpec, OvaModel, SvmModel, SvmParams, ova_scores, ova_train, svm
from clinrel.learners.multiclass import _Constant
from clinrel.schema import RELATION_TYPES


@pytest.fixture(scope="module")
def fold(corpus40):
    return prepare_folds(corpus40, FeatureConfig())[0]


@pytest.fixture(scope="module")
def trained(fold):
    return ova_train(fold.x_train, fold.train_labels, "svm", classes=[r.value for r in RELATION_TYPES])


def assert_same_scores(ova: OvaModel, x):
    expected = per_class_svm_scores(ova, x)
    got = ova_scores(ova, x)
    assert got.shape == expected.shape == (x.shape[0], len(ova.models))
    assert got.tobytes() == expected.tobytes()


def with_kernel(ova: OvaModel, spec: KernelSpec) -> OvaModel:
    return replace(ova, models=tuple(replace(m, kernel=spec) for m in ova.models))


def test_supports_shared_across_classes_are_stacked_once(trained):
    ((cols, stack),) = trained.svm_stacks
    assert cols == list(range(7))
    n_support = sum(m.support.shape[0] for m in trained.models)
    assert stack.rows.shape[0] < n_support
    for m, pos in zip(trained.models, stack.positions):
        assert (stack.rows[pos] != m.support).nnz == 0


def test_per_document_blocks(trained, fold):
    docs = [len(list(group)) for _, group in groupby(i.pair.doc_id for i in fold.test_instances)]
    assert len(docs) > 1
    for lo, hi in zip(np.cumsum([0] + docs[:-1]), np.cumsum(docs)):
        assert_same_scores(trained, fold.x_test[lo:hi])


def test_whole_block_needs_several_chunks(trained, fold):
    assert fold.x_test.shape[0] > 2 * (svm._CHUNK_VALUES // fold.x_test.shape[1])
    assert_same_scores(trained, fold.x_test)
    assert_same_scores(trained, fold.x_train)


def test_no_queries(trained, fold):
    assert_same_scores(trained, fold.x_test[:0])


@pytest.mark.parametrize(
    "spec", [KernelSpec("linear"), KernelSpec("polynomial", 1), KernelSpec("polynomial", 2), KernelSpec("polynomial", 3)]
)
def test_kernels(trained, fold, spec):
    ova = with_kernel(trained, spec)
    assert_same_scores(ova, fold.x_test)
    assert_same_scores(ova, fold.x_test[:5])


def test_classes_with_different_kernels(trained, fold):
    specs = [KernelSpec("linear"), KernelSpec("polynomial", 3)]
    ova = replace(trained, models=tuple(replace(m, kernel=specs[j % 2]) for j, m in enumerate(trained.models)))
    assert [cols for cols, _ in ova.svm_stacks] == [[0, 2, 4, 6], [1, 3, 5]]
    assert_same_scores(ova, fold.x_test)


def test_constant_and_empty_class_models(trained, fold):
    empty = SvmModel(
        sparse.csr_matrix((0, fold.x_test.shape[1])), np.empty(0), 0.25, KernelSpec(), 0.8
    )
    models = list(trained.models)
    models[1] = _Constant(-1.0)
    models[4] = empty
    models[6] = _Constant(1.0)
    ova = replace(trained, models=tuple(models))
    assert [cols for cols, _ in ova.svm_stacks] == [[0, 2, 3, 5]]
    assert_same_scores(ova, fold.x_test)
    assert_same_scores(ova, fold.x_test[:0])


def test_only_constant_class_models(fold):
    ova = ova_train(fold.x_train, fold.train_labels, "svm", classes=["no-such-class", "other"])
    assert ova.svm_stacks == ()
    assert_same_scores(ova, fold.x_test)


def test_duplicate_rows_within_and_across_classes():
    rng = np.random.default_rng(5)
    base = sparse.random(12, 9, density=0.4, random_state=rng, format="csr")
    x = sparse.vstack([base, base[[0, 3, 3, 7]], base[:5]], format="csr")
    labels = rng.choice(["a", "b", "c", "null"], size=x.shape[0]).tolist()
    ova = ova_train(x, labels, "svm")
    ((_, stack),) = ova.svm_stacks
    assert stack.rows.shape[0] <= base.shape[0]
    queries = sparse.random(30, 9, density=0.5, random_state=rng, format="csr")
    for spec in (KernelSpec("linear"), KernelSpec("polynomial", 2), KernelSpec("polynomial", 3)):
        assert_same_scores(with_kernel(ova, spec), queries)
        assert_same_scores(with_kernel(ova, spec), queries[:1])


def test_rows_on_the_same_columns_with_other_values_stay_apart():
    support = sparse.csr_matrix(np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 0.5], [1.0, 0.0, 2.0], [0.0, 0.0, 0.0]]))
    spec = KernelSpec("polynomial", 2)
    a = SvmModel(support[[0, 1, 3]], np.array([0.5, -0.25, 0.125]), 0.1, spec, 0.8)
    b = SvmModel(support[[1, 2]], np.array([-1.5, 0.75]), -0.2, spec, 0.8)
    ova = OvaModel("svm", ("a", "b"), (a, b), SvmParams(), 3)
    ((_, stack),) = ova.svm_stacks
    assert stack.rows.shape[0] == 3
    assert [p.tolist() for p in stack.positions] == [[0, 1, 2], [1, 0]]
    queries = sparse.csr_matrix(np.array([[2.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 5.0, -1.0]]))
    assert_same_scores(ova, queries)


def test_several_chunks_on_small_blocks(trained, fold, monkeypatch):
    monkeypatch.setattr(svm, "_CHUNK_VALUES", 3 * fold.x_test.shape[1])
    assert_same_scores(trained, fold.x_test[:10])
    assert_same_scores(trained, fold.x_test[:3])

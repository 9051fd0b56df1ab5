import math

import numpy as np
import pytest
from _oracles import onehot_nb_train, per_class_nb_ova, per_class_nb_scores, per_class_nb_train
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from clinrel.experiments import ABLATION_STEPS, ABLATION_SYNTACTIC_STEPS
from clinrel.features import FeatureConfig
from clinrel.harness import corpus_features, prepare_folds
from clinrel.learners import NaiveBayesModel, nb_scores, nb_train, ova_classify, ova_scores, ova_train
from clinrel.learners.multiclass import _Constant
from clinrel.learners.naive_bayes import nb_fit_classes
from clinrel.schema import RELATION_TYPES


def csr(rows):
    return sparse.csr_matrix(np.asarray(rows, dtype=np.float64))


def test_hand_computed_likelihoods():
    # class "a": 3 rows, feature 0 present in 2 -> (2+1)/(3+2) = 0.6
    x = csr([[1, 0], [1, 1], [0, 1], [0, 0], [0, 1]])
    labels = ["a", "a", "a", "b", "b"]
    model = nb_train(x, labels)
    assert model.classes == ("a", "b")
    p = np.exp(model.log_p_present)
    assert p[0, 0] == pytest.approx(0.6)
    assert p[0, 1] == pytest.approx((2 + 1) / (3 + 2))
    assert p[1, 0] == pytest.approx((0 + 1) / (2 + 2))
    assert p[1, 1] == pytest.approx((1 + 1) / (2 + 2))
    assert np.exp(model.log_priors) == pytest.approx([3 / 5, 2 / 5])


def test_present_and_absent_likelihoods_sum_to_one():
    rng = np.random.default_rng(0)
    x = csr(rng.integers(0, 2, size=(30, 8)))
    labels = [str(v) for v in rng.integers(0, 3, size=30)]
    model = nb_train(x, labels)
    total = np.exp(model.log_p_present) + np.exp(model.log_p_absent)
    assert np.all(np.abs(total - 1.0) < 1e-9)


def _oracle_scores(x_rows, labels, query):
    """Pure-python rebuild: log prior plus present-feature log-likelihoods."""
    classes = sorted(set(labels))
    m = len(labels)
    out = []
    for c in classes:
        rows = [r for r, lab in zip(x_rows, labels) if lab == c]
        score = math.log(len(rows) / m)
        for j, q in enumerate(query):
            if q > 0:
                present = sum(1 for r in rows if r[j] > 0)
                score += math.log((present + 1) / (len(rows) + 2))
        out.append(score)
    return classes, out


def _oracle_ova(x_rows, labels, query):
    """Each non-null class's "+1" minus "-1" score against the rest, and the one-vs-all label."""
    classes = sorted(set(labels) - {"null"})
    margins = []
    for c in classes:
        _, (pos, neg) = _oracle_scores(x_rows, ["+1" if lab == c else "-1" for lab in labels], query)
        margins.append(pos - neg)
    best = int(np.argmax(margins))
    return margins, classes[best] if margins[best] > 0 else "null"


def test_agrees_with_brute_force_on_random_instances():
    rng = np.random.default_rng(7)
    x_rows = rng.integers(0, 2, size=(40, 12)).tolist()
    labels = [["p", "q", "r"][v] for v in rng.integers(0, 3, size=40)]
    model = nb_train(csr(x_rows), labels)
    ova = ova_train(csr(x_rows), labels, "nb")
    queries = rng.integers(0, 2, size=(100, 12)).tolist()
    got = nb_scores(model, csr(queries))
    margins = ova_scores(ova, csr(queries))
    predicted = ova_classify(ova, csr(queries))
    for i, q in enumerate(queries):
        classes, expected = _oracle_scores(x_rows, labels, q)
        assert classes == list(model.classes)
        assert got[i] == pytest.approx(expected, abs=1e-9)
        expected_margins, label = _oracle_ova(x_rows, labels, q)
        assert margins[i] == pytest.approx(expected_margins, abs=1e-9)
        assert predicted[i] == label


def test_empty_instance_falls_back_to_priors():
    x = csr([[1, 0], [0, 1], [1, 1]])
    model = nb_train(x, ["a", "a", "b"])
    scores = nb_scores(model, csr([[0, 0]]))
    assert scores[0] == pytest.approx([math.log(2 / 3), math.log(1 / 3)])
    ova = ova_train(x, ["a", "a", "b"], "nb")
    assert ova_scores(ova, csr([[0, 0]]))[0] == pytest.approx([math.log(2), -math.log(2)])
    assert ova_classify(ova, csr([[0, 0]])) == ["a"]


def test_tie_breaks_to_smallest_class():
    # "a" and "b" mirror each other, so their one-vs-all margins are equal and positive
    x = csr([[0, 1], [1, 0], [0, 1], [1, 0], [0, 0]])
    ova = ova_train(x, ["b", "a", "b", "a", "null"], "nb")
    margins = ova_scores(ova, csr([[1, 1]]))
    assert margins[0, 0] == margins[0, 1] > 0
    assert ova_classify(ova, csr([[1, 1]])) == ["a"]


def test_real_values_count_as_presence():
    x = csr([[2.5, 0], [0, 0.1]])
    labels = ["a", "b"]
    binary = nb_train(csr([[1, 0], [0, 1]]), labels)
    real = nb_train(x, labels)
    assert np.allclose(binary.log_p_present, real.log_p_present)
    q_real = csr([[7.0, 0.0]])
    q_bin = csr([[1.0, 0.0]])
    assert np.allclose(nb_scores(real, q_real), nb_scores(real, q_bin))


def test_single_class_training():
    model = nb_train(csr([[1], [0]]), ["only", "only"])
    assert model.classes == ("only",)
    assert nb_scores(model, csr([[1], [0]])).tolist() == [[math.log(1 / 2)], [0.0]]
    assert ova_classify(ova_train(csr([[1], [0]]), ["only", "only"], "nb"), csr([[1], [0]])) == ["only", "only"]


def test_input_validation():
    with pytest.raises(ValueError):
        nb_train(sparse.csr_matrix((0, 3)), [])
    with pytest.raises(ValueError):
        nb_train(csr([[1, 0]]), ["a", "b"])
    model = nb_train(csr([[1, 0]]), ["a"])
    with pytest.raises(ValueError):
        nb_scores(model, csr([[1, 0, 0]]))


def test_model_width_property():
    model = nb_train(csr([[1, 0, 1]]), ["a"])
    assert isinstance(model, NaiveBayesModel)
    assert model.n_features == 3


# One-vs-all NB fits every class from one count product and scores every
# class with one product; each class model and score column must equal the
# per-class path (``_oracles.per_class_nb_*``) byte for byte.

CLASSES = tuple(r.value for r in RELATION_TYPES)


def assert_same_nb(got, want):
    assert got.classes == want.classes
    for part in ("log_priors", "log_p_present", "log_p_absent"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.shape == b.shape and a.dtype == b.dtype, part
        assert a.tobytes() == b.tobytes(), part


def assert_same_ova(x, labels, queries, classes):
    ova = ova_train(x, labels, "nb", classes=classes)
    want = per_class_nb_ova(x, labels, classes)
    assert len(ova.models) == len(want)
    for got, exp in zip(ova.models, want):
        assert type(got) is type(exp)
        if isinstance(exp, _Constant):
            assert got == exp
        else:
            assert exp.classes == ("+1", "-1")
            assert_same_nb(got, exp)
    got = ova_scores(ova, queries)
    assert got.shape == (queries.shape[0], len(classes))
    assert got.tobytes() == per_class_nb_scores(want, queries).tobytes()
    return ova


def test_one_pass_equals_per_class_on_every_ablation_fold(corpus40):
    steps = ABLATION_STEPS + ABLATION_SYNTACTIC_STEPS
    configs = tuple(dict.fromkeys(FeatureConfig.of(*sets) for _, sets in steps))
    features = corpus_features(corpus40, FeatureConfig(frozenset().union(*(c.sets for c in configs))), 1)
    n_folds = 0
    for cfg in configs:
        for fold in prepare_folds(corpus40, cfg, 10, 1, 1, features=features):
            assert_same_ova(fold.x_train, fold.train_labels, fold.x_test, CLASSES)
            n_folds += 1
    assert n_folds == 100


def test_one_pass_equals_per_class_on_every_algorithms_fold(corpus40):
    for fold in prepare_folds(corpus40, FeatureConfig(), 10, 42, 1):
        assert_same_ova(fold.x_train, fold.train_labels, fold.x_test, CLASSES)


def test_one_pass_hand_cases():
    # columns: 0 and 4 stored by no training row, 1 holds values <= 0 only,
    # 2 mixes a negative with values above 1, 3 is 0/1
    x = sparse.csr_matrix(
        (np.array([0.0, -1.0, 2.5, 1.0, -3.0, 7.0, 1.0, 0.5]),
         np.array([1, 2, 3, 1, 2, 3, 2, 3]),
         np.array([0, 3, 6, 7, 8])),
        shape=(4, 5),
    )
    labels = ["a", "b", "a", "null"]
    queries = sparse.csr_matrix(
        (np.array([3.0, -2.0, 0.0, 1.0, 4.0]), np.array([0, 1, 2, 3, 4]), np.array([0, 0, 3, 3, 5, 5])),
        shape=(5, 5),
    )  # rows 0, 2 and 4 store nothing
    # "c" has no positive rows; "all" below labels every row
    ova = assert_same_ova(x, labels, queries, ("a", "b", "c"))
    assert [type(m) for m in ova.models] == [NaiveBayesModel, NaiveBayesModel, _Constant]
    ova = assert_same_ova(x, ["all"] * 4, queries, ("all", "c"))
    assert ova.models == (_Constant(1.0), _Constant(-1.0))
    np.testing.assert_array_equal(ova_scores(ova, queries), np.tile([1.0, -1.0], (5, 1)))
    assert_same_ova(x[:1], ["a"], queries, ("a", "b"))  # a one-row training set
    assert_same_ova(x[2:3], ["a"], queries, ("a", "b"))
    assert_same_ova(x, labels, queries[:0], ("a", "b"))  # no queries


def test_one_pass_counts_by_hand():
    x = csr([[2.0, -1.0, 0.0], [0.5, 0.0, 3.0], [0.0, 0.0, 1.0]])
    ova = ova_train(x, ["a", "b", "a"], "nb", classes=("a", "b"))
    a = ova.models[0]
    # "a" rows 0 and 2: feature 0 present once, feature 1 never (-1 is absent),
    # feature 2 once; the "-1" row is row 1 alone
    np.testing.assert_array_equal(np.exp(a.log_priors), [2 / 3, 1 / 3])
    np.testing.assert_allclose(np.exp(a.log_p_present), [[2 / 4, 1 / 4, 2 / 4], [2 / 3, 1 / 3, 2 / 3]])
    scores = ova_scores(ova, csr([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(scores[:, 0], [math.log(2 / 3 * 2 / 4) - math.log(1 / 3 * 2 / 3), math.log(2)])
    np.testing.assert_array_equal(scores[:, 0], -scores[:, 1])


def test_multiclass_train_equals_onehot_product():
    rng = np.random.default_rng(5)
    for m, n, k in ((1, 2, 1), (9, 6, 3), (80, 30, 5)):
        x = sparse.csr_matrix(rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.4))
        labels = [f"c{v}" for v in rng.integers(0, k, size=m)]
        assert_same_nb(nb_train(x, labels), onehot_nb_train(x, labels))


def test_random_one_vs_all_equals_per_class():
    rng = np.random.default_rng(11)
    for m, n in ((1, 3), (5, 4), (60, 25)):
        dense = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.4)
        labels = [str(v) for v in rng.integers(0, 4, size=m)]
        queries = sparse.csr_matrix(rng.normal(size=(30, n)) * (rng.random((30, n)) < 0.3))
        assert_same_ova(sparse.csr_matrix(dense), labels, queries, ("0", "1", "2", "3", "4"))


@st.composite
def fit_problems(draw):
    """A 0/1 or count matrix, some rows and columns empty, and 1-7 +1/-1 vectors with both signs."""
    m, n = draw(st.integers(2, 40)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(1, 2 if draw(st.booleans()) else 6, size=(m, n)).astype(np.float64)
    dense = values * (rng.random((m, n)) < draw(st.sampled_from([0.05, 0.3, 0.7, 1.0])))
    dense[rng.random(m) < 0.2] = 0.0  # empty rows
    dense[:, rng.random(n) < 0.2] = 0.0  # all-zero columns
    ys = []
    for _ in range(draw(st.integers(1, 7))):
        y = np.where(rng.random(m) < draw(st.sampled_from([0.05, 0.5, 0.95])), 1.0, -1.0)
        y[rng.choice(m, 2, replace=False)] = (1.0, -1.0)
        ys.append(y)
    return sparse.csr_matrix(dense), ys


@settings(max_examples=200, deadline=None)
@given(fit_problems())
def test_one_product_fit_equals_each_class_alone(problem):
    x, ys = problem
    got = nb_fit_classes(x, [y > 0 for y in ys])
    assert len(got) == len(ys)
    for model, y in zip(got, ys):
        assert_same_nb(model, per_class_nb_train(x, y))

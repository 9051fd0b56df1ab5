import math
from dataclasses import replace

import numpy as np
import pytest
from _oracles import per_class_ova_scores, per_query_knn_score
from scipy import sparse

from clinrel.features import FeatureConfig
from clinrel.learners import (
    KnnParams,
    TrainedModel,
    knn,
    knn_score,
    knn_train,
    model_from_json,
    model_to_json,
    ova_classify,
    ova_scores,
    ova_train,
)


def csr(rows):
    return sparse.csr_matrix(np.asarray(rows, dtype=np.float64))


def test_inverse_square_weighting_hand_example():
    # query 0.1: d^2 = 0.01 and 0.81, weights 100 vs 1/0.81
    model = knn_train(csr([[0.0], [1.0]]), ["+1", "-1"], k=2)
    q = csr([[0.1]])
    score = knn_score(model, q)[0]
    w_near, w_far = 1 / 0.01, 1 / 0.81
    assert w_near == pytest.approx(100.0)
    assert w_far == pytest.approx(1.2345679012345678)
    assert score == pytest.approx((w_near - w_far) / (w_near + w_far), abs=1e-12)
    assert score == pytest.approx(40 / 41, abs=1e-12)


def test_nearer_mass_beats_count():
    # two far "-1" points lose to one close "+1" point
    model = knn_train(csr([[0.0], [5.0], [5.5]]), ["+1", "-1", "-1"], k=3)
    assert knn_score(model, csr([[0.5]]))[0] > 0


def test_zero_distance_majority_rule():
    model = knn_train(csr([[0.0], [0.0], [1.0]]), ["+1", "+1", "-1"], k=3)
    q = csr([[0.0]])
    assert knn_score(model, q)[0] == pytest.approx(1.0)
    # only the zero-distance rows vote even though k covers everything
    model2 = knn_train(csr([[0.0], [0.0], [0.1]]), ["-1", "-1", "+1"], k=3)
    assert knn_score(model2, q)[0] == pytest.approx(-1.0)


def test_zero_distance_tie_scores_zero():
    model = knn_train(csr([[0.0], [0.0]]), ["-1", "+1"], k=1)
    assert knn_score(model, csr([[0.0]])).tolist() == [0.0]


def test_distance_ties_at_kth_all_included():
    # k=1 but two training points tie at the smallest distance
    model = knn_train(csr([[1.0], [-1.0], [3.0]]), ["+1", "-1", "+1"], k=1)
    q = csr([[0.0]])
    # both d^2=1 neighbors vote with equal weight, so their shares cancel
    assert knn_score(model, q).tolist() == [0.0]


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(25, 6))
    labels = [["u", "v", "w"][i] for i in rng.integers(0, 3, size=25)]
    queries = csr(rng.normal(size=(40, 6)))
    base = ova_scores(ova_train(csr(x), labels, "knn", KnnParams(4)), queries)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(25)
        shuffled = ova_scores(
            ova_train(csr(x[perm]), [labels[i] for i in perm], "knn", KnnParams(4)), queries
        )
        assert shuffled.tobytes() == base.tobytes()


def _oracle(x_rows, labels, k, query):
    d2 = [sum((a - b) ** 2 for a, b in zip(row, query)) for row in x_rows]
    kth = sorted(d2)[min(k, len(d2)) - 1]
    neighbors = [i for i, d in enumerate(d2) if d <= kth]
    zeros = [i for i in neighbors if d2[i] == 0.0]
    votes = {}
    if zeros:
        for i in zeros:
            votes[labels[i]] = votes.get(labels[i], 0.0) + 1.0
    else:
        for i in neighbors:
            votes[labels[i]] = votes.get(labels[i], 0.0) + 1.0 / d2[i]
    total = math.fsum(votes.values())
    shares = {lab: v / total for lab, v in votes.items()}
    top = max(shares.values())
    return min(l for l, s in shares.items() if s == top), shares


def test_agrees_with_brute_force_on_random_instances():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, 5))
    labels = [["+1", "-1"][i] for i in rng.integers(0, 2, size=30)]
    model = knn_train(csr(x), labels, k=2)
    queries = rng.normal(size=(100, 5))
    scores = knn_score(model, csr(queries))
    for i, q in enumerate(queries):
        winner, shares = _oracle(x.tolist(), labels, 2, q.tolist())
        assert (scores[i] > 0) == (winner == "+1")
        expected = shares.get("+1", 0.0) - shares.get("-1", 0.0)
        assert scores[i] == pytest.approx(expected, abs=1e-9)


def test_k_at_least_m_uses_everyone():
    x = [[0.0], [1.0], [2.0]]
    labels = ["+1", "-1", "-1"]
    model = knn_train(csr(x), labels, k=10)
    q = [0.9]
    _, shares = _oracle(x, labels, 10, q)
    assert knn_score(model, csr([q]))[0] == pytest.approx(shares["+1"] - shares["-1"], abs=1e-12)


def test_score_sign_matches_classification():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 4))
    labels = [["rel", "null"][i] for i in rng.integers(0, 2, size=20)]
    model = knn_train(csr(x), ["+1" if label == "rel" else "-1" for label in labels], k=2)
    queries = csr(rng.normal(size=(50, 4)))
    predicted = ova_classify(ova_train(csr(x), labels, "knn", KnnParams(2)), queries)
    assert predicted == ["rel" if s > 0 else "null" for s in knn_score(model, queries)]


def test_input_validation():
    with pytest.raises(ValueError):
        knn_train(sparse.csr_matrix((0, 2)), [])
    with pytest.raises(ValueError):
        knn_train(csr([[1.0]]), ["a"], k=0)
    with pytest.raises(ValueError):
        knn_train(csr([[1.0]]), ["a", "b"])


class TestOneSearchForAllColumns:
    """One neighbor search per query gives the per-class scorer's exact bytes."""

    LABELS = ("has_finding", "has_location", "has_target", "null")

    @staticmethod
    def data(seed, rows, cols, integer):
        rng = np.random.default_rng(seed)
        if integer:
            # small integers: ties at the k-th distance and exact duplicates
            return rng.integers(0, 3, size=(rows, cols)).astype(np.float64)
        return rng.normal(size=(rows, cols)) * np.exp(rng.normal(scale=2.0, size=cols))

    def ova(self, seed, k, integer, labels=None):
        rng = np.random.default_rng(seed)
        x = csr(self.data(seed, 70, 6, integer))
        if labels is None:
            labels = [self.LABELS[i] for i in rng.integers(0, 4, size=70)]
        return ova_train(x, labels, "knn", KnnParams(k), classes=self.LABELS[:3] + ("negation_modifies",)), x

    def queries(self, seed, x, integer):
        fresh = self.data(seed + 1000, 40, x.shape[1], integer)
        # and every third training row again: zero-distance neighbors
        return sparse.vstack([csr(fresh), x[::3]]).tocsr()

    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 9, 16])
    def test_ova_scores_match_per_class_scorer(self, k, integer):
        for seed in range(3):
            ova, x = self.ova(seed, k, integer)
            assert ova.models[3].score == -1.0  # class d has no rows: a constant scorer
            q = self.queries(seed, x, integer)
            assert ova_scores(ova, q).tobytes() == per_class_ova_scores(ova, q).tobytes()

    def test_sums_of_eight_or_more_are_pairwise(self):
        # 12 rows tied at the k-th distance, then k=10 distinct distances:
        # numpy sums 8 or more terms pairwise, not left to right

        rng = np.random.default_rng(4)
        tied = np.repeat([[1.0, 0.0]], 12, axis=0)
        spread = np.column_stack([rng.uniform(0.3, 3.0, size=30), np.zeros(30)])
        x = np.vstack([tied, spread])
        labels = ["+1" if v else "-1" for v in rng.integers(0, 2, size=x.shape[0])]
        labels[:12] = ["+1"] * 9 + ["-1"] * 3
        q = csr([[0.0, 0.0], [0.5, 0.1], [2.0, -0.2]])
        for k in (2, 10, 25):
            model = knn_train(csr(x), labels, k=k)
            assert knn_score(model, q).tobytes() == per_query_knn_score(model, q).tobytes()

    def test_query_blocks_do_not_change_scores(self, monkeypatch):
        ova, x = self.ova(5, 2, False)
        q = self.queries(5, x, False)
        monkeypatch.setattr(knn, "_BLOCK_ENTRIES", 150)  # two queries a block
        assert ova_scores(ova, q).tobytes() == per_class_ova_scores(ova, q).tobytes()

    @pytest.mark.parametrize("integer", [False, True])
    def test_saved_then_loaded_model(self, integer):
        ova, x = self.ova(6, 3, integer)
        index = {f"f{i}": i for i in range(x.shape[1])}
        back = model_from_json(model_to_json(TrainedModel(ova, index, FeatureConfig(), 1))).ova
        fitted = back.models[:3]
        assert all(m.x is fitted[0].x for m in fitted)  # one shared matrix
        q = self.queries(6, x, integer)
        assert ova_scores(back, q).tobytes() == per_class_ova_scores(ova, q).tobytes()

    def test_training_side_is_built_once_per_model(self, monkeypatch):
        ova, x = self.ova(10, 2, False)
        q = self.queries(10, x, False)
        transposes = []
        to_csr = type(x.T).tocsr

        def counted(matrix, *args, **kwargs):
            transposes.append(matrix.shape)
            return to_csr(matrix, *args, **kwargs)

        monkeypatch.setattr(type(x.T), "tocsr", counted)
        one_by_one = np.vstack([ova_scores(ova, q[i:i + 1]) for i in range(q.shape[0])])
        assert transposes == [x.T.shape]
        assert one_by_one.tobytes() == per_class_ova_scores(ova, q).tobytes()
        first = ova.models[0]
        assert vars(first)["squared_norms"].tobytes() == np.asarray(x.multiply(x).sum(axis=1)).ravel().tobytes()

    def test_all_constant_classes(self):
        ova, x = self.ova(7, 2, False, labels=["has_finding"] * 70)
        assert [m.score for m in ova.models] == [1.0, -1.0, -1.0, -1.0]
        scores = ova_scores(ova, x)
        assert scores.shape == (70, 4)
        assert (scores == np.array([1.0, -1.0, -1.0, -1.0])).all()

    def test_class_models_must_share_rows_and_k(self):
        ova, x = self.ova(8, 2, False)
        copied = replace(ova.models[0], x=ova.models[0].x.copy())
        for first in (copied, replace(ova.models[0], k=3)):
            with pytest.raises(ValueError, match="share one training matrix"):
                ova_scores(replace(ova, models=(first,) + ova.models[1:]), x)

    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_classify_matches_per_query_votes(self, k, integer):
        rng = np.random.default_rng(k)
        x = csr(self.data(k, 60, 5, integer))
        labels = [["u", "v", "w", "null"][i] for i in rng.integers(0, 4, size=60)]
        ova = ova_train(x, labels, "knn", KnnParams(k))
        q = self.queries(k, x, integer)
        scores = per_class_ova_scores(ova, q)
        best = scores.argmax(axis=1)
        want = [ova.classes[b] if row[b] > 0 else "null" for row, b in zip(scores, best)]
        assert ova_classify(ova, q) == want

    def test_no_queries(self):
        ova, x = self.ova(9, 2, False)
        none = csr(np.zeros((0, x.shape[1])))
        assert knn_score(ova.models[0], none).shape == (0,)
        assert ova_scores(ova, none).shape == (0, 4)
        assert ova_classify(ova, none) == []

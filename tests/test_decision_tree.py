import math

import numpy as np
import pytest
from scipy import sparse
from _oracles import (
    c45_gain_ratio,
    list_binary_candidates,
    list_choose_split,
    list_numeric_candidate,
    per_row_c45_score,
)
from scipy.stats import norm

from clinrel.features import FeatureConfig
from clinrel.harness import prepare_folds
from clinrel.learners import (
    DecisionTree,
    Leaf,
    Split,
    TreeParams,
    c45_build,
    c45_score,
    decision_tree,
)
from clinrel.learners.decision_tree import add_errs


def csr(rows):
    return sparse.csr_matrix(np.asarray(rows, dtype=np.float64))


def _entropy(labels):
    total = len(labels)
    out = 0.0
    for c in sorted(set(labels)):
        p = labels.count(c) / total
        out -= p * math.log2(p)
    return out


def _oracle_gain_ratio(values, labels, min_cases=1):
    """Independent best-midpoint scan; ties keep the smaller threshold."""
    pairs = sorted(zip(values, labels), key=lambda p: p[0])
    m = len(pairs)
    info = _entropy([l for _, l in pairs])
    best = None
    for p in range(1, m):
        if pairs[p][0] == pairs[p - 1][0]:
            continue
        if p < min_cases or m - p < min_cases:
            continue
        low = [l for _, l in pairs[:p]]
        high = [l for _, l in pairs[p:]]
        gain = info - (len(low) / m) * _entropy(low) - (len(high) / m) * _entropy(high)
        split_info = -(len(low) / m) * math.log2(len(low) / m) - (
            len(high) / m
        ) * math.log2(len(high) / m)
        threshold = (pairs[p - 1][0] + pairs[p][0]) / 2.0
        if best is None or gain > best[0]:
            best = (gain, split_info, threshold, p)
    if best is None:
        return 0.0, 0.0, None
    gain, split_info, _, _ = best
    return gain, split_info, (gain / split_info if split_info > 0 else None)


def test_gain_ratio_textbook_four_cases():
    x = csr([[0.0], [0.0], [1.0], [1.0]])
    gain, split_info, ratio = c45_gain_ratio(x, ["+", "+", "-", "-"], 0)
    assert gain == pytest.approx(1.0)
    assert split_info == pytest.approx(1.0)
    assert ratio == pytest.approx(1.0)


def test_gain_ratio_single_valued_attribute():
    x = csr([[1.0], [1.0], [1.0]])
    assert c45_gain_ratio(x, ["a", "b", "a"], 0) == (0.0, 0.0, None)


def test_gain_ratio_pure_labels():
    x = csr([[0.0], [1.0], [2.0]])
    gain, split_info, ratio = c45_gain_ratio(x, ["a", "a", "a"], 0)
    assert gain == pytest.approx(0.0)
    assert split_info > 0
    assert ratio == pytest.approx(0.0)


def test_gain_ratio_matches_entropy_oracle_on_random_tables():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = int(rng.integers(4, 16))
        values = rng.normal(size=m)
        labels = [["a", "b", "c"][i] for i in rng.integers(0, 3, size=m)]
        x = csr(values[:, None])
        gain, split_info, ratio = c45_gain_ratio(x, labels, 0)
        egain, esplit, eratio = _oracle_gain_ratio(values.tolist(), labels)
        assert gain == pytest.approx(egain, abs=1e-9)
        assert split_info == pytest.approx(esplit, abs=1e-9)
        if eratio is None:
            assert ratio is None
        else:
            assert ratio == pytest.approx(eratio, abs=1e-9)


def test_midpoint_thresholds():
    x = csr([[1.0], [3.0], [5.0]])
    tree = c45_build(x, ["a", "b", "b"], TreeParams(min_cases=1, prune=False))
    assert isinstance(tree.root, Split)
    assert tree.root.threshold == pytest.approx(2.0)
    assert isinstance(tree.root.low, Leaf) and tree.root.low.label == "a"
    assert isinstance(tree.root.high, Leaf) and tree.root.high.label == "b"


def test_equal_gain_prefers_smaller_threshold():
    # splits after the first and second value tie; the earlier midpoint wins
    x = csr([[0.0], [1.0], [2.0]])
    tree = c45_build(x, ["a", "b", "a"], TreeParams(min_cases=1, prune=False))
    assert tree.root.threshold == pytest.approx(0.5)


def test_candidate_tie_breaks_by_attribute_then_threshold():
    # identical split statistics on both attributes: attribute 0 wins
    x = csr([[0.0, 5.0], [0.0, 5.0], [1.0, 7.0], [1.0, 9.0]])
    tree = c45_build(x, ["+", "+", "-", "-"], TreeParams(min_cases=1, prune=False))
    assert tree.root.attribute == 0
    assert tree.root.threshold == pytest.approx(0.5)


def signs(scores):
    """The "+1"/"-1" label of each signed leaf confidence."""
    return ["+1" if s > 0 else "-1" for s in scores]


def test_unpruned_tree_is_consistent_on_noise_free_data():
    rng = np.random.default_rng(23)
    hp = TreeParams(min_cases=1, prune=False)
    for _ in range(20):
        x = rng.integers(0, 2, size=(40, 5)).astype(np.float64)
        labels = [
            "+1" if (r[0] and not r[2]) or (r[1] and r[3]) else "-1" for r in x
        ]
        tree = c45_build(csr(x), labels, hp)
        assert signs(c45_score(tree, csr(x))) == labels


def test_zero_gain_fallback_solves_parity():
    # XOR has zero gain on both attributes at the root
    x = csr([[0, 0], [0, 1], [1, 0], [1, 1]])
    labels = ["+1", "-1", "-1", "+1"]
    gain, _, _ = c45_gain_ratio(x, labels, 0)
    assert gain == pytest.approx(0.0, abs=1e-12)
    tree = c45_build(x, labels, TreeParams(min_cases=1, prune=False))
    assert signs(c45_score(tree, x)) == labels


def test_identical_rows_become_majority_leaf():
    x = csr([[1.0, 0.0]] * 5)
    tree = c45_build(x, ["a", "a", "a", "b", "b"])
    assert isinstance(tree.root, Leaf)
    assert tree.root.label == "a"
    assert tree.root.n == 5.0
    assert tree.root.errors == 2.0


def test_min_cases_blocks_small_branches():
    x = csr([[0.0], [0.0], [1.0]])
    tree = c45_build(x, ["a", "a", "b"], TreeParams(min_cases=2, prune=False))
    assert isinstance(tree.root, Leaf)
    assert tree.root.label == "a"
    tree1 = c45_build(x, ["a", "a", "b"], TreeParams(min_cases=1, prune=False))
    assert isinstance(tree1.root, Split)


def test_add_errs_zero_error_closed_form():
    for n in range(1, 21):
        expected = n * (1.0 - 0.25 ** (1.0 / n))
        assert add_errs(float(n), 0.0, 0.25) == pytest.approx(expected, abs=1e-12)


def test_add_errs_fractional_error_interpolates():
    base = add_errs(5.0, 0.0, 0.25)
    one = add_errs(5.0, 1.0, 0.25)
    assert add_errs(5.0, 0.3, 0.25) == pytest.approx(base + 0.3 * (one - base), abs=1e-12)


def test_add_errs_saturated_branch():
    assert add_errs(4.0, 3.6, 0.25) == pytest.approx(0.4)
    assert add_errs(4.0, 4.0, 0.25) == 0.0
    assert add_errs(0.0, 0.0, 0.25) == 0.0


def test_add_errs_matches_independent_normal_quantile():
    # recompute the pessimistic-error estimate with scipy's inverse CDF
    for n, e in ((14.0, 6.0), (9.0, 1.0), (12.0, 2.0), (100.0, 5.0), (30.0, 3.0)):
        z = float(norm.ppf(0.75))
        f = (e + 0.5) / n
        r = (
            f
            + z * z / (2 * n)
            + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))
        ) / (1 + z * z / n)
        assert add_errs(n, e, 0.25) == pytest.approx(r * n - e, abs=1e-9)


def test_pruning_collapses_uninformative_split():
    rows = [[0.0]] * 9 + [[1.0]] * 3
    labels = ["no"] * 8 + ["yes"] + ["no", "no", "yes"]
    unpruned = c45_build(csr(rows), labels, TreeParams(prune=False))
    assert isinstance(unpruned.root, Split)
    pruned = c45_build(csr(rows), labels, TreeParams(prune=True))
    assert isinstance(pruned.root, Leaf)
    assert pruned.root.label == "no"
    assert pruned.root.n == 12.0
    assert pruned.root.errors == 2.0


def test_pruning_keeps_informative_split():
    rows = [[0.0]] * 8 + [[1.0]] * 6
    labels = ["no"] * 8 + ["yes"] * 6
    tree = c45_build(csr(rows), labels, TreeParams(prune=True))
    assert isinstance(tree.root, Split)
    assert isinstance(tree.root.low, Leaf) and tree.root.low.label == "no"
    assert isinstance(tree.root.high, Leaf) and tree.root.high.label == "yes"


def test_score_is_signed_laplace_confidence():
    x = csr([[1.0], [1.0], [1.0], [0.0], [0.0]])
    labels = ["+1", "+1", "+1", "-1", "-1"]
    tree = c45_build(x, labels, TreeParams(min_cases=1, prune=False))
    scores = c45_score(tree, csr([[1.0], [0.0]]))
    assert scores[0] == pytest.approx((3 - 0 + 1) / (3 + 2))
    assert scores[1] == pytest.approx(-(2 - 0 + 1) / (2 + 2))


def test_absent_feature_descends_low_branch():
    x = csr([[0.0, 1.0], [1.0, 1.0]])
    tree = c45_build(x, ["+1", "-1"], TreeParams(min_cases=1, prune=False))
    assert tree.root.attribute == 0
    # a query row with no stored value for attribute 0 reads as 0.0: the
    # low leaf's one "+1" case, Laplace confidence (1 + 1) / (1 + 2)
    q = sparse.csr_matrix(([1.0], ([0], [1])), shape=(1, 2))
    assert c45_score(tree, q).tolist() == [2.0 / 3.0]


_MEAN_EPS = 1e-10


def _oracle_build(rows, labels, min_cases):
    """From-scratch recursive builder following the published split policy."""
    classes = sorted(set(labels))
    counts = {c: labels.count(c) for c in classes}
    majority = min(c for c in classes if counts[c] == max(counts.values()))
    errors = len(labels) - max(counts.values())
    if errors == 0 or len(labels) < min_cases:
        return ("leaf", majority)

    n_attrs = len(rows[0])
    candidates = []
    for j in range(n_attrs):
        values = [r[j] for r in rows]
        if all(v in (0.0, 1.0) for v in values):
            n_high = sum(1 for v in values if v == 1.0)
            n_low = len(values) - n_high
            if n_low == 0 or n_high == 0:
                continue
            low = [l for v, l in zip(values, labels) if v == 0.0]
            high = [l for v, l in zip(values, labels) if v == 1.0]
            m = len(labels)
            gain = (
                _entropy(labels)
                - (n_low / m) * _entropy(low)
                - (n_high / m) * _entropy(high)
            )
            split_info = -(n_low / m) * math.log2(n_low / m) - (n_high / m) * math.log2(
                n_high / m
            )
            candidates.append((j, 0.5, gain, split_info, n_low, n_high))
        else:
            pairs = sorted(zip(values, labels), key=lambda p: p[0])
            best = None
            for p in range(1, len(pairs)):
                if pairs[p][0] == pairs[p - 1][0]:
                    continue
                low = [l for _, l in pairs[:p]]
                high = [l for _, l in pairs[p:]]
                m = len(labels)
                gain = (
                    _entropy(labels)
                    - (len(low) / m) * _entropy(low)
                    - (len(high) / m) * _entropy(high)
                )
                split_info = -(len(low) / m) * math.log2(len(low) / m) - (
                    len(high) / m
                ) * math.log2(len(high) / m)
                thr = (pairs[p - 1][0] + pairs[p][0]) / 2.0
                if best is None or gain > best[2]:
                    best = (j, thr, gain, split_info, len(low), len(high))
            if best is not None:
                candidates.append(best)

    valid = [c for c in candidates if c[4] >= min_cases and c[5] >= min_cases]
    if not valid:
        return ("leaf", majority)
    valid.sort(key=lambda c: (c[0], c[1]))
    positive = [c for c in valid if c[2] > 0.0]
    if positive:
        mean_gain = sum(c[2] for c in positive) / len(positive)
        admissible = [c for c in positive if c[2] >= mean_gain - _MEAN_EPS]
        best = admissible[0]
        for c in admissible[1:]:
            # tolerance keeps first-candidate-wins behavior under exact ties
            # that scalar arithmetic resolves differently by one ulp
            if c[2] / c[3] > best[2] / best[3] + 1e-9:
                best = c
        j, thr = best[0], best[1]
    else:
        j, thr = valid[0][0], valid[0][1]
    low_rows = [(r, l) for r, l in zip(rows, labels) if r[j] <= thr]
    high_rows = [(r, l) for r, l in zip(rows, labels) if r[j] > thr]
    return (
        "split",
        j,
        thr,
        _oracle_build([r for r, _ in low_rows], [l for _, l in low_rows], min_cases),
        _oracle_build([r for r, _ in high_rows], [l for _, l in high_rows], min_cases),
    )


def _shape(node):
    if isinstance(node, Leaf):
        return ("leaf", node.label)
    return (
        "split",
        node.attribute,
        pytest.approx(node.threshold, abs=1e-12),
        _shape(node.low),
        _shape(node.high),
    )


def test_full_tree_matches_from_scratch_builder():
    rng = np.random.default_rng(31)
    for trial in range(30):
        m = int(rng.integers(6, 20))
        n = int(rng.integers(2, 5))
        if trial % 2 == 0:
            rows = rng.integers(0, 2, size=(m, n)).astype(np.float64)
        else:
            rows = np.round(rng.normal(size=(m, n)), 3)
        labels = [["a", "b"][i] for i in rng.integers(0, 2, size=m)]
        tree = c45_build(csr(rows), labels, TreeParams(min_cases=2, prune=False))
        expected = _oracle_build(rows.tolist(), labels, 2)

        def compare(node, oracle):
            if oracle[0] == "leaf":
                assert isinstance(node, Leaf), trial
                assert node.label == oracle[1], trial
                return
            assert isinstance(node, Split), trial
            assert node.attribute == oracle[1], trial
            assert node.threshold == pytest.approx(oracle[2], abs=1e-9), trial
            compare(node.low, oracle[3])
            compare(node.high, oracle[4])

        compare(tree.root, expected)


def test_classes_recorded_sorted():
    tree = c45_build(csr([[0.0], [1.0]]), ["z", "a"], TreeParams(min_cases=1))
    assert isinstance(tree, DecisionTree)
    assert tree.classes == ("a", "z")


def test_input_validation():
    with pytest.raises(ValueError):
        c45_build(sparse.csr_matrix((0, 2)), [])
    with pytest.raises(ValueError):
        c45_build(csr([[1.0]]), ["a", "b"])
    with pytest.raises(ValueError):
        c45_gain_ratio(sparse.csr_matrix((0, 1)), [], 0)
    with pytest.raises(ValueError):
        TreeParams(min_cases=0)
    with pytest.raises(ValueError):
        TreeParams(confidence=0.0)
    with pytest.raises(ValueError):
        TreeParams(confidence=0.6)


def _random_table(rng, trial):
    """Small mixed tables built to reach every branch of the split choice.

    Every fourth table is the XOR pattern, where both attributes (and their
    copies) have zero gain; the others mix binary columns, numeric columns
    of a few repeated values (tied midpoint gains), constant columns, and
    copies of earlier columns (tied gain ratios).
    """
    if trial % 4 == 0:
        reps = int(rng.integers(1, 5))
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * reps, dtype=np.float64)
        labels = ["even" if a == b else "odd" for a, b in x]
    else:
        m = int(rng.integers(5, 40))
        cols = [rng.integers(0, 2, size=m).astype(np.float64) for _ in range(int(rng.integers(1, 5)))]
        for _ in range(int(rng.integers(0, 4))):
            cols.append(rng.choice([-1.5, 0.0, 0.5, 2.0, 3.0][: int(rng.integers(2, 6))], size=m))
        if trial % 3 == 0:
            cols.append(np.round(rng.normal(size=m), 1))
        if trial % 5 == 0:
            cols.append(np.full(m, float(trial % 2)))
        x = np.column_stack(cols)
        labels = [["a", "b", "c", "d"][v] for v in rng.integers(0, int(rng.integers(2, 5)), size=m)]
    for _ in range(int(rng.integers(0, 4))):
        j = int(rng.integers(0, x.shape[1]))
        x = np.insert(x, int(rng.integers(0, x.shape[1] + 1)), x[:, j], axis=1)
    return x, labels


def _situation(builder, rows, counts):
    """How the list-based split choice decides at one node."""
    y_rows = builder.y[rows]
    cands = list_binary_candidates(builder, rows, counts)
    tied_midpoints = False
    for attribute in builder.numeric_cols:
        values = builder._column_values(rows, attribute)
        cand = list_numeric_candidate(values, y_rows, len(builder.classes), int(attribute))
        if cand is None:
            continue
        cands.append(cand)
        v = np.sort(values)
        gains = []
        for p in np.flatnonzero(v[1:] != v[:-1]) + 1:
            low = np.bincount(y_rows[values <= v[p - 1]], minlength=len(builder.classes)).astype(float)
            gains.append(decision_tree._split_stats(low, counts - low)[0])
        tied_midpoints |= gains.count(max(gains)) > 1
    valid = [c for c in cands if min(c.n_low, c.n_high) >= builder.hp.min_cases]
    positive = [c for c in valid if c.gain > 0.0]
    if not valid:
        return {"no valid candidate"}
    if not positive:
        return {"no positive gain"}
    mean_gain = sum(c.gain for c in positive) / len(positive)
    ratios = [c.gain / c.split_info for c in positive if c.gain >= mean_gain - 1e-10]
    found = {"informative"}
    if ratios.count(max(ratios)) > 1:
        found.add("tied ratios")
    if tied_midpoints:
        found.add("tied midpoint gains")
    return found


class _Checked(decision_tree._Builder):
    """A builder that checks every split choice against the list-based oracle."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = set()

    def _choose_split(self, rows, counts, present):
        got = super()._choose_split(rows, counts, present)
        assert got == list_choose_split(self, rows, counts)
        self.seen |= _situation(self, rows, counts) | {f"min_cases={self.hp.min_cases}"}
        return got


def _checked_build(x, labels, hp):
    classes = tuple(sorted(set(labels)))
    y = np.array([classes.index(label) for label in labels], dtype=np.intp)
    builder = _Checked(csr(x) if isinstance(x, np.ndarray) else x, y, classes, hp)
    builder.build(np.arange(len(labels), dtype=np.intp))
    return builder.seen


def test_split_choice_matches_list_oracle_at_every_node():
    rng = np.random.default_rng(61)
    seen = set()
    for trial in range(120):
        x, labels = _random_table(rng, trial)
        hp = TreeParams(min_cases=1 + trial % 4, prune=False)
        seen |= _checked_build(x, labels, hp)
    assert seen >= {
        "no valid candidate",
        "no positive gain",
        "informative",
        "tied ratios",
        "tied midpoint gains",
        "min_cases=1",
        "min_cases=2",
        "min_cases=3",
        "min_cases=4",
    }


def test_split_choice_matches_list_oracle_on_default_corpus_fold(corpus40):
    fold = prepare_folds(corpus40, FeatureConfig(), 10, 42, 1)[0]
    labels = ["+1" if label == "has_finding" else "-1" for label in fold.train_labels]
    assert "tied ratios" in _checked_build(fold.x_train, labels, TreeParams())


def test_entropy_rows_match_scalar_entropy_bit_for_bit():
    rng = np.random.default_rng(67)
    for n_classes in range(1, 11):
        counts = rng.integers(0, 4, size=(300, n_classes)).astype(np.float64)
        counts[counts.sum(axis=1) == 0, 0] = 1.0
        want = np.array([decision_tree._entropy(row) for row in counts])
        assert decision_tree._entropy_rows(counts).tobytes() == want.tobytes(), n_classes
        got = decision_tree._entropy_rows(counts.reshape(20, 15, n_classes))
        assert got.tobytes() == want.tobytes(), n_classes


def test_numeric_candidates_equal_list_oracle_fields():
    rng = np.random.default_rng(71)
    for trial in range(200):
        m = int(rng.integers(1, 30))
        n_classes = int(rng.integers(1, 10))
        pool = rng.normal(size=int(rng.integers(1, 6)))
        values = rng.choice(pool, size=(m, 4))
        y = rng.integers(0, n_classes, size=m)
        got = decision_tree._numeric_candidates(values, y, n_classes, np.array([3, 5, 8, 9]))
        want = [list_numeric_candidate(values[:, j], y, n_classes, a) for j, a in enumerate((3, 5, 8, 9))]
        want = [c for c in want if c is not None]
        assert got.attribute.tolist() == [c.attribute for c in want]
        for field in ("threshold", "gain", "split_info", "n_low", "n_high"):
            assert getattr(got, field).tolist() == [getattr(c, field) for c in want], (trial, field)


def _random_trees(rng):
    for trial in range(40):
        m = int(rng.integers(2, 40))
        x = np.column_stack([
            rng.integers(0, 2, size=m).astype(np.float64),
            rng.choice([-1.0, 0.0, 0.25, 2.0], size=m),
            np.round(rng.normal(size=m), 1),
            rng.integers(0, 2, size=m).astype(np.float64),
        ])
        classes = ["+1", "-1"] if trial % 2 else ["+1", "-1", "z"]
        labels = [classes[v] for v in rng.integers(0, len(classes), size=m)]
        hp = TreeParams(min_cases=1 + trial % 3, prune=trial % 4 == 0)
        yield c45_build(csr(x), labels, hp), x


def test_flat_scoring_matches_per_row_walk_bit_for_bit():
    rng = np.random.default_rng(73)
    shapes = set()
    for tree, x in _random_trees(rng):
        shapes.add(isinstance(tree.root, Leaf))
        # training rows, rows on the thresholds, absent values, NaN and negatives
        queries = np.vstack([x, rng.choice([-3.0, -1.0, 0.0, 0.25, 0.5, 1.0, 2.0, np.nan], size=(25, 4))])
        if isinstance(tree.root, Split):
            queries[:5, tree.root.attribute] = tree.root.threshold
        q = csr(queries)
        assert c45_score(tree, q).tobytes() == per_row_c45_score(tree, q).tobytes()
        assert c45_score(tree, sparse.csr_matrix((0, 4))).shape == (0,)
    assert shapes == {True, False}

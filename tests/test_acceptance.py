"""End-to-end acceptance checks.

Each test verifies one numbered criterion and prints a PASS or FAIL line for
it, so a run with output capture disabled shows one line per criterion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import sparse

from clinrel.features import FeatureConfig
from clinrel.experiments import (
    ABLATION_STEPS,
    ABLATION_SYNTACTIC_STEPS,
    experiment_ablation,
    experiment_algorithms,
    experiment_learning_curve,
    experiment_tau_sweep,
)
from clinrel.harness import Metrics, macro_average, prf, run_cv
from clinrel.learners import (
    KernelSpec,
    PaumParams,
    TreeParams,
    apply_uneven_margin,
    c45_build,
    c45_score,
    kernel_matrix,
    knn_score,
    knn_train,
    ova_classify,
    ova_scores,
    ova_train,
    paum_decision,
    paum_train,
    smo_train,
    svm_decision,
)
from clinrel.synth import GeneratorConfig, generate_synthetic

from _oracles import c45_gain_ratio, dual_solve, smo_decision
from test_decision_tree import _oracle_gain_ratio
from test_knn import _oracle as knn_oracle
from test_naive_bayes import _oracle_ova as nb_oracle_ova
from test_paum import _separable_problem


@contextmanager
def criterion(n: int, text: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {text}")
        raise
    print(f"PASS criterion {n}: {text}")


def csr(rows):
    return sparse.csr_matrix(np.asarray(rows, dtype=np.float64))


@pytest.fixture(scope="module")
def corpus6():
    return generate_synthetic(GeneratorConfig(n_docs=6))


def test_criterion_1_smo_matches_independent_dual_solver():
    with criterion(1, "SMO solutions match an independent dual coordinate-ascent solver"):
        rng = np.random.default_rng(20260823)
        started = time.perf_counter()
        worst = 0.0
        for trial in range(50):
            m = int(rng.integers(4, 21))
            dim = int(rng.integers(1, 6))
            xd = rng.normal(size=(m, dim))
            y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
            y[0], y[1] = 1.0, -1.0
            c = float(rng.choice([0.5, 0.7, 1.0, 2.0]))
            spec = KernelSpec() if trial % 2 else KernelSpec("linear")
            x = sparse.csr_matrix(xd)
            sol = smo_train(x, y, c=c, kernel=spec, tol=1e-6)
            assert abs(float(np.dot(sol.alpha, y))) <= 1e-9
            assert np.all(sol.alpha >= -1e-12)
            assert np.all(sol.alpha <= c + 1e-12)
            k = kernel_matrix(spec, x, x)
            alpha_o, _, b_lo, b_hi = dual_solve(k, y, c)
            # with every multiplier at a bound the intercept is only pinned
            # to an interval; compare decisions at the nearest feasible b
            assert b_lo - 1e-4 <= sol.b <= b_hi + 1e-4
            b_eff = min(max(sol.b, b_lo), b_hi)
            queries = sparse.csr_matrix(np.vstack([xd, rng.normal(size=(10, dim))]))
            kq = kernel_matrix(spec, queries, x)
            f_smo = kq @ (sol.alpha * y) + sol.b
            f_oracle = kq @ (alpha_o * y) + b_eff
            worst = max(worst, float(np.max(np.abs(f_smo - f_oracle))))
        elapsed = time.perf_counter() - started
        assert worst < 1e-4, worst
        assert elapsed < 10.0, elapsed


def test_criterion_2_uneven_margin_transform_is_exact():
    with criterion(2, "uneven-margin transform reproduces the worked solution exactly"):
        x = csr([[1.0, 1.0], [-1.0, -1.0]])
        y = np.array([1.0, -1.0])
        sol = smo_train(x, y, c=0.7, kernel=KernelSpec("linear"))
        model = apply_uneven_margin(sol, 0.8)
        w = np.asarray(model.support.T @ model.coef).ravel()
        assert np.allclose(w, [0.45, 0.45], atol=1e-8)
        assert abs(model.intercept - 0.1) <= 1e-8
        assert np.allclose(svm_decision(model, x), [1.0, -0.8], atol=1e-8)
        identity = apply_uneven_margin(sol, 1.0)
        assert np.allclose(svm_decision(identity, x), smo_decision(sol, x), atol=1e-12)


def test_criterion_3_smaller_tau_only_grows_the_positive_region(corpus40):
    with criterion(3, "shrinking the margin parameter only grows the positive region"):
        rng = np.random.default_rng(3)
        xd = rng.normal(size=(40, 2))
        y = np.where(xd[:, 0] + xd[:, 1] > 0, 1.0, -1.0)
        sol = smo_train(sparse.csr_matrix(xd), y, c=1.0, kernel=KernelSpec())
        queries = sparse.csr_matrix(rng.normal(size=(200, 2)) * 2.0)
        positive_sets = []
        for tau in (1.0, 0.8, 0.6, 0.4, 0.2):
            f = svm_decision(apply_uneven_margin(sol, tau), queries)
            positive_sets.append(frozenset(np.flatnonzero(f > 0.0).tolist()))
        for larger_tau, smaller_tau in zip(positive_sets, positive_sets[1:]):
            assert larger_tau <= smaller_tau
        sweep = experiment_tau_sweep(corpus40, values=(1.0, 0.2), k=5)
        assert sweep.per_value[0.2][1].r >= sweep.per_value[1.0][1].r - 1e-12


def test_criterion_4_paum_converges_with_required_margins():
    with criterion(4, "PAUM converges on separable data with both margins enforced"):
        hp = PaumParams(tau_pos=1.0, tau_neg=0.5, eta=1.0, opt_b=0.0, max_epochs=1000)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x, y = _separable_problem(rng)
            model = paum_train(csr(x), y, hp)
            assert model.converged, seed
            scores = paum_decision(model, csr(x))
            margins = y * scores
            assert np.all(margins[y > 0] > hp.tau_pos)
            assert np.all(margins[y < 0] > hp.tau_neg)
        trace = paum_train(
            csr([[1.0], [-1.0]]),
            np.array([1.0, -1.0]),
            PaumParams(tau_pos=1.0, tau_neg=1.0, eta=1.0, opt_b=0.0),
        )
        assert trace.weights.tolist() == [2.0]
        assert trace.bias == 0.0
        assert trace.epochs == 2
        assert trace.converged


def test_criterion_5_decision_tree_matches_entropy_oracle():
    with criterion(5, "decision-tree splits match an entropy oracle and fit consistent data"):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(4, 25))
            values = rng.choice([0.0, 1.0, 2.0, 3.0], size=m)
            labels = [["a", "b", "c"][v] for v in rng.integers(0, 3, size=m)]
            got = c45_gain_ratio(csr(values.reshape(-1, 1)), labels, 0)
            expected = _oracle_gain_ratio(values.tolist(), labels)
            assert got[0] == pytest.approx(expected[0], abs=1e-9)
            assert got[1] == pytest.approx(expected[1], abs=1e-9)
            if expected[2] is None:
                assert got[2] is None
            else:
                assert got[2] == pytest.approx(expected[2], abs=1e-9)
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            x = rng.integers(0, 2, size=(40, 6)).astype(np.float64)
            cols = rng.choice(6, size=3, replace=False)
            table = rng.integers(0, 2, size=8)
            idx = (x[:, cols] @ np.array([4, 2, 1])).astype(int)
            labels = ["+1" if table[i] else "-1" for i in idx]
            tree = c45_build(csr(x), labels, TreeParams(min_cases=1, prune=False))
            assert ["+1" if s > 0 else "-1" for s in c45_score(tree, csr(x))] == labels


def test_criterion_6_knn_and_nb_agree_with_brute_force():
    with criterion(6, "KNN and Naive Bayes agree with brute-force scorers"):
        rng = np.random.default_rng(6)
        x_rows = rng.integers(0, 2, size=(40, 12)).tolist()
        nb_labels = [["p", "q", "r"][v] for v in rng.integers(0, 3, size=40)]
        nb_model = ova_train(csr(x_rows), nb_labels, "nb")
        nb_queries = rng.integers(0, 2, size=(100, 12)).tolist()
        scores = ova_scores(nb_model, csr(nb_queries))
        predicted = ova_classify(nb_model, csr(nb_queries))
        for q, query in enumerate(nb_queries):
            expected, label = nb_oracle_ova(x_rows, nb_labels, query)
            assert np.allclose(scores[q], expected, atol=1e-9)
            assert predicted[q] == label

        x = rng.normal(size=(30, 5))
        knn_labels = [["+1", "-1"][i] for i in rng.integers(0, 2, size=30)]
        model = knn_train(csr(x), knn_labels, k=2)
        queries = rng.normal(size=(100, 5))
        got = knn_score(model, csr(queries))
        for q, query in enumerate(queries):
            _, shares = knn_oracle(x.tolist(), knn_labels, 2, query.tolist())
            assert got[q] == pytest.approx(shares.get("+1", 0.0) - shares.get("-1", 0.0), abs=1e-9)


def test_criterion_7_metrics_match_hand_computation():
    with criterion(7, "precision/recall/F1 and macro averaging match hand values"):
        m = prf(3, 1, 2)
        assert m.p == pytest.approx(0.75)
        assert m.r == pytest.approx(0.6)
        assert m.f1 == pytest.approx(2 / 3)
        assert prf(0, 0, 0) == Metrics(0.0, 0.0, 0.0)
        assert prf(0, 4, 0) == Metrics(0.0, 0.0, 0.0)
        averaged = macro_average([prf(1, 0, 1), prf(1, 1, 0)])
        assert averaged.f1 == pytest.approx(2 / 3)
        assert 2 * averaged.p * averaged.r / (averaged.p + averaged.r) == pytest.approx(0.75)


def test_criterion_8_default_protocol_hits_pinned_score(corpus40):
    with criterion(8, "10-fold SVM protocol on the default corpus hits the pinned score"):
        started = time.perf_counter()
        report = run_cv(corpus40, "svm", k=10)
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, elapsed
        assert report.overall.f1 == pytest.approx(1.0, abs=0.02)


def test_criterion_9_learning_curve_is_monotone_within_tolerance(corpus40):
    with criterion(9, "learning-curve F1 never drops by more than the tolerance"):
        report = experiment_learning_curve(corpus40, "svm", k=10)
        assert report.sizes == (20, 30, 40)
        f1s = [report.reports[n].overall.f1 for n in report.sizes]
        for smaller, larger in zip(f1s, f1s[1:]):
            assert larger >= smaller - 0.05, f1s


def test_criterion_10_feature_columns_pinned_and_inter_matters(corpus40):
    with criterion(10, "ablation columns are pinned and the intervening-mention set changes the score"):
        assert tuple(label for label, _ in ABLATION_STEPS) == (
            "Tok6+Atype", "+Dir", "+Str", "+POS", "+Inter", "+Event", "Allgen", "NoTok",
        )
        assert tuple(label for label, _ in ABLATION_SYNTACTIC_STEPS) == (
            "+Event", "+Dep", "+Syndist",
        )
        for (_, prev), (_, cur) in zip(ABLATION_STEPS[:5], ABLATION_STEPS[1:6]):
            assert cur[:-1] == prev
        assert ABLATION_STEPS[6][1] == ("allgen",)
        assert ABLATION_STEPS[7][1] == ("notok",)
        base = run_cv(
            corpus40, "svm",
            feature_cfg=FeatureConfig.of("tok6", "atype", "dir", "str", "pos"), k=5,
        )
        with_inter = run_cv(
            corpus40, "svm",
            feature_cfg=FeatureConfig.of("tok6", "atype", "dir", "str", "pos", "inter"), k=5,
        )
        assert with_inter.overall.f1 != base.overall.f1


def test_criterion_11_machine_reports_are_rerun_stable(corpus6):
    with criterion(11, "machine reports are byte-identical across reruns once runtime is excluded"):
        drivers = (
            lambda: experiment_algorithms(corpus6, k=3),
            lambda: experiment_tau_sweep(corpus6, values=(1.0, 0.6), k=3),
            lambda: experiment_ablation(corpus6, algorithm="nb", k=3),
            lambda: experiment_learning_curve(corpus6, algorithm="nb", k=3),
        )
        for driver in drivers:
            first = driver().to_json(include_runtime=False)
            second = driver().to_json(include_runtime=False)
            assert first == second

"""One SVM Gram matrix per fold, cut from the dot products the folds share.

Each fold's Gram matrix, cut from the shared X·Xᵀ and transformed, must
equal byte for byte the Gram matrix the fold's own ``KernelCache`` builds.
X·Xᵀ is built only when it and the largest fold's Gram matrix fit the
budget together, and a fold trains on its cut only when the cut fits its
``cache_mb`` beside X·Xᵀ; otherwise every fold builds its own cache, on the
path (full or LRU) it would take alone.
"""

import numpy as np
import pytest

from clinrel import harness
from clinrel.experiments import ABLATION_STEPS, ABLATION_SYNTACTIC_STEPS
from clinrel.features import FeatureConfig
from clinrel.harness import corpus_features, prepare_folds, run_cv, shared_dots
from clinrel.learners import KernelCache, SvmParams, multiclass, params_for
from clinrel.synth import GeneratorConfig, generate_synthetic

from _oracles import local_prepare_folds

SPEC = SvmParams().kernel
CACHE_MB = SvmParams().cache_mb


def assert_slices_equal_fold_grams(folds):
    shared = shared_dots(folds, CACHE_MB)
    assert shared is not None
    for fold, dots in zip(folds, shared):
        own = KernelCache(fold.x_train, SPEC, CACHE_MB)
        assert own._gram is not None
        sliced = KernelCache(fold.x_train, SPEC, CACHE_MB, gram=dots.gram(SPEC, CACHE_MB))
        assert sliced._gram.shape == own._gram.shape
        assert sliced._gram.tobytes() == own._gram.tobytes()
    return shared[0].dots


def test_algorithms_plan(corpus40):
    folds = prepare_folds(corpus40, FeatureConfig(), 10, 42)
    dots = assert_slices_equal_fold_grams(folds)
    assert dots.shape[0] == folds[0].origin.source.shape[0]  # every row is in some fold


def test_ablation_configs_from_superset_features(corpus40):
    steps = ABLATION_STEPS + ABLATION_SYNTACTIC_STEPS
    superset = FeatureConfig(frozenset().union(*(FeatureConfig.of(*sets).sets for _, sets in steps)))
    features = corpus_features(corpus40, superset)
    for sets in (("tok6", "atype", "dir"), ("notok",)):
        folds = prepare_folds(corpus40, FeatureConfig.of(*sets), 10, 42, features=features)
        assert folds[0].origin.source is features.x
        assert_slices_equal_fold_grams(folds)


def test_learning_curve_prefix_subset(corpus40):
    features = corpus_features(corpus40, FeatureConfig())
    subset = corpus40.subset(20)
    folds = prepare_folds(subset, FeatureConfig(), 10, 42, features=features)
    dots = assert_slices_equal_fold_grams(folds)
    subset_rows = sum(hi - lo for doc_id, (lo, hi) in features.rows.items() if doc_id in {d.id for d in subset})
    assert dots.shape == (subset_rows, subset_rows)


@pytest.fixture(scope="module")
def corpus12():
    return generate_synthetic(GeneratorConfig(n_docs=12))


def _recorded_run_cv(monkeypatch, corpus, folds, cache_mb):
    """run_cv for svm; each cache built, as (given a Gram matrix, full Gram matrix)."""
    made = []

    class Recorded(KernelCache):
        def __init__(self, x, spec, budget, **kwargs):
            super().__init__(x, spec, budget, **kwargs)
            made.append((kwargs.get("gram") is not None, self._gram is not None))

    monkeypatch.setattr(multiclass, "KernelCache", Recorded)
    report = run_cv(corpus, "svm", params_for("svm", cache_mb=cache_mb), folds=folds)
    return report.to_json(include_runtime=False), made


def test_fallback_paths_give_the_same_report(corpus12, monkeypatch):
    folds = prepare_folds(corpus12, FeatureConfig(), 3, 42)
    n = np.unique(np.concatenate([f.train_rows for f in folds])).size
    m = max(f.x_train.shape[0] for f in folds)
    only_folds_fit = n * n * 8 / 1e6  # X·Xᵀ fits, but not with a fold's Gram matrix beside it
    lru = m * m * 8 / 1e6 / 2
    assert shared_dots(folds, only_folds_fit) is None
    assert shared_dots(folds, lru) is None
    assert folds[0].origin.dots is None

    shared, made = _recorded_run_cv(monkeypatch, corpus12, folds, CACHE_MB)
    assert made == [(True, True)] * 3
    # scoring keeps cutting from X·Xᵀ within the default budget, whatever the SVM's own
    per_fold, made = _recorded_run_cv(monkeypatch, corpus12, folds, only_folds_fit)
    assert made == [(False, True)] * 3
    lru_report, made = _recorded_run_cv(monkeypatch, corpus12, folds, lru)
    assert made == [(False, False)] * 3
    assert shared == per_fold == lru_report


def test_a_budget_above_the_default_still_shares(corpus12, monkeypatch):
    folds = prepare_folds(corpus12, FeatureConfig(), 3, 42)
    n = np.unique(np.concatenate([f.train_rows for f in folds])).size
    m = max(f.x_train.shape[0] for f in folds)
    # a default budget that holds X·Xᵀ but not a fold's Gram matrix beside it
    monkeypatch.setattr(harness, "SvmParams", lambda: SvmParams(cache_mb=n * n * 8 / 1e6))
    both_fit = (n * n + m * m) * 8 / 1e6
    _, made = _recorded_run_cv(monkeypatch, corpus12, folds, both_fit)
    assert made == [(True, True)] * 3


def test_folds_without_row_numbers_build_their_own(corpus12, monkeypatch):
    folds = local_prepare_folds(corpus12, FeatureConfig(), 3, 42, 1)
    assert shared_dots(folds, CACHE_MB) is None
    local, made = _recorded_run_cv(monkeypatch, corpus12, folds, CACHE_MB)
    assert made == [(False, True)] * 3
    sliced, _ = _recorded_run_cv(monkeypatch, corpus12, prepare_folds(corpus12, FeatureConfig(), 3, 42), CACHE_MB)
    assert local == sliced


def test_given_gram_must_match_and_fit(corpus12):
    (fold, *_) = prepare_folds(corpus12, FeatureConfig(), 3, 42)
    m = fold.x_train.shape[0]
    with pytest.raises(ValueError):
        KernelCache(fold.x_train, SPEC, CACHE_MB, gram=np.zeros((m - 1, m - 1)))
    with pytest.raises(ValueError):
        KernelCache(fold.x_train, SPEC, m * m * 8 / 1e6 / 2, gram=np.zeros((m, m)))

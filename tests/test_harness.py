import pytest

from clinrel import harness
from clinrel.corpus import RelationInstance
from clinrel.experiments import ABLATION_STEPS, ABLATION_SYNTACTIC_STEPS, experiment_ablation
from clinrel.features import FeatureConfig, build_index
from clinrel.harness import (
    CvReport,
    FoldResult,
    MatchCounts,
    Metrics,
    aggregate_folds,
    corpus_features,
    fold_metrics,
    macro_average,
    make_folds,
    match_relations,
    prepare_folds,
    prf,
    run_cv,
    score_fold,
)
from clinrel.pairing import labeled_instances
from clinrel.features import extract
from clinrel.schema import RELATION_TYPES, RelationType
from clinrel.synth import GeneratorConfig, generate_synthetic

from _oracles import assert_same_csr, labeled_counts, local_prepare_folds
from test_synth import GOLD_COUNTS


class TestPrf:
    def test_hand_example(self):
        m = prf(3, 1, 2)
        assert m.p == pytest.approx(0.75)
        assert m.r == pytest.approx(0.6)
        assert m.f1 == pytest.approx(2 / 3)

    def test_zero_conventions(self):
        assert prf(0, 0, 5) == Metrics(0.0, 0.0, 0.0)
        assert prf(0, 3, 0) == Metrics(0.0, 0.0, 0.0)
        assert prf(0, 0, 0) == Metrics(0.0, 0.0, 0.0)
        assert prf(0, 2, 3) == Metrics(0.0, 0.0, 0.0)

    def test_perfect(self):
        assert prf(5, 0, 0) == Metrics(1.0, 1.0, 1.0)


class TestMacroAverage:
    def test_empty_is_none(self):
        assert macro_average([]) is None

    def test_componentwise_means(self):
        got = macro_average([Metrics(1.0, 0.0, 0.5), Metrics(0.0, 1.0, 0.5)])
        assert got == Metrics(0.5, 0.5, 0.5)

    def test_f1_mean_is_not_harmonic_of_means(self):
        # both folds have F1 = 2/3, so the mean F1 is 0.6667; the harmonic
        # mean of the averaged P and R would instead give 0.75
        folds = [prf(1, 0, 1), prf(1, 1, 0)]
        got = macro_average(folds)
        assert got.p == pytest.approx(0.75)
        assert got.r == pytest.approx(0.75)
        assert got.f1 == pytest.approx(2 / 3)
        harmonic = 2 * got.p * got.r / (got.p + got.r)
        assert harmonic == pytest.approx(0.75)
        assert got.f1 != pytest.approx(harmonic)


class TestMatchCounts:
    def test_accumulate_and_merge(self):
        a = MatchCounts()
        a.add(RelationType.HAS_TARGET, tp=2, fp=1)
        a.add(RelationType.HAS_TARGET, fn=3)
        b = MatchCounts()
        b.add(RelationType.HAS_TARGET, tp=1)
        b.add(RelationType.HAS_FINDING, fp=4)
        a.merge(b)
        assert a.for_type(RelationType.HAS_TARGET) == (3, 1, 3)
        assert a.for_type(RelationType.HAS_FINDING) == (0, 4, 0)
        assert a.for_type(RelationType.HAS_LOCATION) == (0, 0, 0)
        assert a.micro_total() == (3, 5, 3)


def rel(rtype, a, b):
    return RelationInstance(rtype, a, b)


class TestMatchRelations:
    def test_exact_match(self):
        key = [rel(RelationType.HAS_TARGET, "e1", "e2")]
        counts = match_relations(key, key)
        assert counts.for_type(RelationType.HAS_TARGET) == (1, 0, 0)

    def test_wrong_type_is_fp_plus_fn(self):
        response = [rel(RelationType.HAS_TARGET, "e1", "e2")]
        key = [rel(RelationType.HAS_FINDING, "e1", "e2")]
        counts = match_relations(response, key)
        assert counts.for_type(RelationType.HAS_TARGET) == (0, 1, 0)
        assert counts.for_type(RelationType.HAS_FINDING) == (0, 0, 1)

    def test_swapped_arguments_do_not_match(self):
        response = [rel(RelationType.HAS_TARGET, "e2", "e1")]
        key = [rel(RelationType.HAS_TARGET, "e1", "e2")]
        counts = match_relations(response, key)
        assert counts.for_type(RelationType.HAS_TARGET) == (0, 1, 1)

    def test_duplicates_collapse(self):
        response = [
            rel(RelationType.HAS_TARGET, "e1", "e2"),
            rel(RelationType.HAS_TARGET, "e1", "e2"),
        ]
        key = [rel(RelationType.HAS_TARGET, "e1", "e2")]
        counts = match_relations(response, key)
        assert counts.for_type(RelationType.HAS_TARGET) == (1, 0, 0)

    def test_null_filtered_from_both_sides(self):
        response = [rel(RelationType.NULL, "e1", "e2")]
        key = [rel(RelationType.NULL, "e3", "e4")]
        assert match_relations(response, key).micro_total() == (0, 0, 0)

    def test_tp_plus_fn_covers_key(self):
        key = [
            rel(RelationType.HAS_TARGET, "e1", "e2"),
            rel(RelationType.HAS_FINDING, "e1", "e3"),
            rel(RelationType.HAS_LOCATION, "e4", "e5"),
        ]
        response = [rel(RelationType.HAS_TARGET, "e1", "e2")]
        counts = match_relations(response, key)
        tp, _, fn = counts.micro_total()
        assert tp + fn == 3


class TestMakeFolds:
    def test_round_robin_shapes(self, corpus40):
        plan = make_folds(corpus40, 10, 42)
        assert len(plan) == 10
        assert all(len(f) == 4 for f in plan)
        seen = [doc_id for fold in plan for doc_id in fold]
        assert sorted(seen) == [f"d{i:03d}" for i in range(40)]

    def test_singleton_folds(self, corpus40):
        plan = make_folds(corpus40, 40, 42)
        assert all(len(f) == 1 for f in plan)

    def test_seed_determinism(self, corpus40):
        assert make_folds(corpus40, 10, 42) == make_folds(corpus40, 10, 42)
        assert make_folds(corpus40, 10, 42) != make_folds(corpus40, 10, 7)

    def test_k_bounds(self, corpus40):
        with pytest.raises(ValueError, match="k must be >= 2"):
            make_folds(corpus40, 1)
        with pytest.raises(ValueError, match="exceeds the document count"):
            make_folds(corpus40, 41)


@pytest.fixture(scope="module")
def corpus6():
    return generate_synthetic(GeneratorConfig(n_docs=6))


class TestPrepareFolds:
    def test_shapes_and_widths(self, corpus6):
        folds = prepare_folds(corpus6, FeatureConfig(), k=3, seed=42)
        assert len(folds) == 3
        total_test = 0
        for fold in folds:
            assert fold.x_test.shape[1] == fold.x_train.shape[1]
            assert fold.x_test.shape[0] == len(fold.test_instances)
            assert len(fold.train_labels) == fold.x_train.shape[0]
            total_test += len(fold.test_instances)
        whole = sum(
            len(labeled_instances(doc, 1)[0]) for doc in corpus6
        )
        assert total_test == whole

    def test_index_built_from_training_folds_only(self, corpus6):
        cfg = FeatureConfig()
        folds = prepare_folds(corpus6, cfg, k=3, seed=42)
        plan = make_folds(corpus6, 3, 42)
        docs = {d.id: d for d in corpus6}
        for f, fold in enumerate(folds):
            train_vectors = []
            for doc_id, doc in docs.items():
                if doc_id in plan[f]:
                    continue
                instances, _ = labeled_instances(doc, 1)
                train_vectors.extend(extract(doc, [i.pair for i in instances], cfg))
            assert fold.x_train.shape[1] == len(build_index(train_vectors))


ABLATION_CONFIGS = tuple(
    dict.fromkeys(FeatureConfig.of(*sets) for _, sets in ABLATION_STEPS + ABLATION_SYNTACTIC_STEPS)
)
ALL_ABLATION_SETS = FeatureConfig(frozenset().union(*(cfg.sets for cfg in ABLATION_CONFIGS)))


def assert_same_fold(got, want):
    assert got.train_labels == want.train_labels
    assert got.test_instances == want.test_instances
    assert got.test_docs == want.test_docs
    assert_same_csr(got.x_train, want.x_train)
    assert_same_csr(got.x_test, want.x_test)


class TestSlicedFoldsEqualLocalFolds:
    """Slices of one corpus matrix equal folds indexed from their own training vectors."""

    def test_ablation_configs_from_one_superset(self, corpus6):
        features = corpus_features(corpus6, ALL_ABLATION_SETS, 1)
        for cfg in ABLATION_CONFIGS:
            got = prepare_folds(corpus6, cfg, 3, 42, 1, features=features)
            want = local_prepare_folds(corpus6, cfg, 3, 42, 1)
            assert len(got) == len(want) == 3
            for g, w in zip(got, want):
                assert_same_fold(g, w)

    def test_other_window_from_its_own_features(self, corpus6):
        cfg = FeatureConfig.of("tok3", "gentok2")
        for g, w in zip(prepare_folds(corpus6, cfg, 3, 42, 1), local_prepare_folds(corpus6, cfg, 3, 42, 1)):
            assert_same_fold(g, w)

    def test_default_corpus_fold_zero(self, corpus40):
        features = corpus_features(corpus40, ALL_ABLATION_SETS, 1)
        for cfg in ABLATION_CONFIGS:
            got = prepare_folds(corpus40, cfg, 10, 42, 1, features=features)[0]
            (want,) = local_prepare_folds(corpus40, cfg, 10, 42, 1, only=[0])
            assert_same_fold(got, want)
        cfg = FeatureConfig.of("tok3", "gentok2")
        (want,) = local_prepare_folds(corpus40, cfg, 10, 42, 1, only=[0])
        assert_same_fold(prepare_folds(corpus40, cfg, 10, 42, 1)[0], want)

    def test_prefix_subset_from_full_corpus_features(self, corpus6):
        features = corpus_features(corpus6, FeatureConfig(), 1)
        subset = corpus6.subset(4)
        got = prepare_folds(subset, FeatureConfig(), 2, 42, 1, features=features)
        for g, w in zip(got, local_prepare_folds(subset, FeatureConfig(), 2, 42, 1)):
            assert_same_fold(g, w)


class TestSplitMemo:
    """One ``CorpusFeatures`` serves many calls, which reuse its memoized fold splits.

    Each call must still equal folds built from scratch, so a split served
    under the wrong key fails here.
    """

    def assert_same_as_local(self, corpus, cfg, k, seed, features):
        got = prepare_folds(corpus, cfg, k, seed, 1, features=features)
        want = local_prepare_folds(corpus, cfg, k, seed, 1)
        assert len(got) == len(want) == k
        for g, w in zip(got, want):
            assert_same_fold(g, w)

    def test_fold_seeds_then_fold_counts(self, corpus40):
        features = corpus_features(corpus40, FeatureConfig(), 1)
        for k, seed in ((10, 42), (10, 3), (3, 3)):
            self.assert_same_as_local(corpus40, FeatureConfig(), k, seed, features)
        assert len(features.splits) == 3
        self.assert_same_as_local(corpus40, FeatureConfig(), 10, 42, features)
        assert len(features.splits) == 3

    def test_prefix_subset_then_full_corpus(self, corpus6):
        features = corpus_features(corpus6, FeatureConfig(), 1)
        for corpus, k in ((corpus6.subset(4), 2), (corpus6, 2), (corpus6.subset(4), 2), (corpus6, 3)):
            self.assert_same_as_local(corpus, FeatureConfig(), k, 42, features)
        assert len(features.splits) == 3

    def test_every_ablation_config_of_the_default_corpus(self, corpus40):
        features = corpus_features(corpus40, ALL_ABLATION_SETS, 1)
        assert len(ABLATION_CONFIGS) == 10
        for cfg in ABLATION_CONFIGS:
            self.assert_same_as_local(corpus40, cfg, 10, 42, features)
        assert len(features.splits) == 1

    def test_split_rows_are_read_only(self, corpus6):
        fold = prepare_folds(corpus6, FeatureConfig(), 3, 42, 1)[0]
        with pytest.raises(ValueError, match="read-only"):
            fold.train_rows[0] = 0


class TestPrepareFoldsInputGuard:
    def test_other_window(self, corpus6):
        features = corpus_features(corpus6, FeatureConfig.of("tok3"), 1)
        with pytest.raises(ValueError, match="window 3, not 6"):
            prepare_folds(corpus6, FeatureConfig.of("tok6"), 3, 42, 1, features=features)

    def test_other_max_crossings(self, corpus6):
        features = corpus_features(corpus6, FeatureConfig(), 0)
        with pytest.raises(ValueError, match="max_crossings 0, not 1"):
            prepare_folds(corpus6, FeatureConfig(), 3, 42, 1, features=features)

    def test_missing_feature_set(self, corpus6):
        features = corpus_features(corpus6, FeatureConfig.of("atype"), 1)
        with pytest.raises(ValueError, match=r"lack the feature sets \['dir'\]"):
            prepare_folds(corpus6, FeatureConfig.of("atype", "dir"), 3, 42, 1, features=features)

    def test_missing_document(self, corpus6):
        features = corpus_features(corpus6.subset(4), FeatureConfig(), 1)
        with pytest.raises(ValueError, match="no rows for documents"):
            prepare_folds(corpus6, FeatureConfig(), 3, 42, 1, features=features)


def test_ablation_extracts_each_instance_once(corpus6, monkeypatch):
    docs, pairs = [], []
    original = harness.extract

    def counted(doc, doc_pairs, cfg):
        docs.append(doc.id)
        pairs.extend(doc_pairs)
        return original(doc, doc_pairs, cfg)

    monkeypatch.setattr(harness, "extract", counted)
    experiment_ablation(corpus6, algorithm="nb", k=3)
    assert docs == [doc.id for doc in corpus6]
    assert len(pairs) == sum(len(labeled_instances(doc, 1)[0]) for doc in corpus6)
    assert len(set(pairs)) == len(pairs)


class TestScoring:
    def test_gold_predictions_score_perfectly(self, corpus6):
        folds = prepare_folds(corpus6, FeatureConfig(), k=3, seed=42)
        for fold in folds:
            predicted = [inst.label.value for inst in fold.test_instances]
            counts = score_fold(fold, predicted)
            tp, fp, fn = counts.micro_total()
            assert fp == 0
            # gold not reachable at the crossing limit still counts against recall
            gold = sum(len(d.relations) for d in fold.test_docs)
            assert tp + fn == gold

    def test_all_null_predictions_miss_everything(self, corpus6):
        folds = prepare_folds(corpus6, FeatureConfig(), k=3, seed=42)
        fold = folds[0]
        counts = score_fold(fold, ["null"] * len(fold.test_instances))
        tp, fp, fn = counts.micro_total()
        assert (tp, fp) == (0, 0)
        assert fn == sum(len(d.relations) for d in fold.test_docs)

    def test_fold_metrics_absent_type_is_none(self):
        counts = MatchCounts()
        counts.add(RelationType.HAS_TARGET, tp=2, fn=1)
        per_type, overall = fold_metrics(counts)
        assert per_type[RelationType.HAS_TARGET] == prf(2, 0, 1)
        assert per_type[RelationType.NEGATION_MODIFIES] is None
        assert overall == prf(2, 0, 1)


class TestAggregateFolds:
    def _fold(self, per_type, overall):
        return FoldResult(per_type, overall, 0)

    def test_type_absent_from_fold_not_averaged(self):
        base = {rtype: None for rtype in RELATION_TYPES}
        f0 = dict(base)
        f0[RelationType.HAS_TARGET] = Metrics(1.0, 1.0, 1.0)
        f1 = dict(base)
        per_type, overall = aggregate_folds(
            [
                self._fold(f0, Metrics(1.0, 1.0, 1.0)),
                self._fold(f1, Metrics(0.0, 0.0, 0.0)),
            ]
        )
        assert per_type[RelationType.HAS_TARGET] == Metrics(1.0, 1.0, 1.0)
        assert per_type[RelationType.HAS_FINDING] is None
        assert overall == Metrics(0.5, 0.5, 0.5)


class TestRunCv:
    def test_report_shape(self, corpus6):
        report = run_cv(corpus6, "nb", k=3)
        assert isinstance(report, CvReport)
        assert report.algorithm == "nb"
        assert report.k == 3
        assert report.seed == 42
        assert len(report.folds) == 3
        assert set(report.per_type) == set(RELATION_TYPES)
        assert report.runtime_seconds > 0.0
        assert 0.0 <= report.overall.f1 <= 1.0

    def test_deterministic_without_runtime(self, corpus6):
        a = run_cv(corpus6, "nb", k=3).to_json(include_runtime=False)
        b = run_cv(corpus6, "nb", k=3).to_json(include_runtime=False)
        assert a == b
        assert "runtime" not in a

    def test_runtime_included_by_default(self, corpus6):
        obj = run_cv(corpus6, "nb", k=3).to_obj()
        assert "runtime_seconds" in obj

    def test_prepared_folds_reused(self, corpus6):
        folds = prepare_folds(corpus6, FeatureConfig(), k=3, seed=42)
        a = run_cv(corpus6, "nb", folds=folds).to_json(include_runtime=False)
        b = run_cv(corpus6, "nb", k=3).to_json(include_runtime=False)
        assert a == b


def test_count_instances_matches_frozen_gold(corpus40):
    assert labeled_counts(corpus40, 1) == GOLD_COUNTS


def test_count_instances_crossing_limit(corpus40):
    zero = labeled_counts(corpus40, 0)
    one = labeled_counts(corpus40, 1)
    assert sum(zero.values()) <= sum(one.values())

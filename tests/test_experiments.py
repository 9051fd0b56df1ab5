import json
import re

import numpy as np
import pytest
from scipy import sparse

from clinrel.experiments import (
    ABLATION_STEPS,
    ABLATION_SYNTACTIC_STEPS,
    DEFAULT_TAU_VALUES,
    curve_sizes,
    experiment_ablation,
    experiment_algorithms,
    experiment_learning_curve,
    experiment_tau_sweep,
)
from clinrel.features import FeatureConfig
from clinrel.harness import prepare_folds, run_cv
from clinrel.learners import LEARNERS, SmoSolution, apply_uneven_margin, params_for, smo_train
from clinrel.learners.svm import with_margin
from clinrel.synth import GeneratorConfig, generate_synthetic

from _oracles import labeled_counts

CELL = re.compile(r"^(-|\d+\.\d{2})$")

REPORT_ROWS = (
    "Has_finding", "Has_indication", "Has_location", "Has_target",
    "Laterality_modifies", "Negation_modifies", "Sub-location_modifies",
)


@pytest.fixture(scope="module")
def corpus6():
    return generate_synthetic(GeneratorConfig(n_docs=6))


@pytest.fixture(scope="module")
def algorithms_report(corpus6):
    return experiment_algorithms(corpus6, k=3)


@pytest.fixture(scope="module")
def tau_report(corpus6):
    return experiment_tau_sweep(corpus6, k=3)


@pytest.fixture(scope="module")
def ablation_report(corpus6):
    return experiment_ablation(corpus6, algorithm="nb", k=3)


@pytest.fixture(scope="module")
def curve_report(corpus6):
    return experiment_learning_curve(corpus6, algorithm="nb", k=3)


class TestAlgorithmsTable:
    def test_header(self, algorithms_report):
        lines = algorithms_report.to_table().splitlines()
        assert lines[0] == "Relationship type\tMetric (%)\tNaive Bayes\tC4.5\tKNN\tPAUM\tSVM UM"

    def test_row_layout(self, algorithms_report):
        lines = algorithms_report.to_table().splitlines()
        # header + 7 types x 3 metrics + 3 overall + runtime
        assert len(lines) == 26
        for t, label in enumerate(REPORT_ROWS):
            block = lines[1 + 3 * t : 4 + 3 * t]
            assert block[0].split("\t")[:2] == [label, "P"]
            assert block[1].split("\t")[:2] == ["", "R"]
            assert block[2].split("\t")[:2] == ["", "F1"]
        assert lines[22].split("\t")[:2] == ["Overall", "P"]
        assert lines[25].startswith("Run Time in seconds\t")

    def test_cell_format(self, algorithms_report):
        lines = algorithms_report.to_table().splitlines()
        for line in lines[1:25]:
            for cell in line.split("\t")[2:]:
                assert CELL.match(cell), cell
        runtimes = lines[25].split("\t")[2:]
        assert len(runtimes) == 5
        assert all(re.match(r"^\d+\.\d{2}$", c) for c in runtimes)

    def test_trailing_newline(self, algorithms_report):
        assert algorithms_report.to_table().endswith("\n")

    def test_obj_columns(self, algorithms_report):
        obj = algorithms_report.to_obj(include_runtime=False)
        assert obj["experiment"] == "algorithms"
        labels = [c["label"] for c in obj["columns"]]
        assert labels == [LEARNERS[a].label for a in ("nb", "c45", "knn", "paum", "svm")]
        for col in obj["columns"]:
            assert "runtime_seconds" not in col["report"]

    def test_json_is_rerun_stable(self, corpus6, algorithms_report):
        again = experiment_algorithms(corpus6, k=3)
        assert algorithms_report.to_json(include_runtime=False) == again.to_json(
            include_runtime=False
        )


class TestTauSweep:

    def test_header_renders_trimmed_floats(self, tau_report):
        lines = tau_report.to_table().splitlines()
        assert lines[0] == "Uneven margin (τ)\tMetric (%)\t1\t0.8\t0.6\t0.4\t0.2"

    def test_overall_relations_block(self, tau_report):
        lines = tau_report.to_table().splitlines()
        assert len(lines) == 4
        assert lines[1].split("\t")[:2] == ["Overall Relations", "P"]
        assert lines[2].split("\t")[:2] == ["", "R"]
        assert lines[3].split("\t")[:2] == ["", "F1"]
        for line in lines[1:]:
            assert all(CELL.match(c) for c in line.split("\t")[2:])

    def test_values_preserved(self, tau_report):
        assert tau_report.values == DEFAULT_TAU_VALUES
        assert set(tau_report.per_value) == set(DEFAULT_TAU_VALUES)
        assert tau_report.k == 3

    def test_obj_shape(self, tau_report):
        obj = tau_report.to_obj()
        assert obj["experiment"] == "tau-sweep"
        assert [c["tau"] for c in obj["columns"]] == list(DEFAULT_TAU_VALUES)
        assert "runtime_seconds" in obj
        assert "runtime_seconds" not in tau_report.to_obj(include_runtime=False)

    def test_custom_values_and_rerun_stability(self, corpus6):
        a = experiment_tau_sweep(corpus6, values=(1.0, 0.5), k=3)
        b = experiment_tau_sweep(corpus6, values=(1.0, 0.5), k=3)
        assert a.values == (1.0, 0.5)
        assert a.to_json(include_runtime=False) == b.to_json(include_runtime=False)

    def test_empty_values_rejected(self, corpus6):
        with pytest.raises(ValueError, match="at least one tau value"):
            experiment_tau_sweep(corpus6, values=())

    def test_every_column_matches_plain_cv(self):
        """Each swept column is plain CV at that tau on the same folds.

        On 12 documents the five columns differ, so a column scored at the
        wrong tau cannot pass; a 6-document corpus saturates.
        """
        corpus = generate_synthetic(GeneratorConfig(n_docs=12))
        report = experiment_tau_sweep(corpus, k=3)
        folds = prepare_folds(corpus, FeatureConfig(), k=3)
        overall_f1 = {report.per_value[v][1].f1 for v in report.values}
        assert len(overall_f1) == len(DEFAULT_TAU_VALUES)
        for v in report.values:
            plain = run_cv(corpus, "svm", params_for("svm", tau=v), folds=folds)
            per_type, overall = report.per_value[v]
            assert per_type == plain.per_type
            assert overall == plain.overall


def test_margin_moved_from_tau_one_equals_uneven_margin():
    rng = np.random.default_rng(40)
    x = sparse.csr_matrix(rng.normal(size=(30, 5)))
    y = np.where(rng.random(30) < 0.4, 1.0, -1.0)
    solved = smo_train(x, y)
    zero_b = SmoSolution(solved.alpha, -0.0, x, y, solved.kernel, True, solved.steps)
    for solution in (solved, zero_b):
        base = apply_uneven_margin(solution, 1.0)
        for tau in DEFAULT_TAU_VALUES + (0.35,):
            got, want = with_margin(base, tau), apply_uneven_margin(solution, tau)
            assert got.coef.tobytes() == want.coef.tobytes()
            assert repr(got.intercept) == repr(want.intercept)
            assert got.tau == want.tau
            assert (got.support != want.support).nnz == 0


class TestAblation:

    def test_column_labels(self, ablation_report):
        assert [label for label, _, _ in ablation_report.columns] == [
            "Tok6+Atype", "+Dir", "+Str", "+POS", "+Inter", "+Event", "Allgen", "NoTok",
        ]
        assert [label for label, _, _ in ablation_report.syntactic_columns] == [
            "+Event", "+Dep", "+Syndist",
        ]

    def test_cumulative_feature_sets(self, ablation_report):
        for (label, sets, _), (exp_label, exp_sets) in zip(ablation_report.columns, ABLATION_STEPS):
            assert (label, sets) == (exp_label, exp_sets)
        for (label, sets, _), (exp_label, exp_sets) in zip(
            ablation_report.syntactic_columns, ABLATION_SYNTACTIC_STEPS
        ):
            assert (label, sets) == (exp_label, exp_sets)

    def test_shared_step_computed_once(self, ablation_report):
        assert ablation_report.columns[5][2] is ablation_report.syntactic_columns[0][2]

    def test_two_tables(self, ablation_report):
        first, second = ablation_report.to_table().split("\n\n")
        assert first.splitlines()[0] == (
            "Relationship type\tMetric (%)\tTok6+Atype\t+Dir\t+Str\t+POS\t+Inter\t+Event\tAllgen\tNoTok"
        )
        assert second.splitlines()[0] == (
            "Relationship type\tMetric (%)\t+Event\t+Dep\t+Syndist"
        )

    def test_obj_records_feature_sets(self, ablation_report):
        obj = ablation_report.to_obj(include_runtime=False)
        assert obj["experiment"] == "ablation"
        assert obj["columns"][0]["features"] == ["tok6", "atype"]
        assert obj["syntactic_columns"][2]["features"][-1] == "syndist"
        json.loads(ablation_report.to_json(include_runtime=False))


class TestLearningCurve:

    def test_default_sizes(self, curve_report):
        assert curve_report.sizes == (3, 4, 6)

    def test_curve_sizes(self):
        assert curve_sizes(40) == (20, 30, 40)
        assert curve_sizes(4) == (2, 3, 4)
        assert curve_sizes(2) == (2,)

    def test_table_layout(self, curve_report):
        lines = curve_report.to_table().splitlines()
        assert lines[0] == "Corpus size"
        assert lines[1] == "Relationship type\tMetric (%)\tC3\tC4\tC6"
        # per type: Count + P + R + F1, then the same block for Overall
        assert len(lines) == 2 + 4 * 7 + 4
        assert lines[2].split("\t")[:2] == [REPORT_ROWS[0], "Count"]
        assert lines[30].split("\t")[:2] == ["Overall", "Count"]

    def test_counts_match_subsets(self, corpus6, curve_report):
        for n in curve_report.sizes:
            assert curve_report.counts[n] == labeled_counts(corpus6.subset(n), 1)

    def test_overall_count_row_sums_types(self, curve_report):
        lines = curve_report.to_table().splitlines()
        totals = [int(c) for c in lines[30].split("\t")[2:]]
        assert totals == [sum(curve_report.counts[n].values()) for n in curve_report.sizes]

    def test_explicit_sizes(self, corpus6):
        rep = experiment_learning_curve(corpus6, algorithm="nb", sizes=(3, 6), k=3)
        assert rep.sizes == (3, 6)
        assert [c["label"] for c in rep.to_obj()["columns"]] == ["C3", "C6"]

    def test_size_validation(self, corpus6):
        with pytest.raises(ValueError, match="must lie within"):
            experiment_learning_curve(corpus6, sizes=(1, 6), k=3)
        with pytest.raises(ValueError, match="must lie within"):
            experiment_learning_curve(corpus6, sizes=(3, 7), k=3)
        with pytest.raises(ValueError, match="must be increasing"):
            experiment_learning_curve(corpus6, sizes=(6, 3), k=3)

import dataclasses
import json
import logging
import subprocess
import sys

import numpy as np
import pytest

from clinrel.cli import build_parser, main
from clinrel.corpus import load_corpus
from clinrel.learners import LEARNERS, KernelSpec, load_model, multiclass, params_for, svm
from clinrel.learners.multiclass import Learner
from clinrel.pairing import DEFAULT_MAX_CROSSINGS, labeled_instances
from clinrel.schema import RELATION_TYPES, compatible_relation_types


def _reverse_rows(x):
    """Reverse the order of the rows of a CSR record, each row kept canonical."""
    bounds = list(zip(x["indptr"], x["indptr"][1:]))[::-1]
    x["indices"] = [i for lo, hi in bounds for i in x["indices"][lo:hi]]
    x["data"] = [v for lo, hi in bounds for v in x["data"][lo:hi]]
    x["indptr"] = [0, *np.cumsum([hi - lo for lo, hi in bounds]).tolist()]


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    assert main(["generate", "--out", str(path), "--docs", "6"]) == 0
    return path


class TestGenerate:
    def test_writes_loadable_corpus(self, corpus_path):
        corpus = load_corpus(corpus_path)
        assert len(corpus) == 6
        assert [doc.id for doc in corpus] == [f"d{i:03d}" for i in range(6)]

    def test_same_seed_same_bytes(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(["generate", "--out", str(a), "--docs", "3"]) == 0
        assert main(["generate", "--out", str(b), "--docs", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_docs_is_usage_error(self, tmp_path, capsys):
        rc = main(["generate", "--out", str(tmp_path / "x"), "--docs", "0"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_sentence_bounds(self, tmp_path):
        rc = main([
            "generate", "--out", str(tmp_path / "x"),
            "--min-sentences", "4", "--max-sentences", "2",
        ])
        assert rc == 1


# ``clinrel evaluate`` output, recorded with the table rendered inside the command
EVALUATE_NB_STDOUT = """\
Relationship type\tMetric (%)\tValue
Has_finding\tP\t100.00
\tR\t64.29
\tF1\t78.26
Has_indication\tP\t92.86
\tR\t81.25
\tF1\t86.67
Has_location\tP\t100.00
\tR\t100.00
\tF1\t100.00
Has_target\tP\t100.00
\tR\t56.25
\tF1\t72.00
Laterality_modifies\tP\t100.00
\tR\t100.00
\tF1\t100.00
Negation_modifies\tP\t50.00
\tR\t100.00
\tF1\t66.67
Sub-location_modifies\tP\t100.00
\tR\t100.00
\tF1\t100.00
Overall\tP\t95.92
\tR\t75.81
\tF1\t84.68
"""
EVALUATE_ONE_DOC_STDOUT = """\
Relationship type\tMetric (%)\tValue
Has_finding\tP\t100.00
\tR\t100.00
\tF1\t100.00
Has_indication\tP\t-
\tR\t-
\tF1\t-
Has_location\tP\t100.00
\tR\t100.00
\tF1\t100.00
Has_target\tP\t100.00
\tR\t100.00
\tF1\t100.00
Laterality_modifies\tP\t-
\tR\t-
\tF1\t-
Negation_modifies\tP\t100.00
\tR\t100.00
\tF1\t100.00
Sub-location_modifies\tP\t-
\tR\t-
\tF1\t-
Overall\tP\t100.00
\tR\t100.00
\tF1\t100.00
"""


@pytest.fixture(scope="module")
def model_path(corpus_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "nb.json"
    rc = main([
        "train", "--corpus", str(corpus_path),
        "--algorithm", "nb", "--model", str(path),
    ])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def predicted_path(corpus_path, model_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("pred") / "out.jsonl"
    rc = main([
        "predict", "--corpus", str(corpus_path),
        "--model", str(model_path), "--out", str(path),
    ])
    assert rc == 0
    return path


class TestTrainPredictEvaluate:
    def test_model_loads(self, model_path):
        model = load_model(model_path)
        assert model.ova.algorithm == "nb"
        assert model.max_crossings == 1

    def test_predictions_preserve_documents(self, corpus_path, predicted_path):
        key = load_corpus(corpus_path)
        response = load_corpus(predicted_path)
        assert [d.id for d in response] == [d.id for d in key]
        by_id = {d.id: d for d in response}
        for doc in key:
            assert by_id[doc.id].tokens == doc.tokens
            assert by_id[doc.id].entities == doc.entities

    def test_evaluate_prints_metric_table(self, corpus_path, predicted_path, capsys):
        rc = main([
            "evaluate", "--corpus", str(corpus_path),
            "--response", str(predicted_path),
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Relationship type\tMetric (%)\tValue"
        assert lines[-3].split("\t")[0] == "Overall"
        # header + 7 types x 3 + 3 overall
        assert len(lines) == 25

    def test_evaluate_stdout_is_pinned(self, corpus_path, predicted_path, capsys):
        rc = main([
            "evaluate", "--corpus", str(corpus_path),
            "--response", str(predicted_path),
        ])
        assert rc == 0
        assert capsys.readouterr().out == EVALUATE_NB_STDOUT

    def test_evaluate_prints_dashes_for_absent_types(self, tmp_path, capsys):
        one = tmp_path / "one.jsonl"
        assert main(["generate", "--out", str(one), "--docs", "1"]) == 0
        rc = main(["evaluate", "--corpus", str(one), "--response", str(one)])
        assert rc == 0
        assert capsys.readouterr().out == EVALUATE_ONE_DOC_STDOUT

    def test_predicted_relations_are_type_legal(self, predicted_path):
        from clinrel.schema import compatible_relation_types

        response = load_corpus(predicted_path)
        for doc in response:
            for rel in doc.relations:
                legal = compatible_relation_types(
                    doc.entity(rel.arg1).etype, doc.entity(rel.arg2).etype
                )
                assert rel.rtype in legal

    def test_evaluate_key_against_itself_is_perfect(self, corpus_path, capsys):
        rc = main([
            "evaluate", "--corpus", str(corpus_path),
            "--response", str(corpus_path),
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        overall = [line.split("\t") for line in lines[-3:]]
        assert [row[2] for row in overall] == ["100.00", "100.00", "100.00"]

    def test_train_with_svm_flags(self, corpus_path, tmp_path):
        path = tmp_path / "svm.json"
        rc = main([
            "train", "--corpus", str(corpus_path), "--algorithm", "svm",
            "--tau", "0.8", "--c", "0.7", "--features", "atype,dir",
            "--model", str(path),
        ])
        assert rc == 0
        assert load_model(path).ova.algorithm == "svm"


class TestExitCodes:
    def test_unknown_flag(self, corpus_path, capsys):
        rc = main([
            "train", "--corpus", str(corpus_path), "--algorithm", "nb",
            "--model", "m.json", "--bogus",
        ])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_stray_hyperparameter_flag(self, corpus_path, capsys):
        rc = main([
            "train", "--corpus", str(corpus_path), "--algorithm", "nb",
            "--k", "3", "--model", "m.json",
        ])
        assert rc == 1
        assert "do not apply" in capsys.readouterr().err

    def test_invalid_hyperparameter_value(self, corpus_path, tmp_path, capsys):
        rc = main([
            "train", "--corpus", str(corpus_path), "--algorithm", "knn",
            "--k", "0", "--model", str(tmp_path / "m.json"),
        ])
        assert rc == 1

    def test_bad_feature_name(self, corpus_path, tmp_path):
        rc = main([
            "train", "--corpus", str(corpus_path), "--algorithm", "nb",
            "--features", "nosuch", "--model", str(tmp_path / "m.json"),
        ])
        assert rc == 1

    def test_malformed_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        rc = main([
            "train", "--corpus", str(bad), "--algorithm", "nb",
            "--model", str(tmp_path / "m.json"),
        ])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_missing_corpus_file(self, tmp_path):
        rc = main([
            "train", "--corpus", str(tmp_path / "nope.jsonl"),
            "--algorithm", "nb", "--model", str(tmp_path / "m.json"),
        ])
        assert rc == 2

    def test_malformed_model_is_data_error(self, corpus_path, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text("{}", encoding="utf-8")
        rc = main([
            "predict", "--corpus", str(corpus_path),
            "--model", str(bad), "--out", str(tmp_path / "out.jsonl"),
        ])
        assert rc == 2

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda m: m["x"]["data"].__setitem__(0, m["x"]["data"][0] + 1.0),
            lambda m: _reverse_rows(m["x"]),
            lambda m: m.update(k=m["k"] + 1),
        ],
        ids=["data", "indices", "k"],
    )
    def test_knn_class_models_that_disagree_are_data_error(self, corpus_path, tmp_path, capsys, corrupt):
        path = tmp_path / "knn.json"
        assert main(["train", "--corpus", str(corpus_path), "--algorithm", "knn", "--model", str(path)]) == 0
        record = json.loads(path.read_text(encoding="utf-8"))
        fitted = [m for m in record["models"] if m["kind"] == "knn"]
        assert len(fitted) >= 2
        corrupt(fitted[-1])
        path.write_text(json.dumps(record), encoding="utf-8")
        rc = main([
            "predict", "--corpus", str(corpus_path),
            "--model", str(path), "--out", str(tmp_path / "out.jsonl"),
        ])
        assert rc == 2
        assert "kNN class models disagree" in capsys.readouterr().err

    def test_non_canonical_support_row_is_data_error(self, corpus_path, tmp_path, capsys):
        path = tmp_path / "svm.json"
        assert main(["train", "--corpus", str(corpus_path), "--algorithm", "svm", "--model", str(path)]) == 0
        record = json.loads(path.read_text(encoding="utf-8"))
        support = next(m for m in record["models"] if m["kind"] == "svm")["support"]
        lo = next(lo for lo, hi in zip(support["indptr"], support["indptr"][1:]) if hi - lo >= 2)
        support["indices"][lo], support["indices"][lo + 1] = support["indices"][lo + 1], support["indices"][lo]
        path.write_text(json.dumps(record), encoding="utf-8")
        rc = main(["predict", "--corpus", str(corpus_path), "--model", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "SVM support rows must have strictly increasing column indices" in capsys.readouterr().err

    def test_wrong_typed_hyperparameter_is_data_error(self, corpus_path, tmp_path, capsys):
        path = tmp_path / "knn.json"
        assert main(["train", "--corpus", str(corpus_path), "--algorithm", "knn", "--model", str(path)]) == 0
        record = json.loads(path.read_text(encoding="utf-8"))
        record["hyperparameters"]["k"] = 2.5
        path.write_text(json.dumps(record), encoding="utf-8")
        rc = main(["predict", "--corpus", str(corpus_path), "--model", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "hyperparameters.k must be an integer, got float" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, message",
        [("Bogus", "classes names ['Bogus'], which are not relation types"), ("has_finding", "classes repeats a name")],
    )
    def test_last_class_renamed_is_data_error(self, corpus_path, tmp_path, capsys, name, message):
        """Rejected at load, whether or not the renamed class's model would ever win on this corpus."""
        path = tmp_path / "nb.json"
        assert main(["train", "--corpus", str(corpus_path), "--algorithm", "nb", "--model", str(path)]) == 0
        record = json.loads(path.read_text(encoding="utf-8"))
        record["classes"][-1] = name
        record["models"][-1] = {"kind": "constant", "score": -1.0}
        path.write_text(json.dumps(record), encoding="utf-8")
        rc = main(["predict", "--corpus", str(corpus_path), "--model", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_null_label_other_than_null_is_data_error(self, corpus_path, tmp_path, capsys):
        path = tmp_path / "nb.json"
        assert main(["train", "--corpus", str(corpus_path), "--algorithm", "nb", "--model", str(path)]) == 0
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["null_label"] == "null"
        record["null_label"] = "none"
        path.write_text(json.dumps(record), encoding="utf-8")
        rc = main(["predict", "--corpus", str(corpus_path), "--model", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "null_label must be 'null', got 'none'" in capsys.readouterr().err

    def test_invalid_kernel_degree_is_usage_error(self, corpus_path, tmp_path, capsys):
        rc = main([
            "train", "--corpus", str(corpus_path), "--algorithm", "svm",
            "--degree", "0", "--model", str(tmp_path / "m.json"),
        ])
        assert rc == 1
        assert "polynomial degree must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--algorithm", "nb", "--model", "m.json", "--max-crossings", "-1"],
             "--max-crossings must be >= 0"),
            (["experiment", "algorithms", "--max-crossings", "-1"], "--max-crossings must be >= 0"),
            (["experiment", "algorithms", "--folds", "1"], "--folds must be >= 2"),
            (["experiment", "tau", "--values", "1,0"], "tau must be in (0, 1]"),
            (["experiment", "curve", "--sizes", "1,3"], "subset sizes must lie within 2..document count"),
            (["experiment", "curve", "--sizes", "4,3"], "subset sizes must be increasing, with no size repeated"),
            (["experiment", "curve", "--sizes", "3,3"], "subset sizes must be increasing, with no size repeated"),
        ],
        ids=["train-max-crossings", "experiment-max-crossings", "folds", "tau-values", "sizes-below-2",
             "sizes-decreasing", "sizes-repeated"],
    )
    def test_bad_flag_value_is_usage_error_before_the_corpus_loads(self, tmp_path, capsys, argv, message):
        """The corpus path does not exist, so reaching the loader would exit 2."""
        rc = main(argv + ["--corpus", str(tmp_path / "missing.jsonl")])
        assert rc == 1
        assert message in capsys.readouterr().err

    def test_too_many_folds_is_data_error(self, corpus_path, capsys):
        rc = main([
            "experiment", "tau", "--corpus", str(corpus_path), "--folds", "10",
        ])
        assert rc == 2
        assert "exceeds the document count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, corrupt",
        [
            ("document text", lambda r: r.update(text=5)),
            ("document id", lambda r: r.update(id=[r["id"]])),
            ("sentence first_token", lambda r: r["sentences"][0].update(first_token="0")),
            ("entity first_token", lambda r: r["entities"][0].update(first_token="1")),
            ("token start", lambda r: r["tokens"][0].update(start=True)),
        ],
    )
    def test_wrong_typed_field_is_data_error(self, corpus_path, tmp_path, capsys, field, corrupt):
        record = json.loads(corpus_path.read_text(encoding="utf-8").splitlines()[0])
        corrupt(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        rc = main(["experiment", "algorithms", "--corpus", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("data error:")
        assert f"{field} must be" in err

    def test_mismatched_evaluation_ids(self, corpus_path, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        assert main(["generate", "--out", str(other), "--docs", "3"]) == 0
        rc = main([
            "evaluate", "--corpus", str(corpus_path), "--response", str(other),
        ])
        assert rc == 2
        assert "same document ids" in capsys.readouterr().err


# every hyperparameter field: flags that set it to a value other than its default, and that value
FLAG_VALUES = {
    "min_cases": (["--min-cases", "3"], 3),
    "confidence": (["--confidence", "0.1"], 0.1),
    "prune": (["--no-prune"], False),
    "k": (["--k", "3"], 3),
    "tau_pos": (["--tau-pos", "10"], 10.0),
    "tau_neg": (["--tau-neg", "2"], 2.0),
    "eta": (["--eta", "0.5"], 0.5),
    "opt_b": (["--opt-b", "1"], 1.0),
    "max_epochs": (["--max-epochs", "7"], 7),
    "c": (["--c", "0.5"], 0.5),
    "kernel": (["--kernel", "linear", "--degree", "3"], KernelSpec("linear", 3)),
    "tau": (["--tau", "0.6"], 0.6),
    "tol": (["--tol", "0.01"], 0.01),
    "cache_mb": (["--cache-mb", "50"], 50.0),
}


@pytest.mark.parametrize(
    "algorithm, field",
    [(a, f.name) for a, learner in LEARNERS.items() for f in dataclasses.fields(learner.params)],
)
def test_hyperparameter_flag_sets_its_field_and_only_applies_to_its_algorithm(
    corpus_path, tmp_path, capsys, algorithm, field
):
    flags, value = FLAG_VALUES[field]
    defaults = params_for(algorithm)
    assert getattr(defaults, field) != value
    path = tmp_path / "m.json"
    assert main(["train", "--corpus", str(corpus_path), "--algorithm", algorithm, *flags, "--model", str(path)]) == 0
    assert load_model(path).ova.params == dataclasses.replace(defaults, **{field: value})
    capsys.readouterr()
    others = [a for a, learner in LEARNERS.items() if field not in {f.name for f in dataclasses.fields(learner.params)}]
    for other in others:
        rc = main(["train", "--corpus", str(corpus_path), "--algorithm", other, *flags, "--model", str(path)])
        assert rc == 1
        assert "do not apply" in capsys.readouterr().err


# the train command's --algorithm and hyperparameter flags: type, choices and help
TRAIN_HYPER_FLAGS = {
    "--algorithm": (None, ("nb", "c45", "knn", "paum", "svm"), None),
    "--k": (int, None, "neighbor count (knn)"),
    "--tau": (float, None, "uneven-margin parameter (svm)"),
    "--c": (float, None, "soft-margin penalty (svm)"),
    "--degree": (int, None, "polynomial kernel degree (svm)"),
    "--kernel": (None, ("linear", "polynomial"), "kernel kind (svm)"),
    "--tol": (float, None, "KKT tolerance (svm)"),
    "--cache-mb": (float, None, "kernel cache budget (svm)"),
    "--tau-pos": (float, None, "positive margin (paum)"),
    "--tau-neg": (float, None, "negative margin (paum)"),
    "--eta": (float, None, "learning rate (paum)"),
    "--opt-b": (float, None, "bias-feature scale (paum)"),
    "--max-epochs": (int, None, "epoch cap (paum)"),
    "--min-cases": (int, None, "minimum cases per branch (c45)"),
    "--confidence": (float, None, "pruning confidence (c45)"),
    "--no-prune": (None, None, "disable pruning (c45)"),
}


def _train_actions():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    return {a.option_strings[0]: a for a in commands.choices["train"]._actions if a.option_strings}


def test_train_hyperparameter_flags_are_pinned():
    actions = _train_actions()
    got = {flag: (a.type, tuple(a.choices) if a.choices else None, a.help) for flag, a in actions.items()}
    assert {flag: got[flag] for flag in TRAIN_HYPER_FLAGS} == TRAIN_HYPER_FLAGS
    assert set(got) - set(TRAIN_HYPER_FLAGS) == {"-h", "--corpus", "--features", "--window", "--max-crossings", "--model"}


@dataclasses.dataclass(frozen=True)
class ToyParams:
    shift: float = dataclasses.field(default=0.0, metadata={"help": "score of every class model"})


@dataclasses.dataclass(frozen=True)
class ToyModel:
    score: float


TOY = Learner(
    "Toy", ToyParams, fit=lambda x, ys, p, gram: [ToyModel(p.shift) for _ in ys],
    score=lambda model, x: np.column_stack([np.full(x.shape[0], model.models[j].score) for j in model.fitted]),
    to_obj=lambda m: {"score": m.score}, from_obj=lambda obj, n_features: ToyModel(obj["score"]),
)


def test_a_learner_is_one_record(corpus_path, tmp_path, monkeypatch, capsys):
    """A learner registered only in ``LEARNERS`` gets its flag, its model file, ``predict`` and a report column."""
    monkeypatch.setitem(multiclass.LEARNERS, "toy", TOY)
    assert _train_actions()["--shift"].help == "score of every class model (toy)"
    relations = {}
    for shift in ("0.5", "-0.5"):
        path, out = tmp_path / f"toy{shift}.json", tmp_path / f"toy{shift}.jsonl"
        argv = ["train", "--corpus", str(corpus_path), "--algorithm", "toy", "--shift", shift, "--model", str(path)]
        assert main(argv) == 0
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["hyperparameters"] == {"shift": float(shift)}
        assert {"kind": "toy", "score": float(shift)} in record["models"]
        model = load_model(path).ova
        assert model.params == ToyParams(float(shift)) and ToyModel(float(shift)) in model.models
        assert main(["predict", "--corpus", str(corpus_path), "--model", str(path), "--out", str(out)]) == 0
        relations[shift] = sum(len(doc.relations) for doc in load_corpus(out))
    assert relations["0.5"] > 0 and relations["-0.5"] == 0
    capsys.readouterr()
    report = tmp_path / "algorithms.json"
    argv = ["experiment", "algorithms", "--corpus", str(corpus_path), "--folds", "3", "--json", str(report)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith("Naive Bayes\tC4.5\tKNN\tPAUM\tSVM UM\tToy")
    columns = json.loads(report.read_text(encoding="utf-8"))["columns"]
    assert [(c["algorithm"], c["label"]) for c in columns][-2:] == [("svm", "SVM UM"), ("toy", "Toy")]
    assert main(["train", "--corpus", str(corpus_path), "--algorithm", "nb", "--shift", "1", "--model", str(path)]) == 1
    assert "flags ['shift'] do not apply to algorithm 'nb'" in capsys.readouterr().err


def test_predict_reports_the_type_illegal_labels_it_drops(corpus_path, tmp_path, monkeypatch, capsys):
    """Every toy class scores ``shift``: at 0.5 each pair gets the first class, which some argument types cannot carry."""
    monkeypatch.setitem(multiclass.LEARNERS, "toy", TOY)
    corpus = load_corpus(corpus_path)
    pairs = [(doc, inst.pair) for doc in corpus for inst in labeled_instances(doc, DEFAULT_MAX_CROSSINGS)[0]]
    etypes = [(doc.entity(pair.arg1).etype, doc.entity(pair.arg2).etype) for doc, pair in pairs]
    illegal = sum(RELATION_TYPES[0] not in compatible_relation_types(*types) for types in etypes)
    assert 0 < illegal < len(pairs)
    for shift, kept, err in (("0.5", len(pairs) - illegal, f"warning: dropped {illegal} predicted relations"), ("-0.5", 0, "")):
        path, out = tmp_path / f"toy{shift}.json", tmp_path / f"toy{shift}.jsonl"
        assert main(["train", "--corpus", str(corpus_path), "--algorithm", "toy", "--shift", shift, "--model", str(path)]) == 0
        capsys.readouterr()
        assert main(["predict", "--corpus", str(corpus_path), "--model", str(path), "--out", str(out)]) == 0
        assert sum(len(doc.relations) for doc in load_corpus(out)) == kept
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith(err) and printed.err.count("\n") == (1 if err else 0)


def test_smo_step_cap_warning_reaches_stderr(corpus_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(svm, "_MAX_STEPS", 1)
    handlers = list(logging.getLogger("clinrel").handlers)
    rc = main([
        "train", "--corpus", str(corpus_path), "--algorithm", "svm",
        "--model", str(tmp_path / "m.json"),
    ])
    assert rc == 0
    assert "warning: SMO stopped at the step cap" in capsys.readouterr().err
    assert logging.getLogger("clinrel").handlers == handlers


def test_paum_epoch_cap_warning_reaches_stderr(corpus_path, tmp_path, capsys):
    path = tmp_path / "m.json"
    rc = main(["train", "--corpus", str(corpus_path), "--algorithm", "paum", "--max-epochs", "1", "--model", str(path)])
    assert rc == 0
    assert "warning: PAUM stopped at the epoch cap (1)" in capsys.readouterr().err
    models = [m for m in load_model(path).ova.models if hasattr(m, "converged")]
    assert models and not any(m.converged for m in models)


class TestExperimentCommand:
    def test_tau_table_and_json(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main([
            "experiment", "tau", "--corpus", str(corpus_path), "--folds", "3",
            "--values", "1,0.5", "--json", str(out), "--exclude-runtime",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[0] == "Uneven margin (τ)\tMetric (%)\t1\t0.5"
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert "runtime" not in text
        assert json.loads(text)["experiment"] == "tau-sweep"

    def test_algorithms_table(self, corpus_path, capsys):
        rc = main([
            "experiment", "algorithms", "--corpus", str(corpus_path), "--folds", "3",
        ])
        assert rc == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.endswith("Naive Bayes\tC4.5\tKNN\tPAUM\tSVM UM")

    def test_ablation_table(self, corpus_path, capsys):
        rc = main([
            "experiment", "ablation", "--corpus", str(corpus_path),
            "--algorithm", "nb", "--folds", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Tok6+Atype" in out.splitlines()[0]
        assert "+Syndist" in out

    def test_curve_table(self, corpus_path, capsys):
        rc = main([
            "experiment", "curve", "--corpus", str(corpus_path),
            "--algorithm", "nb", "--folds", "3", "--sizes", "3,6",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Corpus size"
        assert lines[1].endswith("C3\tC6")

    def test_bad_values_list(self, corpus_path):
        rc = main([
            "experiment", "tau", "--corpus", str(corpus_path),
            "--folds", "3", "--values", "1,zap",
        ])
        assert rc == 1

    def test_size_above_the_document_count_is_data_error(self, corpus_path, capsys):
        rc = main([
            "experiment", "curve", "--corpus", str(corpus_path),
            "--algorithm", "nb", "--folds", "3", "--sizes", "3,7",
        ])
        assert rc == 2
        assert "subset sizes must lie within 2..document count" in capsys.readouterr().err

    def test_bad_sizes_list(self, corpus_path):
        rc = main([
            "experiment", "curve", "--corpus", str(corpus_path),
            "--folds", "3", "--sizes", "3;6",
        ])
        assert rc == 1

    def test_unknown_kind(self, corpus_path):
        assert main(["experiment", "nope", "--corpus", str(corpus_path)]) == 1


def test_module_entry_point(tmp_path):
    out = tmp_path / "c.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "clinrel", "generate", "--out", str(out), "--docs", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(load_corpus(out)) == 2


def test_module_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "clinrel", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "usage error" in proc.stderr

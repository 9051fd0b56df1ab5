import json
import logging
import subprocess
import sys

import pytest

from clinrel.cli import main
from clinrel.corpus import load_corpus
from clinrel.learners import load_model, svm


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

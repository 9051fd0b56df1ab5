import json
import re

import numpy as np
import pytest
from scipy import sparse

from clinrel.features import FeatureConfig
from clinrel.learners import (
    LEARNERS,
    ModelFormatError,
    TrainedModel,
    load_model,
    model_from_json,
    model_to_json,
    ova_scores,
    ova_train,
    save_model,
)


def csr(rows):
    return sparse.csr_matrix(np.asarray(rows, dtype=np.float64))


def trained(algorithm):
    x = csr(
        [
            [1, 0, 0, 1],
            [1, 0, 0, 1],
            [0, 1, 0, 1],
            [0, 1, 0, 1],
            [0, 0, 1.5, 1],
            [0, 0, 0, 1],
        ]
    )
    labels = ["has_finding", "has_finding", "has_location", "has_location", "has_location", "null"]
    ova = ova_train(x, labels, algorithm)
    index = {"f0": 0, "f1": 1, "f2": 2, "f3": 3}
    return TrainedModel(ova, index, FeatureConfig.of("atype", "dir"), 1), x


@pytest.mark.parametrize("algorithm", tuple(LEARNERS))
def test_round_trip_preserves_decision_values(algorithm):
    tm, x = trained(algorithm)
    text = model_to_json(tm)
    back = model_from_json(text)
    assert back.ova.algorithm == algorithm
    assert back.ova.classes == tm.ova.classes
    assert back.ova.params == tm.ova.params
    assert list(back.index.items()) == list(tm.index.items())
    assert back.feature_config == tm.feature_config
    assert back.max_crossings == 1
    # shortest-round-trip floats reload to the same doubles
    assert np.array_equal(ova_scores(back.ova, x), ova_scores(tm.ova, x))


@pytest.mark.parametrize("algorithm", tuple(LEARNERS))
def test_serialization_is_byte_stable(algorithm):
    tm, _ = trained(algorithm)
    first = model_to_json(tm)
    assert model_to_json(tm) == first
    assert model_to_json(model_from_json(first)) == first


def test_constant_negative_model_round_trips():
    x = csr([[1.0], [0.0]])
    ova = ova_train(x, ["has_finding", "has_finding"], "nb", classes=("has_finding", "has_location"))
    tm = TrainedModel(ova, {"f0": 0}, FeatureConfig.of("dir"), 0)
    back = model_from_json(model_to_json(tm))
    assert np.array_equal(ova_scores(back.ova, x), ova_scores(ova, x))


def test_file_round_trip(tmp_path):
    tm, x = trained("svm")
    path = tmp_path / "model.json"
    save_model(tm, path)
    raw = path.read_text(encoding="utf-8")
    assert raw.endswith("\n")
    back = load_model(path)
    assert np.array_equal(ova_scores(back.ova, x), ova_scores(tm.ova, x))


def test_rejects_non_json():
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        model_from_json("{broken")


def test_rejects_foreign_records():
    with pytest.raises(ModelFormatError, match="not a model record"):
        model_from_json('{"format":"something-else","version":1}')
    with pytest.raises(ModelFormatError, match="not a model record"):
        model_from_json('[1,2,3]')


def test_rejects_unsupported_version():
    tm, _ = trained("nb")
    text = model_to_json(tm).replace('"version":1', '"version":99')
    with pytest.raises(ModelFormatError, match="unsupported model version"):
        model_from_json(text)


def test_rejects_truncated_record():
    with pytest.raises(ModelFormatError, match="malformed model record"):
        model_from_json('{"format":"clinrel-model","version":1}')


def test_rejects_unknown_binary_kind():
    tm, _ = trained("paum")
    text = model_to_json(tm).replace('"kind":"paum"', '"kind":"mystery"')
    with pytest.raises(ModelFormatError):
        model_from_json(text)


def _first_fitted(record):
    return next(m for m in record["models"] if m["kind"] != "constant")


def _row_with_two_entries(x):
    """Where the first row of a CSR record that stores two or more entries starts."""
    return next(lo for lo, hi in zip(x["indptr"], x["indptr"][1:]) if hi - lo >= 2)


def _swap_two_indices(x):
    lo = _row_with_two_entries(x)
    x["indices"][lo], x["indices"][lo + 1] = x["indices"][lo + 1], x["indices"][lo]


def _repeat_an_index(x):
    lo = _row_with_two_entries(x)
    x["indices"][lo + 1] = x["indices"][lo]


@pytest.mark.parametrize(
    "algorithm, corrupt, message",
    [
        ("nb", lambda r: r.update(max_crossings="1"), "max_crossings must be an integer, got str"),
        ("nb", lambda r: r.update(max_crossings=-1), "max_crossings must be >= 0"),
        ("nb", lambda r: r.update(window=2.5), "window must be an integer, got float"),
        ("nb", lambda r: r.update(null_label=None), "null_label must be a string"),
        ("nb", lambda r: r.update(null_label="none"), "null_label must be 'null', got 'none'"),
        ("nb", lambda r: r["classes"].pop(), "binary models for"),
        ("nb", lambda r: r["classes"].__setitem__(-1, "Bogus"), "classes names ['Bogus'], which are not relation"),
        ("nb", lambda r: r["classes"].__setitem__(-1, "null"), "classes names ['null'], which are not relation"),
        ("nb", lambda r: r["classes"].__setitem__(-1, "has_finding"), "classes repeats a name"),
        ("nb", lambda r: r["feature_index"].__setitem__(0, ["f0"]), "feature_index entry must be a string"),
        ("nb", lambda r: r["feature_index"].__setitem__(1, "f0"), "feature_index repeats a key"),
        ("nb", lambda r: r.update(feature_sets=[]), "feature_sets is empty"),
        ("nb", lambda r: _first_fitted(r)["log_priors"].pop(), "log_priors must have shape"),
        ("nb", lambda r: _first_fitted(r).update(kind="paum"), "kind 'paum' in a nb model"),
        ("c45", lambda r: _first_fitted(r)["root"]["split"].update(attribute=4), "is not a feature column"),
        ("c45", lambda r: _first_fitted(r)["root"]["split"].update(threshold="0.5"),
         "split threshold must be a number"),
        ("knn", lambda r: _first_fitted(r).update(k=True), "kNN k must be an integer, got bool"),
        ("knn", lambda r: _first_fitted(r)["labels"].__setitem__(0, "a"), "kNN labels must be +1 or -1"),
        ("knn", lambda r: _first_fitted(r)["x"]["indices"].__setitem__(0, 9), "indices must be < 4"),
        ("knn", lambda r: _first_fitted(r)["x"]["indices"].__setitem__(0, 2**40), "malformed model record"),
        ("knn", lambda r: _first_fitted(r)["x"].update(shape=[6, 5]), "kNN x must have 4 columns"),
        ("paum", lambda r: _first_fitted(r)["weights"].append(0.0), "PAUM weights must have shape"),
        ("paum", lambda r: _first_fitted(r).update(epochs=1.0), "PAUM epochs must be an integer"),
        ("svm", lambda r: _first_fitted(r)["coef"].pop(), "SVM coef must have shape"),
        ("svm", lambda r: _swap_two_indices(_first_fitted(r)["support"]),
         "SVM support rows must have strictly increasing column indices"),
        ("svm", lambda r: _repeat_an_index(_first_fitted(r)["support"]),
         "SVM support rows must have strictly increasing column indices"),
        ("knn", lambda r: _swap_two_indices(_first_fitted(r)["x"]),
         "kNN x rows must have strictly increasing column indices"),
        ("svm", lambda r: _first_fitted(r)["support"]["data"].__setitem__(0, float("inf")),
         "SVM support values must be finite"),
        ("svm", lambda r: _first_fitted(r)["support"]["data"].__setitem__(-1, float("nan")),
         "SVM support values must be finite"),
        ("svm", lambda r: _first_fitted(r)["kernel"].update(degree="2"),
         "SVM kernel degree must be an integer"),
        ("knn", lambda r: r["hyperparameters"].update(k=2.5), "hyperparameters.k must be an integer, got float"),
        ("c45", lambda r: r["hyperparameters"].update(prune="no"), "hyperparameters.prune must be a boolean, got str"),
        ("svm", lambda r: r["hyperparameters"].update(cache_mb="lots"),
         "hyperparameters.cache_mb must be a number, got str"),
        ("paum", lambda r: r["hyperparameters"].update(max_epochs=True),
         "hyperparameters.max_epochs must be an integer, got bool"),
        ("svm", lambda r: r["hyperparameters"]["kernel"].update(degree=2.5),
         "hyperparameters.kernel.degree must be an integer, got float"),
        ("svm", lambda r: r["hyperparameters"].update(kernel="linear"), "hyperparameters.kernel must be an object"),
        ("nb", lambda r: r["hyperparameters"].update(k=2), "hyperparameters has unknown fields ['k']"),
        ("knn", lambda r: r["hyperparameters"].pop("k"), "malformed model record ('k')"),
        ("knn", lambda r: r["hyperparameters"].update(k=0), "k must be >= 1"),
        ("svm", lambda r: r["hyperparameters"].update(c=float("nan")), "c must be finite"),
        ("svm", lambda r: r["hyperparameters"].update(tol=float("nan")), "tol must be finite"),
        ("svm", lambda r: r["hyperparameters"].update(cache_mb=float("inf")), "cache_mb must be finite"),
        ("svm", lambda r: r["hyperparameters"].update(cache_mb=-1.0), "cache_mb must be positive"),
        ("paum", lambda r: r["hyperparameters"].update(tau_pos=float("nan")), "tau_pos must be finite"),
        ("paum", lambda r: r["hyperparameters"].update(tau_neg=float("-inf")), "tau_neg must be finite"),
        ("paum", lambda r: r["hyperparameters"].update(eta=float("inf")), "eta must be finite"),
        ("paum", lambda r: r["hyperparameters"].update(opt_b=float("nan")), "opt_b must be finite"),
    ],
)
def test_rejects_wrong_typed_or_shaped_fields(algorithm, corrupt, message):
    tm, _ = trained(algorithm)
    record = json.loads(model_to_json(tm))
    corrupt(record)
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        model_from_json(json.dumps(record))

"""Versioned JSON serialization for trained models.

The record carries everything prediction needs: algorithm, hyperparameters,
feature configuration and index, and per-class binary-model parameters.
Floats are written in shortest round-trip form, so reloaded models reproduce
decision values exactly.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
from scipy import sparse

from ..features import FeatureConfig, FeatureIndex
from .decision_tree import DecisionTree, Leaf, Node, Split
from .knn import KnnModel
from .multiclass import LEARNERS, OvaModel, _Constant
from .naive_bayes import NaiveBayesModel
from .params import KernelSpec
from .paum import PaumModel
from .svm import SvmModel

FORMAT_NAME = "clinrel-model"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainedModel:
    """A trained multi-class model plus the plumbing needed to apply it."""

    ova: OvaModel
    index: FeatureIndex
    feature_config: FeatureConfig
    max_crossings: int


class ModelFormatError(Exception):
    """The record is not a readable model of a supported version."""


_TYPE_NAMES = {
    int: "an integer", float: "a number", str: "a string", bool: "a boolean", list: "a list", dict: "an object",
}


def _csr_to_obj(x: sparse.csr_matrix) -> dict:
    return {
        "shape": [int(x.shape[0]), int(x.shape[1])],
        "data": x.data.tolist(),
        "indices": x.indices.tolist(),
        "indptr": x.indptr.tolist(),
    }


def _typed(value, kind: type, what: str):
    """``value`` once its JSON type is ``kind``; true/false is no number, an integer is."""
    if type(value) is kind or (kind is float and type(value) is int):
        return value
    raise ModelFormatError(f"{what} must be {_TYPE_NAMES[kind]}, got {type(value).__name__}")


def _strings(value, what: str) -> tuple[str, ...]:
    for item in _typed(value, list, what):
        _typed(item, str, f"{what} entry")
    return tuple(value)


def _floats(value, what: str, shape: tuple[int, ...]) -> np.ndarray:
    array = np.asarray(_typed(value, list, what), dtype=np.float64)
    if array.shape != shape:
        raise ModelFormatError(f"{what} must have shape {shape}, got {array.shape}")
    return array


def _csr_from_obj(obj: dict, what: str, n_cols: int) -> sparse.csr_matrix:
    shape = tuple(_typed(n, int, f"{what} shape entry") for n in _typed(obj["shape"], list, f"{what} shape"))
    if len(shape) != 2 or shape[1] != n_cols:
        raise ModelFormatError(f"{what} must have {n_cols} columns, got shape {list(shape)}")
    x = sparse.csr_matrix(
        (
            np.asarray(_typed(obj["data"], list, f"{what} data"), dtype=np.float64),
            np.asarray(_typed(obj["indices"], list, f"{what} indices"), dtype=np.int32),
            np.asarray(_typed(obj["indptr"], list, f"{what} indptr"), dtype=np.int32),
        ),
        shape=shape,
    )
    x.check_format(full_check=True)
    return x


def _node_to_obj(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": {"label": node.label, "n": node.n, "errors": node.errors}}
    return {
        "split": {
            "attribute": node.attribute,
            "threshold": node.threshold,
            "majority": node.majority,
            "n": node.n,
            "errors": node.errors,
        },
        "low": _node_to_obj(node.low),
        "high": _node_to_obj(node.high),
    }


def _node_from_obj(obj: dict, n_features: int) -> Node:
    if "leaf" in obj:
        leaf = obj["leaf"]
        return Leaf(
            _typed(leaf["label"], str, "leaf label"),
            _typed(leaf["n"], float, "leaf n"),
            _typed(leaf["errors"], float, "leaf errors"),
        )
    split = obj["split"]
    attribute = _typed(split["attribute"], int, "split attribute")
    if not 0 <= attribute < n_features:
        raise ModelFormatError(f"split attribute {attribute} is not a feature column")
    return Split(
        attribute,
        _typed(split["threshold"], float, "split threshold"),
        _node_from_obj(obj["low"], n_features),
        _node_from_obj(obj["high"], n_features),
        _typed(split["majority"], str, "split majority"),
        _typed(split["n"], float, "split n"),
        _typed(split["errors"], float, "split errors"),
    )


def _binary_to_obj(model) -> dict:
    if isinstance(model, _Constant):
        return {"kind": "constant", "score": model.score}
    if isinstance(model, NaiveBayesModel):
        return {
            "kind": "nb",
            "classes": list(model.classes),
            "log_priors": model.log_priors.tolist(),
            "log_p_present": model.log_p_present.tolist(),
            "log_p_absent": model.log_p_absent.tolist(),
        }
    if isinstance(model, DecisionTree):
        return {"kind": "c45", "classes": list(model.classes), "root": _node_to_obj(model.root)}
    if isinstance(model, KnnModel):
        return {"kind": "knn", "k": model.k, "labels": list(model.labels), "x": _csr_to_obj(model.x)}
    if isinstance(model, PaumModel):
        return {
            "kind": "paum",
            "weights": model.weights.tolist(),
            "bias": model.bias,
            "bias_feature": model.bias_feature,
            "opt_b": model.opt_b,
            "converged": model.converged,
            "epochs": model.epochs,
        }
    if isinstance(model, SvmModel):
        return {
            "kind": "svm",
            "support": _csr_to_obj(model.support),
            "coef": model.coef.tolist(),
            "intercept": model.intercept,
            "kernel": {"kind": model.kernel.kind, "degree": model.kernel.degree},
            "tau": model.tau,
        }
    raise ModelFormatError(f"cannot serialize binary model of type {type(model).__name__}")


def _binary_from_obj(obj: dict, algorithm: str, n_features: int):
    kind = _typed(obj, dict, "binary model")["kind"]
    if kind not in ("constant", algorithm):
        raise ModelFormatError(f"binary model kind {kind!r} in a {algorithm} model")
    if kind == "constant":
        return _Constant(_typed(obj["score"], float, "constant score"))
    if kind == "nb":
        classes = _strings(obj["classes"], "naive Bayes classes")
        n_classes = len(classes)
        return NaiveBayesModel(
            classes,
            _floats(obj["log_priors"], "naive Bayes log_priors", (n_classes,)),
            _floats(obj["log_p_present"], "naive Bayes log_p_present", (n_classes, n_features)),
            _floats(obj["log_p_absent"], "naive Bayes log_p_absent", (n_classes, n_features)),
        )
    if kind == "c45":
        root = _node_from_obj(obj["root"], n_features)
        return DecisionTree(root, _strings(obj["classes"], "c45 classes"))
    if kind == "knn":
        labels = _strings(obj["labels"], "kNN labels")
        if not set(labels) <= {"+1", "-1"}:
            raise ModelFormatError("kNN labels must be +1 or -1")
        x = _csr_from_obj(obj["x"], "kNN x", n_features)
        return KnnModel(x, labels, _typed(obj["k"], int, "kNN k"))
    if kind == "paum":
        return PaumModel(
            _floats(obj["weights"], "PAUM weights", (n_features,)),
            _typed(obj["bias"], float, "PAUM bias"),
            _typed(obj["bias_feature"], float, "PAUM bias_feature"),
            _typed(obj["opt_b"], float, "PAUM opt_b"),
            _typed(obj["converged"], bool, "PAUM converged"),
            _typed(obj["epochs"], int, "PAUM epochs"),
        )
    if kind == "svm":
        support = _csr_from_obj(obj["support"], "SVM support", n_features)
        kernel = _typed(obj["kernel"], dict, "SVM kernel")
        return SvmModel(
            support,
            _floats(obj["coef"], "SVM coef", (support.shape[0],)),
            _typed(obj["intercept"], float, "SVM intercept"),
            KernelSpec(
                _typed(kernel["kind"], str, "SVM kernel kind"), _typed(kernel["degree"], int, "SVM kernel degree")
            ),
            _typed(obj["tau"], float, "SVM tau"),
        )
    raise ModelFormatError(f"unknown binary model kind {kind!r}")


def _share_knn_rows(models: tuple) -> tuple:
    """Give every kNN class model the first one's training matrix.

    One-vs-all kNN scores all classes from one neighbor search, so class
    models that disagree on the matrix or on k make a malformed record.
    """
    knn = [m for m in models if isinstance(m, KnnModel)]
    if not knn:
        return models
    first = knn[0]
    for m in knn[1:]:
        same = m.k == first.k and m.x.shape == first.x.shape and all(
            np.array_equal(getattr(m.x, a), getattr(first.x, a)) for a in ("data", "indices", "indptr")
        )
        if not same:
            raise ModelFormatError("kNN class models disagree on their training matrix or k")
    return tuple(replace(m, x=first.x) if isinstance(m, KnnModel) else m for m in models)


def _params_from_obj(cls: type, obj, what: str):
    """A hyperparameter dataclass from its object, each field of its default's JSON type."""
    obj = _typed(obj, dict, what)
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ModelFormatError(f"{what} has unknown fields {unknown}")
    values = {}
    for f in fields(cls):
        default = f.default_factory() if f.default is MISSING else f.default
        if is_dataclass(default):
            values[f.name] = _params_from_obj(type(default), obj[f.name], f"{what}.{f.name}")
        else:
            values[f.name] = _typed(obj[f.name], type(default), f"{what}.{f.name}")
    return cls(**values)


def model_to_json(tm: TrainedModel) -> str:
    record = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "algorithm": tm.ova.algorithm,
        "hyperparameters": asdict(tm.ova.params),
        "feature_sets": sorted(tm.feature_config.sets),
        "window": tm.feature_config.window,
        "max_crossings": tm.max_crossings,
        "null_label": tm.ova.null_label,
        "classes": list(tm.ova.classes),
        "feature_index": list(tm.index.keys),
        "models": [_binary_to_obj(m) for m in tm.ova.models],
    }
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def model_from_json(text: str) -> TrainedModel:
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON ({exc.msg})") from exc
    if not isinstance(record, dict) or record.get("format") != FORMAT_NAME:
        raise ModelFormatError("not a model record")
    if record.get("version") != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model version {record.get('version')!r}")
    try:
        algorithm = _typed(record["algorithm"], str, "algorithm")
        if algorithm not in LEARNERS:
            raise ModelFormatError(f"unknown algorithm {algorithm!r}")
        params = _params_from_obj(LEARNERS[algorithm].params, record["hyperparameters"], "hyperparameters")
        index = FeatureIndex(_strings(record["feature_index"], "feature_index"))
        sets = frozenset(_strings(record["feature_sets"], "feature_sets"))
        cfg = FeatureConfig(sets, _typed(record["window"], int, "window"))
        max_crossings = _typed(record["max_crossings"], int, "max_crossings")
        if max_crossings < 0:
            raise ModelFormatError("max_crossings must be >= 0")
        classes = _strings(record["classes"], "classes")
        models = _typed(record["models"], list, "models")
        if len(models) != len(classes):
            raise ModelFormatError(f"{len(models)} binary models for {len(classes)} classes")
        ova = OvaModel(
            algorithm,
            classes,
            _share_knn_rows(tuple(_binary_from_obj(m, algorithm, len(index)) for m in models)),
            params,
            len(index),
            _typed(record["null_label"], str, "null_label"),
        )
        return TrainedModel(ova, index, cfg, max_crossings)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model record ({exc})") from exc


def save_model(tm: TrainedModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(tm) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    return model_from_json(Path(path).read_text(encoding="utf-8"))

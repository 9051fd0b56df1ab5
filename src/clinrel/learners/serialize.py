"""Versioned JSON serialization for trained models.

The record carries everything prediction needs: algorithm, hyperparameters,
feature configuration and index, and per-class binary-model parameters,
each written by its learner's codec (``Learner.to_obj`` and ``from_obj``).
Floats are written in shortest round-trip form, so reloaded models reproduce
decision values exactly.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from ..features import FeatureConfig
from ..schema import RELATION_TYPES
from .knn import KnnModel
from .multiclass import LEARNERS, NULL_LABEL, OvaModel, _Constant
from .params import ModelFormatError, _strings, _typed

FORMAT_NAME = "clinrel-model"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainedModel:
    """A trained multi-class model plus the plumbing needed to apply it."""

    ova: OvaModel
    index: dict[str, int]  # feature key -> column, in column order
    feature_config: FeatureConfig
    max_crossings: int


def _binary_to_obj(model, algorithm: str) -> dict:
    if isinstance(model, _Constant):
        return {"kind": "constant", "score": model.score}
    return {"kind": algorithm, **LEARNERS[algorithm].to_obj(model)}


def _binary_from_obj(obj: dict, algorithm: str, n_features: int):
    kind = _typed(obj, dict, "binary model")["kind"]
    if kind not in ("constant", algorithm):
        raise ModelFormatError(f"binary model kind {kind!r} in a {algorithm} model")
    if kind == "constant":
        return _Constant(_typed(obj["score"], float, "constant score"))
    return LEARNERS[algorithm].from_obj(obj, n_features)


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
        "null_label": NULL_LABEL,
        "classes": list(tm.ova.classes),
        "feature_index": list(tm.index),
        "models": [_binary_to_obj(m, tm.ova.algorithm) for m in tm.ova.models],
    }
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def model_from_json(text: str) -> TrainedModel:
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise ModelFormatError("JSON nested too deeply") from exc
    if not isinstance(record, dict) or record.get("format") != FORMAT_NAME:
        raise ModelFormatError("not a model record")
    if record.get("version") != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model version {record.get('version')!r}")
    try:
        algorithm = _typed(record["algorithm"], str, "algorithm")
        if algorithm not in LEARNERS:
            raise ModelFormatError(f"unknown algorithm {algorithm!r}")
        params = _params_from_obj(LEARNERS[algorithm].params, record["hyperparameters"], "hyperparameters")
        keys = _strings(record["feature_index"], "feature_index")
        index = {key: i for i, key in enumerate(keys)}
        if len(index) != len(keys):
            raise ModelFormatError("feature_index repeats a key")
        sets = frozenset(_strings(record["feature_sets"], "feature_sets"))
        if not sets:
            raise ModelFormatError("feature_sets is empty")
        cfg = FeatureConfig(sets, _typed(record["window"], int, "window"))
        max_crossings = _typed(record["max_crossings"], int, "max_crossings")
        if max_crossings < 0:
            raise ModelFormatError("max_crossings must be >= 0")
        classes = _strings(record["classes"], "classes")
        if len(set(classes)) != len(classes):
            raise ModelFormatError("classes repeats a name")
        unknown = sorted(set(classes) - {r.value for r in RELATION_TYPES})
        if unknown:
            raise ModelFormatError(f"classes names {unknown}, which are not relation types")
        models = _typed(record["models"], list, "models")
        if len(models) != len(classes):
            raise ModelFormatError(f"{len(models)} binary models for {len(classes)} classes")
        models = _share_knn_rows(tuple(_binary_from_obj(m, algorithm, len(index)) for m in models))
        null_label = _typed(record["null_label"], str, "null_label")
        if null_label != NULL_LABEL:
            raise ModelFormatError(f"null_label must be {NULL_LABEL!r}, got {null_label!r}")
        ova = OvaModel(algorithm, classes, models, params, len(index))
        return TrainedModel(ova, index, cfg, max_crossings)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ModelFormatError(f"malformed model record ({exc})") from exc


def save_model(tm: TrainedModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(tm) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    return model_from_json(Path(path).read_text(encoding="utf-8"))

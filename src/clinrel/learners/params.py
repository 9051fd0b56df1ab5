"""Hyperparameter records, defaulting to each algorithm's best reported options.

A field's ``help`` metadata is its CLI flag's help.  The typed readers check
the values of model files for the learners' codecs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

KERNEL_KINDS = ("linear", "polynomial")


class ModelFormatError(Exception):
    """The record is not a readable model of a supported version."""


_TYPE_NAMES = {
    int: "an integer", float: "a number", str: "a string", bool: "a boolean", list: "a list", dict: "an object",
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


def _csr_to_obj(x: sparse.csr_matrix) -> dict:
    return {
        "shape": [int(x.shape[0]), int(x.shape[1])],
        "data": x.data.tolist(),
        "indices": x.indices.tolist(),
        "indptr": x.indptr.tolist(),
    }


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
    # the writer writes canonical rows of finite values, and the SVM's kernel blocks sum each row
    # over the columns a query stores, in ascending order
    if not x.has_canonical_format:
        raise ModelFormatError(f"{what} rows must have strictly increasing column indices")
    if not np.isfinite(x.data).all():
        raise ModelFormatError(f"{what} values must be finite")
    return x


@dataclass(frozen=True)
class NbParams:
    """Naive Bayes has no tunable options."""


@dataclass(frozen=True)
class TreeParams:
    min_cases: int = field(default=2, metadata={"help": "minimum cases per branch"})
    confidence: float = field(default=0.25, metadata={"help": "pruning confidence"})
    prune: bool = field(default=True, metadata={"help": "disable pruning"})

    def __post_init__(self) -> None:
        if self.min_cases < 1:
            raise ValueError("min_cases must be >= 1")
        if not 0 < self.confidence <= 0.5:
            raise ValueError("confidence must be in (0, 0.5]")


@dataclass(frozen=True)
class KnnParams:
    k: int = field(default=2, metadata={"help": "neighbor count"})

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class PaumParams:
    tau_pos: float = field(default=20.0, metadata={"help": "positive margin"})
    tau_neg: float = field(default=5.0, metadata={"help": "negative margin"})
    eta: float = field(default=1.0, metadata={"help": "learning rate"})
    opt_b: float = field(default=0.0, metadata={"help": "bias-feature scale"})
    max_epochs: int = field(default=100, metadata={"help": "epoch cap"})

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "polynomial"
    degree: int = 2

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")


@dataclass(frozen=True)
class SvmParams:
    c: float = field(default=0.7, metadata={"help": "soft-margin penalty"})
    kernel: KernelSpec = field(default_factory=KernelSpec)
    tau: float = field(default=0.8, metadata={"help": "uneven-margin parameter"})
    tol: float = field(default=1e-3, metadata={"help": "KKT tolerance"})
    cache_mb: float = field(default=100.0, metadata={"help": "kernel cache budget"})

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError("C must be positive")
        if not 0 < self.tau <= 1:
            raise ValueError("tau must be in (0, 1]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


Params = NbParams | TreeParams | KnnParams | PaumParams | SvmParams

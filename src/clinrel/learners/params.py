"""Hyperparameter records, defaulting to each algorithm's best reported options."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class NbParams:
    """Naive Bayes has no tunable options."""


@dataclass(frozen=True)
class TreeParams:
    min_cases: int = 2
    confidence: float = 0.25
    prune: bool = True

    def __post_init__(self) -> None:
        if self.min_cases < 1:
            raise ValueError("min_cases must be >= 1")
        if not 0 < self.confidence <= 0.5:
            raise ValueError("confidence must be in (0, 0.5]")


@dataclass(frozen=True)
class KnnParams:
    k: int = 2

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class PaumParams:
    tau_pos: float = 20.0
    tau_neg: float = 5.0
    eta: float = 1.0
    opt_b: float = 0.0
    max_epochs: int = 100

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
        if self.kind not in ("linear", "polynomial"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")


@dataclass(frozen=True)
class SvmParams:
    c: float = 0.7
    kernel: KernelSpec = field(default_factory=KernelSpec)
    tau: float = 0.8
    tol: float = 1e-3
    cache_mb: float = 100.0

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError("C must be positive")
        if not 0 < self.tau <= 1:
            raise ValueError("tau must be in (0, 1]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


Params = NbParams | TreeParams | KnnParams | PaumParams | SvmParams

"""Experiment drivers: algorithm comparison, margin sweep, feature ablation,
and a learning curve over document-prefix subsets.

Each driver returns a report object that renders a tab-separated table and a
machine-readable JSON document.  JSON output with runtimes excluded is
byte-stable for a fixed corpus, configuration, and seed.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

from .corpus import Corpus
from .features import FeatureConfig
from .harness import (
    DEFAULT_FOLDS,
    DEFAULT_SEED,
    CvReport,
    FoldResult,
    JsonReport,
    Metrics,
    aggregate_folds,
    corpus_features,
    fold_models,
    fold_result,
    prepare_folds,
    run_cv,
    scores_obj,
)
from .learners import LEARNERS, SvmModel, ova_classify, params_for
from .learners.svm import with_margin
from .pairing import DEFAULT_MAX_CROSSINGS
from .schema import RELATION_TYPES, REPORT_LABELS, RelationType

# each metric's Metrics field and its table label
METRICS = (("p", "P"), ("r", "R"), ("f1", "F1"))

DEFAULT_TAU_VALUES = (1.0, 0.8, 0.6, 0.4, 0.2)

# Cumulative feature sequence: each column adds one set to the previous one,
# then the two alias configurations, then the syntactic additions.
ABLATION_STEPS = (
    ("Tok6+Atype", ("tok6", "atype")),
    ("+Dir", ("tok6", "atype", "dir")),
    ("+Str", ("tok6", "atype", "dir", "str")),
    ("+POS", ("tok6", "atype", "dir", "str", "pos")),
    ("+Inter", ("tok6", "atype", "dir", "str", "pos", "inter")),
    ("+Event", ("tok6", "atype", "dir", "str", "pos", "inter", "event")),
    ("Allgen", ("allgen",)),
    ("NoTok", ("notok",)),
)
ABLATION_SYNTACTIC_STEPS = (
    ("+Event", ("tok6", "atype", "dir", "str", "pos", "inter", "event")),
    ("+Dep", ("tok6", "atype", "dir", "str", "pos", "inter", "event", "dep")),
    ("+Syndist", ("tok6", "atype", "dir", "str", "pos", "inter", "event", "dep", "syndist")),
)


def metric_rows(label: str, column_metrics: Sequence[Metrics | None]) -> list[list[str]]:
    """One row label's P, R and F1 rows, one cell per column; the label heads the P row."""
    return [
        [label if i == 0 else "", metric]
        + ["-" if m is None else f"{getattr(m, which) * 100:.2f}" for m in column_metrics]
        for i, (which, metric) in enumerate(METRICS)
    ]


def type_rows(column_values) -> list[list[str]]:
    """Shared P/R/F1 row block: one triple per relation type, then Overall.

    column_values: list of (per_type dict, overall Metrics) pairs, one per column.
    """
    rows = []
    for rtype, label in REPORT_LABELS.items():
        rows.extend(metric_rows(label, [per_type.get(rtype) for per_type, _ in column_values]))
    rows.extend(metric_rows("Overall", [overall for _, overall in column_values]))
    return rows


def render_rows(rows: list[list[str]]) -> str:
    """Tab-separated rows, one line each."""
    return "\n".join("\t".join(row) for row in rows) + "\n"


@dataclass(frozen=True)
class AlgorithmsReport(JsonReport):
    reports: dict[str, CvReport]

    def to_table(self) -> str:
        columns = [(LEARNERS[a].label, r) for a, r in self.reports.items()]
        header = ["Relationship type", "Metric (%)"] + [label for label, _ in columns]
        rows = [header]
        rows.extend(type_rows([(r.per_type, r.overall) for _, r in columns]))
        rows.append(
            ["Run Time in seconds", ""] + [f"{r.runtime_seconds:.2f}" for _, r in columns]
        )
        return render_rows(rows)

    def to_obj(self, include_runtime: bool = True) -> dict:
        return {
            "experiment": "algorithms",
            "columns": [
                {
                    "label": LEARNERS[a].label,
                    "algorithm": a,
                    "report": r.to_obj(include_runtime),
                }
                for a, r in self.reports.items()
            ],
        }


def experiment_algorithms(
    corpus: Corpus,
    feature_cfg: FeatureConfig = FeatureConfig(),
    k: int = DEFAULT_FOLDS,
    seed: int = DEFAULT_SEED,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> AlgorithmsReport:
    """Every learner in ``LEARNERS`` at its default settings on one shared fold plan."""
    folds = prepare_folds(corpus, feature_cfg, k, seed, max_crossings)
    return AlgorithmsReport({a: run_cv(corpus, a, seed=seed, folds=folds) for a in LEARNERS})


@dataclass(frozen=True)
class TauSweepReport(JsonReport):
    values: tuple[float, ...]
    per_value: dict[float, tuple[dict[RelationType, Metrics | None], Metrics]]
    k: int
    seed: int
    runtime_seconds: float

    def to_table(self) -> str:
        header = ["Uneven margin (τ)", "Metric (%)"] + [f"{v:g}" for v in self.values]
        rows = [header] + metric_rows("Overall Relations", [self.per_value[v][1] for v in self.values])
        return render_rows(rows)

    def to_obj(self, include_runtime: bool = True) -> dict:
        obj = {
            "experiment": "tau-sweep",
            "k": self.k,
            "seed": self.seed,
            "columns": [{"tau": v, **scores_obj(*self.per_value[v])} for v in self.values],
        }
        if include_runtime:
            obj["runtime_seconds"] = self.runtime_seconds
        return obj


def experiment_tau_sweep(
    corpus: Corpus,
    values: tuple[float, ...] = DEFAULT_TAU_VALUES,
    feature_cfg: FeatureConfig = FeatureConfig(),
    k: int = DEFAULT_FOLDS,
    seed: int = DEFAULT_SEED,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> TauSweepReport:
    """Margin sweep over one SVM solution per fold and class.

    The margin parameter only rescales and shifts the decision function, so
    each base solution is solved once and every tau is applied to it.
    """
    if not values:
        raise ValueError("at least one tau value is required")
    tau_params = {v: params_for("svm", tau=v) for v in values}  # checks every value before any training
    folds = prepare_folds(corpus, feature_cfg, k, seed, max_crossings)
    started = time.perf_counter()
    fold_results: dict[float, list[FoldResult]] = {v: [] for v in values}
    for fold, base in zip(folds, fold_models(folds, "svm", params_for("svm", tau=1.0))):
        for v in values:
            model = replace(
                base, models=tuple(with_margin(m, v) if isinstance(m, SvmModel) else m for m in base.models),
                params=tau_params[v],
            )
            fold_results[v].append(fold_result(fold, ova_classify(model, fold.x_test)))

    per_value = {v: aggregate_folds(fold_results[v]) for v in values}
    return TauSweepReport(
        values=tuple(values),
        per_value=per_value,
        k=len(folds),
        seed=seed,
        runtime_seconds=time.perf_counter() - started,
    )


@dataclass(frozen=True)
class AblationReport(JsonReport):
    columns: tuple[tuple[str, tuple[str, ...], CvReport], ...]
    syntactic_columns: tuple[tuple[str, tuple[str, ...], CvReport], ...]

    def _table_for(self, columns) -> str:
        header = ["Relationship type", "Metric (%)"] + [label for label, _, _ in columns]
        rows = [header]
        rows.extend(type_rows([(r.per_type, r.overall) for _, _, r in columns]))
        return render_rows(rows)

    def to_table(self) -> str:
        return self._table_for(self.columns) + "\n" + self._table_for(self.syntactic_columns)

    def to_obj(self, include_runtime: bool = True) -> dict:
        def cols(columns):
            return [
                {
                    "label": label,
                    "features": list(sets),
                    "report": report.to_obj(include_runtime),
                }
                for label, sets, report in columns
            ]

        return {
            "experiment": "ablation",
            "columns": cols(self.columns),
            "syntactic_columns": cols(self.syntactic_columns),
        }


def experiment_ablation(
    corpus: Corpus,
    algorithm: str = "svm",
    k: int = DEFAULT_FOLDS,
    seed: int = DEFAULT_SEED,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> AblationReport:
    """Cumulative feature columns, alias configurations, then syntactic additions.

    The corpus is extracted once, with every set any step enables, and each
    configuration keeps the columns of its own sets.  That filter is exact:
    ``extract`` emits a key of set s only when s is enabled, its value does
    not depend on the other enabled sets, and its name parses back to s
    (``feature_set``).  Every step uses the default tokN window.
    """
    steps = ABLATION_STEPS + ABLATION_SYNTACTIC_STEPS
    superset = frozenset().union(*(FeatureConfig.of(*sets).sets for _, sets in steps))
    features = corpus_features(corpus, FeatureConfig(superset), max_crossings)
    cache: dict[tuple[str, ...], CvReport] = {}

    def run(sets: tuple[str, ...]) -> CvReport:
        if sets not in cache:
            cfg = FeatureConfig.of(*sets)
            folds = prepare_folds(corpus, cfg, k, seed, max_crossings, features=features)
            cache[sets] = run_cv(corpus, algorithm, seed=seed, folds=folds)
        return cache[sets]

    columns = tuple((label, sets, run(sets)) for label, sets in ABLATION_STEPS)
    syntactic = tuple((label, sets, run(sets)) for label, sets in ABLATION_SYNTACTIC_STEPS)
    return AblationReport(columns=columns, syntactic_columns=syntactic)


@dataclass(frozen=True)
class LearningCurveReport(JsonReport):
    sizes: tuple[int, ...]
    counts: dict[int, dict[RelationType, int]]
    reports: dict[int, CvReport]

    def to_table(self) -> str:
        rows = [["Corpus size"]]
        header = ["Relationship type", "Metric (%)"] + [f"C{n}" for n in self.sizes]
        rows.append(header)
        for rtype, label in REPORT_LABELS.items():
            rows.append(
                [label, "Count"]
                + [str(self.counts[n][rtype]) for n in self.sizes]
            )
            rows.extend(metric_rows("", [self.reports[n].per_type.get(rtype) for n in self.sizes]))
        rows.append(
            ["Overall", "Count"]
            + [str(sum(self.counts[n].values())) for n in self.sizes]
        )
        rows.extend(metric_rows("", [self.reports[n].overall for n in self.sizes]))
        return render_rows(rows)

    def to_obj(self, include_runtime: bool = True) -> dict:
        return {
            "experiment": "learning-curve",
            "columns": [
                {
                    "label": f"C{n}",
                    "size": n,
                    "counts": {
                        rtype.value: self.counts[n][rtype] for rtype in RELATION_TYPES
                    },
                    "report": self.reports[n].to_obj(include_runtime),
                }
                for n in self.sizes
            ],
        }


def curve_sizes(n_docs: int) -> tuple[int, ...]:
    """Half, three-quarters, and all documents; (20, 30, 40) for a 40-doc corpus."""
    sizes = sorted({max(2, round(n_docs * 0.5)), max(2, round(n_docs * 0.75)), n_docs})
    return tuple(sizes)


def check_curve_sizes(sizes: Sequence[int]) -> None:
    """Raise ValueError unless every size is at least 2 and each exceeds the one before: what no corpus can fix."""
    if any(n < 2 for n in sizes):
        raise ValueError("subset sizes must lie within 2..document count")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("subset sizes must be increasing, with no size repeated")


def experiment_learning_curve(
    corpus: Corpus,
    algorithm: str = "svm",
    sizes: tuple[int, ...] | None = None,
    feature_cfg: FeatureConfig = FeatureConfig(),
    k: int = DEFAULT_FOLDS,
    seed: int = DEFAULT_SEED,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> LearningCurveReport:
    """Document-prefix subsets of increasing size, each under the full protocol.

    The full corpus is paired and extracted once; each subset's counts are
    read from its pairs, and its folds are slices of its matrix.
    """
    if sizes is None:
        sizes = curve_sizes(len(corpus))
    check_curve_sizes(sizes)
    if any(n > len(corpus) for n in sizes):
        raise ValueError("subset sizes must lie within 2..document count")
    features = corpus_features(corpus, feature_cfg, max_crossings)
    counts = {}
    reports = {}
    for n in sizes:
        subset = corpus.subset(n)
        found = Counter(inst.label for doc in subset for inst in features.instances[doc.id])
        counts[n] = {rtype: found[rtype] for rtype in RELATION_TYPES}
        folds = prepare_folds(subset, feature_cfg, min(k, n), seed, max_crossings, features=features)
        reports[n] = run_cv(subset, algorithm, seed=seed, folds=folds)
    return LearningCurveReport(sizes=tuple(sizes), counts=counts, reports=reports)

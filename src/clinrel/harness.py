"""Cross-validation, response/key matching, and P/R/F1 aggregation.

Folds split by document: documents are shuffled with a seeded generator and
dealt round-robin, so a (corpus, k, seed) triple always yields the same plan.
Scoring is exact-match on (type, arg1, arg2) within a document.  Per-type
results are macro-averaged over the folds in which the type occurs (in gold
or in the response); the overall row micro-aggregates counts over types
within each fold and macro-averages those values over all folds.

Features are extracted and vectorized once per corpus (``corpus_features``),
over one global index of sorted keys.  Every fold is a slice of that matrix:
the fold's rows, then the columns its training rows contain.  Because the
keys are sorted, dropping the columns no training row has gives exactly the
index a fold would build from its training rows alone, so a fold's matrices
equal fold-local ``build_index`` and ``vectorize`` array for array, and no
test-only key receives a column.

SVM cross-validation computes one kernel Gram matrix over the training rows
of all folds (``shared_gram``) and gives each fold the slice at its own
training rows, which equals the Gram matrix the fold would build alone.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy import sparse

from .corpus import Corpus, Document, RelationInstance
# build_index and vectorize stay importable from here: perfbench/run.py spans
# them by module attribute, together with extract and labeled_instances
from .features import FeatureConfig, build_index, build_matrix, extract, feature_set, vectorize  # noqa: F401
from .learners import OvaModel, ova_classify, ova_train, params_for
from .learners.params import KernelSpec, Params
from .learners.svm import gram_budget, kernel_matrix
from .pairing import DEFAULT_MAX_CROSSINGS, LabeledInstance, labeled_instances
from .schema import RELATION_TYPES, RelationType

DEFAULT_FOLDS = 10
DEFAULT_SEED = 42


@dataclass(frozen=True)
class Metrics:
    p: float
    r: float
    f1: float


def prf(tp: int, fp: int, fn: int) -> Metrics:
    """Precision/recall/F1 with explicit zero conventions for empty denominators."""
    p = tp / (tp + fp) if tp + fp > 0 else 0.0
    r = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return Metrics(p, r, f1)


def macro_average(per_fold: Sequence[Metrics]) -> Metrics | None:
    """Independent arithmetic means of P, R, and F1; None when nothing contributes.

    Averaging F1 values directly means the reported F1 is generally not the
    harmonic mean of the reported P and R.
    """
    if not per_fold:
        return None
    n = len(per_fold)
    return Metrics(
        sum(m.p for m in per_fold) / n,
        sum(m.r for m in per_fold) / n,
        sum(m.f1 for m in per_fold) / n,
    )


class MatchCounts:
    """Per-relation-type TP/FP/FN tallies."""

    def __init__(self) -> None:
        self._counts: dict[RelationType, list[int]] = {}

    def add(self, rtype: RelationType, tp: int = 0, fp: int = 0, fn: int = 0) -> None:
        cell = self._counts.setdefault(rtype, [0, 0, 0])
        cell[0] += tp
        cell[1] += fp
        cell[2] += fn

    def merge(self, other: "MatchCounts") -> None:
        for rtype, (tp, fp, fn) in other._counts.items():
            self.add(rtype, tp, fp, fn)

    def for_type(self, rtype: RelationType) -> tuple[int, int, int]:
        tp, fp, fn = self._counts.get(rtype, (0, 0, 0))
        return tp, fp, fn

    def micro_total(self) -> tuple[int, int, int]:
        tp = sum(c[0] for c in self._counts.values())
        fp = sum(c[1] for c in self._counts.values())
        fn = sum(c[2] for c in self._counts.values())
        return tp, fp, fn


def match_relations(
    response: Iterable[RelationInstance], key: Iterable[RelationInstance]
) -> MatchCounts:
    """Exact-match scoring within one document; duplicates collapse."""
    response_set = {(r.rtype, r.arg1, r.arg2) for r in response if not r.rtype.is_null}
    key_set = {(r.rtype, r.arg1, r.arg2) for r in key if not r.rtype.is_null}
    counts = MatchCounts()
    for rtype, _, _ in response_set & key_set:
        counts.add(rtype, tp=1)
    for rtype, _, _ in response_set - key_set:
        counts.add(rtype, fp=1)
    for rtype, _, _ in key_set - response_set:
        counts.add(rtype, fn=1)
    return counts


def make_folds(corpus: Corpus, k: int = DEFAULT_FOLDS, seed: int = DEFAULT_SEED) -> tuple[tuple[str, ...], ...]:
    """Seeded shuffle, then round-robin deal into k folds of document ids."""
    n = len(corpus)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError(f"k={k} exceeds the document count {n}")
    ids = [doc.id for doc in corpus]
    random.Random(seed).shuffle(ids)
    return tuple(tuple(ids[i::k]) for i in range(k))


@dataclass(frozen=True)
class FoldData:
    """Everything one fold needs: split instances and their matrices.

    A fold cut from a corpus matrix records where it came from: ``x_train``
    is ``source[train_rows]``, cut to the ``enabled`` columns that those rows
    store anything in.  The three fields are None for folds built some other
    way.
    """

    x_train: sparse.csr_matrix
    train_labels: tuple[str, ...]
    x_test: sparse.csr_matrix
    test_instances: tuple[LabeledInstance, ...]
    test_docs: tuple[Document, ...]
    source: sparse.csr_matrix | None = None
    train_rows: np.ndarray | None = None
    enabled: np.ndarray | None = None


@dataclass(frozen=True)
class _Split:
    """One fold of a corpus matrix, apart from the feature sets: what ``prepare_folds`` memoizes."""

    train_rows: np.ndarray
    test_rows: np.ndarray
    train_labels: tuple[str, ...]
    test_instances: tuple[LabeledInstance, ...]
    present: np.ndarray  # the columns that the training rows store


@dataclass(frozen=True, eq=False)
class CorpusFeatures:
    """One corpus extracted and vectorized once, for slicing into folds.

    ``x`` has one row per labeled instance, document by document in corpus
    order (``rows[doc_id]`` is a document's ``(lo, hi)`` row range), and one
    column per key in ``keys``, which are sorted.  ``key_sets[j]`` is the
    feature set that owns column ``j``.  ``splits`` is ``prepare_folds``'s
    memo of the fold splits made from this record.
    """

    feature_cfg: FeatureConfig
    max_crossings: int
    instances: Mapping[str, tuple[LabeledInstance, ...]]
    rows: Mapping[str, tuple[int, int]]
    x: sparse.csr_matrix
    keys: tuple[str, ...]
    key_sets: tuple[str, ...]
    splits: dict = field(default_factory=dict, repr=False)

    def select(self, doc_ids: Iterable[str]) -> tuple[np.ndarray, tuple[LabeledInstance, ...]]:
        """Row numbers and labeled instances of the given documents, in that order."""
        rows: list[int] = []
        instances: list[LabeledInstance] = []
        for doc_id in doc_ids:
            lo, hi = self.rows[doc_id]
            rows.extend(range(lo, hi))
            instances.extend(self.instances[doc_id])
        return np.asarray(rows, dtype=np.intp), tuple(instances)


def corpus_features(
    corpus: Corpus,
    feature_cfg: FeatureConfig,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> CorpusFeatures:
    """Pair, label and extract every document once, into one CSR matrix."""
    instances: dict[str, tuple[LabeledInstance, ...]] = {}
    rows: dict[str, tuple[int, int]] = {}
    n_rows = 0
    for doc in corpus:
        found, _ = labeled_instances(doc, max_crossings)
        instances[doc.id] = found
        rows[doc.id] = (n_rows, n_rows + len(found))
        n_rows += len(found)
    x, keys = build_matrix(
        chain.from_iterable(extract(doc, [inst.pair for inst in instances[doc.id]], feature_cfg) for doc in corpus)
    )
    return CorpusFeatures(
        feature_cfg=feature_cfg,
        max_crossings=max_crossings,
        instances=instances,
        rows=rows,
        x=x,
        keys=keys,
        key_sets=tuple(map(feature_set, keys)),
    )


def _check_features(
    features: CorpusFeatures, corpus: Corpus, feature_cfg: FeatureConfig, max_crossings: int
) -> None:
    given = features.feature_cfg
    if given.window != feature_cfg.window:
        raise ValueError(f"features were extracted with window {given.window}, not {feature_cfg.window}")
    if features.max_crossings != max_crossings:
        raise ValueError(
            f"features were paired with max_crossings {features.max_crossings}, not {max_crossings}"
        )
    missing = sorted(feature_cfg.sets - given.sets)
    if missing:
        raise ValueError(f"features lack the feature sets {missing}")
    absent = [doc.id for doc in corpus if doc.id not in features.rows]
    if absent:
        raise ValueError(f"features have no rows for documents {absent}")


def prepare_folds(
    corpus: Corpus,
    feature_cfg: FeatureConfig,
    k: int = DEFAULT_FOLDS,
    seed: int = DEFAULT_SEED,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    *,
    features: CorpusFeatures | None = None,
) -> list[FoldData]:
    """Shared preprocessing for every experiment driver: k slices of one matrix.

    ``features`` defaults to ``corpus_features(corpus, feature_cfg,
    max_crossings)``.  A fold keeps the columns that its training rows
    contain and whose set ``feature_cfg`` enables; with the keys sorted, that
    is the index ``build_index`` would make from the training vectors alone.
    So ``features`` may also be extracted for a superset of the enabled sets
    (same window) or for a superset of the documents: ``extract`` emits a key
    of set s only when s is enabled, with a value that does not depend on the
    other sets, and the key's name parses back to s.  Raises ValueError when
    ``features`` cannot stand for this corpus and configuration.

    The split (each fold's rows, training labels, test instances and the
    columns its training rows store) depends only on ``features``, the
    corpus's document ids and the plan's folds, so ``features.splits`` keeps
    it under those two keys; a later call with other feature sets (an
    ablation step) cuts the same rows of the same matrix at its own columns.
    """
    if features is None:
        features = corpus_features(corpus, feature_cfg, max_crossings)
    else:
        _check_features(features, corpus, feature_cfg, max_crossings)
    plan = make_folds(corpus, k, seed)
    key = (tuple(doc.id for doc in corpus), plan)
    if key not in features.splits:
        features.splits[key] = [_split(features, key[0], set(test_ids)) for test_ids in plan]
    docs = {doc.id: doc for doc in corpus}
    enabled = np.fromiter(
        (name in feature_cfg.sets for name in features.key_sets), dtype=bool, count=len(features.keys)
    )

    folds = []
    for split, test_ids in zip(features.splits[key], plan):
        cols = np.flatnonzero(split.present & enabled)
        folds.append(
            FoldData(
                x_train=features.x[split.train_rows][:, cols],
                train_labels=split.train_labels,
                x_test=features.x[split.test_rows][:, cols],
                test_instances=split.test_instances,
                test_docs=tuple(docs[i] for i in test_ids),
                source=features.x,
                train_rows=split.train_rows,
                enabled=enabled,
            )
        )
    return folds


def _split(features: CorpusFeatures, ids: Sequence[str], test_ids: set[str]) -> _Split:
    train_rows, train_instances = features.select(i for i in ids if i not in test_ids)
    test_rows, test_instances = features.select(i for i in ids if i in test_ids)
    train_rows.setflags(write=False)  # every call for this split shares the array
    present = np.zeros(len(features.keys), dtype=bool)
    present[features.x[train_rows].indices] = True
    return _Split(train_rows, test_rows, tuple(i.label.value for i in train_instances), test_instances, present)


@dataclass(frozen=True, eq=False)
class SharedGram:
    """One kernel Gram matrix over the training rows of several folds."""

    gram: np.ndarray
    positions: tuple[np.ndarray, ...]  # each fold's training rows, as rows of ``gram``

    def fold(self, f: int) -> np.ndarray:
        """Fold f's Gram matrix: bit for bit the one its own ``KernelCache`` builds."""
        p = self.positions[f]
        return self.gram[np.ix_(p, p)]


def shared_gram(folds: Sequence[FoldData], kernel: KernelSpec, cache_mb: float) -> SharedGram | None:
    """The Gram matrix of the union of the folds' training rows, if the budget allows.

    It is built over the enabled columns of the corpus matrix, canonical as
    ``KernelCache`` makes a fold's matrix, so every entry sums the same
    products in the same order as in the fold's own Gram matrix.  None
    unless every fold records its rows in one corpus matrix with one set of
    enabled columns, and the shared matrix and the largest fold slice fit
    ``cache_mb`` together.  Then every fold would also have built its full
    Gram matrix alone, so no fold moves between the full and the LRU path.
    """
    if not folds:
        return None
    first = folds[0]
    if any(f.train_rows is None or f.source is not first.source or f.enabled is not first.enabled for f in folds):
        return None
    rows = np.unique(np.concatenate([f.train_rows for f in folds]))
    largest = max(f.train_rows.size for f in folds)
    if rows.size == 0 or rows.size**2 + largest**2 > gram_budget(cache_mb):
        return None
    x = first.source[rows][:, np.flatnonzero(first.enabled)]
    x.sum_duplicates()
    return SharedGram(
        kernel_matrix(kernel, x, x),
        tuple(np.searchsorted(rows, f.train_rows) for f in folds),
    )


def score_fold(
    fold: FoldData, predicted: Sequence[str]
) -> MatchCounts:
    """Match predicted labels for a fold's instances against its documents' gold."""
    by_doc: dict[str, list[RelationInstance]] = {doc.id: [] for doc in fold.test_docs}
    for inst, label in zip(fold.test_instances, predicted):
        rtype = RelationType(label)
        if not rtype.is_null:
            by_doc[inst.pair.doc_id].append(
                RelationInstance(rtype, inst.pair.arg1, inst.pair.arg2)
            )
    counts = MatchCounts()
    for doc in fold.test_docs:
        counts.merge(match_relations(by_doc[doc.id], doc.relations))
    return counts


@dataclass(frozen=True)
class FoldResult:
    per_type: dict[RelationType, Metrics | None]
    overall: Metrics
    n_features: int


class JsonReport:
    """A report whose JSON form is its ``to_obj`` written compactly."""

    def to_json(self, include_runtime: bool = True) -> str:
        return json.dumps(self.to_obj(include_runtime), ensure_ascii=False, separators=(",", ":"))


@dataclass(frozen=True)
class CvReport(JsonReport):
    algorithm: str
    k: int
    seed: int
    per_type: dict[RelationType, Metrics | None]
    overall: Metrics
    folds: tuple[FoldResult, ...]
    runtime_seconds: float

    def to_obj(self, include_runtime: bool = True) -> dict:
        obj = {
            "algorithm": self.algorithm,
            "k": self.k,
            "seed": self.seed,
            **scores_obj(self.per_type, self.overall),
        }
        if include_runtime:
            obj["runtime_seconds"] = self.runtime_seconds
        return obj


def _metrics_obj(m: Metrics | None) -> dict | None:
    if m is None:
        return None
    return {"p": m.p, "r": m.r, "f1": m.f1}


def scores_obj(per_type: Mapping[RelationType, Metrics | None], overall: Metrics) -> dict:
    """The ``per_type`` and ``overall`` JSON members of one column of scores."""
    return {
        "per_type": {rtype.value: _metrics_obj(per_type.get(rtype)) for rtype in RELATION_TYPES},
        "overall": _metrics_obj(overall),
    }


def fold_metrics(counts: MatchCounts) -> tuple[dict[RelationType, Metrics | None], Metrics]:
    """Per-type metrics (None when the type is absent from gold and response) plus the micro overall."""
    per_type: dict[RelationType, Metrics | None] = {}
    for rtype in RELATION_TYPES:
        tp, fp, fn = counts.for_type(rtype)
        per_type[rtype] = None if tp + fp + fn == 0 else prf(tp, fp, fn)
    overall = prf(*counts.micro_total())
    return per_type, overall


def fold_result(fold: FoldData, predicted: Sequence[str]) -> FoldResult:
    """A fold's scores for the labels predicted for its test instances."""
    per_type, overall = fold_metrics(score_fold(fold, predicted))
    return FoldResult(per_type=per_type, overall=overall, n_features=fold.x_train.shape[1])


def aggregate_folds(fold_results: Sequence[FoldResult]) -> tuple[dict[RelationType, Metrics | None], Metrics]:
    """Macro-average per type over contributing folds; overall over all folds."""
    per_type: dict[RelationType, Metrics | None] = {}
    for rtype in RELATION_TYPES:
        contributing = [fr.per_type[rtype] for fr in fold_results if fr.per_type[rtype] is not None]
        per_type[rtype] = macro_average(contributing)
    overall = macro_average([fr.overall for fr in fold_results])
    assert overall is not None
    return per_type, overall


def fold_models(folds: Sequence[FoldData], algorithm: str, params: Params) -> Iterator[OvaModel]:
    """Each fold's one-vs-all model over every relation type, in fold order.

    SVM folds share one Gram matrix (``shared_gram``), built when the first
    model is asked for.  Each fold's slice is cut inside its own
    ``ova_train`` call, so no two fold slices are alive at once.
    """
    classes = [r.value for r in RELATION_TYPES]
    shared = shared_gram(folds, params.kernel, params.cache_mb) if algorithm == "svm" else None
    for f, fold in enumerate(folds):
        yield ova_train(
            fold.x_train, fold.train_labels, algorithm, params, classes=classes,
            gram=None if shared is None else shared.fold(f),
        )


def run_cv(
    corpus: Corpus,
    algorithm: str,
    params: Params | None = None,
    feature_cfg: FeatureConfig = FeatureConfig(),
    k: int = DEFAULT_FOLDS,
    seed: int = DEFAULT_SEED,
    folds: list[FoldData] | None = None,
) -> CvReport:
    """Full k-fold protocol for one algorithm/config pair.

    Given ``folds``, it reads only ``algorithm``, ``params``, ``seed`` and
    the folds: ``corpus``, ``feature_cfg`` and ``k`` serve only to prepare
    folds when none are given.
    """
    if params is None:
        params = params_for(algorithm)
    if folds is None:
        folds = prepare_folds(corpus, feature_cfg, k, seed)
    results = []
    runtime = 0.0
    models = fold_models(folds, algorithm, params)
    for fold in folds:
        started = time.perf_counter()
        predicted = ova_classify(next(models), fold.x_test)
        runtime += time.perf_counter() - started
        results.append(fold_result(fold, predicted))
    per_type, overall = aggregate_folds(results)
    return CvReport(
        algorithm=algorithm,
        k=len(folds),
        seed=seed,
        per_type=per_type,
        overall=overall,
        folds=tuple(results),
        runtime_seconds=runtime,
    )

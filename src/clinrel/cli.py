"""Command-line surface: generate, train, predict, evaluate, experiment.

Exit codes: 0 success, 1 usage error, 2 data error (malformed files or a
configuration the data cannot satisfy), 3 internal error.  Every failure
prints a single-line diagnostic on stderr, and so does every warning the
library logs (an SMO run stopped at its step cap, a class with no positive
training instances).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .corpus import Corpus, CorpusError, RelationInstance, load_corpus, save_corpus
from .experiments import (
    DEFAULT_TAU_VALUES,
    experiment_ablation,
    experiment_algorithms,
    experiment_learning_curve,
    experiment_tau_sweep,
)
from .features import DEFAULT_WINDOW, FeatureConfig, build_index, extract, vectorize
from .harness import (
    DEFAULT_FOLDS,
    DEFAULT_SEED,
    MatchCounts,
    fold_metrics,
    match_relations,
)
from .learners import (
    ALGORITHMS,
    KernelSpec,
    ModelFormatError,
    TrainedModel,
    load_model,
    ova_classify,
    ova_train,
    params_for,
    save_model,
)
from .pairing import DEFAULT_MAX_CROSSINGS, labeled_instances
from .schema import (
    RELATION_TYPES,
    REPORT_LABELS,
    REPORT_ORDER,
    RelationType,
    compatible_relation_types,
)
from .synth import GeneratorConfig, generate_synthetic


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own codes.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="corpus file (one JSON document per line)")
    parser.add_argument("--features", default=None,
                        help="comma-separated feature set names (aliases allowed)")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        help="token window for the tokN/gentokN sets")
    parser.add_argument("--max-crossings", type=int, default=DEFAULT_MAX_CROSSINGS,
                        help="maximum sentence-boundary crossings for candidate pairs")


def _add_hyper(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    parser.add_argument("--k", type=int, default=None, help="neighbor count (knn)")
    parser.add_argument("--tau", type=float, default=None, help="uneven-margin parameter (svm)")
    parser.add_argument("--c", type=float, default=None, help="soft-margin penalty (svm)")
    parser.add_argument("--degree", type=int, default=None, help="polynomial kernel degree (svm)")
    parser.add_argument("--kernel", choices=("linear", "polynomial"), default=None,
                        help="kernel kind (svm)")
    parser.add_argument("--tol", type=float, default=None, help="KKT tolerance (svm)")
    parser.add_argument("--cache-mb", type=float, default=None, help="kernel cache budget (svm)")
    parser.add_argument("--tau-pos", type=float, default=None, help="positive margin (paum)")
    parser.add_argument("--tau-neg", type=float, default=None, help="negative margin (paum)")
    parser.add_argument("--eta", type=float, default=None, help="learning rate (paum)")
    parser.add_argument("--opt-b", type=float, default=None, help="bias-feature scale (paum)")
    parser.add_argument("--max-epochs", type=int, default=None, help="epoch cap (paum)")
    parser.add_argument("--min-cases", type=int, default=None, help="minimum cases per branch (c45)")
    parser.add_argument("--confidence", type=float, default=None, help="pruning confidence (c45)")
    parser.add_argument("--no-prune", action="store_true", help="disable pruning (c45)")


_HYPER_FIELDS = {
    "nb": (),
    "c45": ("min_cases", "confidence", "prune"),
    "knn": ("k",),
    "paum": ("tau_pos", "tau_neg", "eta", "opt_b", "max_epochs"),
    "svm": ("c", "kernel", "tau", "tol", "cache_mb"),
}


def _params_from_args(args: argparse.Namespace):
    """Validate flag/algorithm pairing and build the hyperparameter record."""
    given = {
        "k": args.k, "tau": args.tau, "c": args.c, "tol": args.tol,
        "cache_mb": args.cache_mb, "tau_pos": args.tau_pos, "tau_neg": args.tau_neg,
        "eta": args.eta, "opt_b": args.opt_b, "max_epochs": args.max_epochs,
        "min_cases": args.min_cases, "confidence": args.confidence,
    }
    overrides = {name: value for name, value in given.items() if value is not None}
    if args.no_prune:
        overrides["prune"] = False
    if args.degree is not None or args.kernel is not None:
        overrides["kernel"] = KernelSpec(
            kind=args.kernel if args.kernel is not None else "polynomial",
            degree=args.degree if args.degree is not None else 2,
        )
    allowed = set(_HYPER_FIELDS[args.algorithm])
    stray = sorted(set(overrides) - allowed)
    if stray:
        raise _UsageError(
            f"flags {stray} do not apply to algorithm {args.algorithm!r}"
        )
    try:
        return params_for(args.algorithm, **overrides)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _feature_config(args: argparse.Namespace) -> FeatureConfig:
    try:
        if args.features is None:
            return FeatureConfig(window=args.window)
        names = [n.strip() for n in args.features.split(",") if n.strip()]
        if not names:
            raise ValueError("empty feature list")
        return FeatureConfig.of(*names, window=args.window)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _training_data(corpus: Corpus, cfg: FeatureConfig, max_crossings: int):
    vectors = []
    labels = []
    for doc in corpus:
        instances, _ = labeled_instances(doc, max_crossings)
        for inst in instances:
            vectors.append(extract(inst.pair, doc, cfg))
            labels.append(inst.label.value)
    return vectors, labels


def cmd_generate(args: argparse.Namespace) -> int:
    if args.docs < 1:
        raise _UsageError("--docs must be >= 1")
    if args.min_sentences < 1 or args.max_sentences < args.min_sentences:
        raise _UsageError("sentence bounds must satisfy 1 <= min <= max")
    cfg = GeneratorConfig(
        n_docs=args.docs,
        min_sentences=args.min_sentences,
        max_sentences=args.max_sentences,
        seed=args.seed,
    )
    save_corpus(generate_synthetic(cfg), Path(args.out))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    cfg = _feature_config(args)
    if args.max_crossings < 0:
        raise _UsageError("--max-crossings must be >= 0")
    corpus = load_corpus(Path(args.corpus))
    vectors, labels = _training_data(corpus, cfg, args.max_crossings)
    index = build_index(vectors)
    x = vectorize(vectors, index)
    ova = ova_train(x, labels, args.algorithm, params,
                    classes=[r.value for r in RELATION_TYPES])
    model = TrainedModel(ova=ova, index=index, feature_config=cfg,
                         max_crossings=args.max_crossings)
    save_model(model, Path(args.model))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(Path(args.model))
    corpus = load_corpus(Path(args.corpus))
    out_docs = []
    for doc in corpus:
        instances, _ = labeled_instances(doc, model.max_crossings)
        vectors = [extract(inst.pair, doc, model.feature_config) for inst in instances]
        x = vectorize(vectors, model.index)
        predicted = ova_classify(model.ova, x)
        relations = []
        for inst, label in zip(instances, predicted):
            rtype = RelationType(label)
            if rtype.is_null:
                continue
            # a type the argument slots cannot carry could never match gold,
            # and the output corpus must validate; drop it
            legal = compatible_relation_types(
                doc.entity(inst.pair.arg1).etype, doc.entity(inst.pair.arg2).etype
            )
            if rtype not in legal:
                continue
            relations.append(RelationInstance(rtype, inst.pair.arg1, inst.pair.arg2))
        out_docs.append(dataclasses.replace(doc, relations=tuple(relations)))
    save_corpus(Corpus(tuple(out_docs)), Path(args.out))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    key = load_corpus(Path(args.corpus))
    response = load_corpus(Path(args.response))
    key_ids = [doc.id for doc in key]
    response_by_id = {doc.id: doc for doc in response}
    if set(key_ids) != set(response_by_id):
        raise CorpusError("key and response corpora must contain the same document ids")
    counts = MatchCounts()
    for doc in key:
        counts.merge(match_relations(response_by_id[doc.id].relations, doc.relations))
    per_type, overall = fold_metrics(counts)
    lines = ["Relationship type\tMetric (%)\tValue"]
    for rtype in REPORT_ORDER:
        m = per_type[rtype]
        for i, which in enumerate(("p", "r", "f1")):
            label = REPORT_LABELS[rtype] if i == 0 else ""
            metric = {"p": "P", "r": "R", "f1": "F1"}[which]
            cell = "-" if m is None else f"{getattr(m, which) * 100:.2f}"
            lines.append(f"{label}\t{metric}\t{cell}")
    for i, which in enumerate(("p", "r", "f1")):
        label = "Overall" if i == 0 else ""
        metric = {"p": "P", "r": "R", "f1": "F1"}[which]
        lines.append(f"{label}\t{metric}\t{getattr(overall, which) * 100:.2f}")
    print("\n".join(lines))
    return 0


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise _UsageError(f"bad float list: {text!r}") from exc
    if not values:
        raise _UsageError("empty value list")
    return values


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise _UsageError(f"bad integer list: {text!r}") from exc
    if not values:
        raise _UsageError("empty value list")
    return values


def cmd_experiment(args: argparse.Namespace) -> int:
    cfg = _feature_config(args)
    corpus = load_corpus(Path(args.corpus))
    common = dict(k=args.folds, seed=args.seed, max_crossings=args.max_crossings)
    if args.kind == "algorithms":
        report = experiment_algorithms(corpus, feature_cfg=cfg, **common)
    elif args.kind == "tau":
        values = _parse_floats(args.values) if args.values else DEFAULT_TAU_VALUES
        report = experiment_tau_sweep(corpus, values=values, feature_cfg=cfg, **common)
    elif args.kind == "ablation":
        report = experiment_ablation(corpus, algorithm=args.algorithm, **common)
    else:
        sizes = _parse_ints(args.sizes) if args.sizes else None
        report = experiment_learning_curve(
            corpus, algorithm=args.algorithm, sizes=sizes, feature_cfg=cfg, **common
        )
    sys.stdout.write(report.to_table())
    if args.json is not None:
        Path(args.json).write_text(
            report.to_json(include_runtime=not args.exclude_runtime) + "\n",
            encoding="utf-8",
        )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="clinrel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic annotated corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--docs", type=int, default=40)
    p.add_argument("--min-sentences", type=int, default=5)
    p.add_argument("--max-sentences", type=int, default=9)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit a model on a full corpus")
    _add_common(p)
    _add_hyper(p)
    p.add_argument("--model", required=True, help="output model path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write predicted relations in corpus format")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a response corpus against a key corpus")
    p.add_argument("--corpus", required=True, help="key corpus with gold relations")
    p.add_argument("--response", required=True, help="corpus whose relations are predictions")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run an evaluation driver and print its table")
    p.add_argument("kind", choices=("algorithms", "tau", "ablation", "curve"))
    _add_common(p)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="svm",
                   help="learner for ablation/curve")
    p.add_argument("--folds", type=int, default=DEFAULT_FOLDS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--values", default=None, help="comma-separated tau values")
    p.add_argument("--sizes", default=None, help="comma-separated prefix sizes")
    p.add_argument("--json", default=None, help="also write a machine-readable report")
    p.add_argument("--exclude-runtime", action="store_true",
                   help="omit runtime fields from the JSON report")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    warnings = logging.StreamHandler(sys.stderr)
    warnings.setLevel(logging.WARNING)
    warnings.setFormatter(logging.Formatter("warning: %(message)s"))
    logger = logging.getLogger("clinrel")
    logger.addHandler(warnings)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (CorpusError, ModelFormatError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        logger.removeHandler(warnings)


if __name__ == "__main__":
    sys.exit(main())

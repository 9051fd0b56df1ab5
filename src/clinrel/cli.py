"""Command-line surface: generate, train, predict, evaluate, experiment.

Exit codes: 0 success, 1 usage error, 2 data error (malformed files or a
configuration the data cannot satisfy), 3 internal error.  Every failure
prints a single-line diagnostic on stderr, and so does every warning the
library logs (an SMO run stopped at its step cap, a class with no positive
training instances, the type-illegal predictions that ``predict`` drops).
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
    check_curve_sizes,
    experiment_ablation,
    experiment_algorithms,
    experiment_learning_curve,
    experiment_tau_sweep,
    render_rows,
    type_rows,
)
# build_index stays importable from here: perfbench/run.py spans it by module attribute
from .features import DEFAULT_WINDOW, FeatureConfig, build_index, extract, vectorize  # noqa: F401
from .harness import (
    DEFAULT_FOLDS,
    DEFAULT_SEED,
    MatchCounts,
    corpus_features,
    fold_metrics,
    match_relations,
)
from .learners import (
    LEARNERS,
    KernelSpec,
    ModelFormatError,
    TrainedModel,
    load_model,
    ova_classify,
    ova_train,
    params_for,
    save_model,
)
from .learners.params import KERNEL_KINDS
from .pairing import DEFAULT_MAX_CROSSINGS, labeled_instances
from .schema import (
    RELATION_TYPES,
    RelationType,
    compatible_relation_types,
)
from .synth import GeneratorConfig, generate_synthetic


log = logging.getLogger(__name__)


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
    """``--algorithm``, and per hyperparameter field a flag of its name, its default's type and its help."""
    parser.add_argument("--algorithm", required=True, choices=tuple(LEARNERS))
    for algorithm, learner in LEARNERS.items():
        for f in dataclasses.fields(learner.params):
            suffix = f" ({algorithm})"
            flag = f.name.replace("_", "-")
            if f.name == "kernel":
                parser.add_argument("--kernel", choices=KERNEL_KINDS, default=None, help="kernel kind" + suffix)
                parser.add_argument("--degree", type=int, default=None, help="polynomial kernel degree" + suffix)
            elif isinstance(f.default, bool):
                parser.add_argument(f"--no-{flag}", dest=f.name, action="store_false", default=None,
                                    help=f.metadata["help"] + suffix)
            else:
                parser.add_argument(f"--{flag}", type=type(f.default), default=None,
                                    help=f.metadata["help"] + suffix)


def _params_from_args(args: argparse.Namespace):
    """Validate flag/algorithm pairing and build the hyperparameter record.

    Each flag stores into the hyperparameter field of its name, except
    ``--kernel`` and ``--degree``, which together make the ``kernel`` field.
    """
    names = {f.name for learner in LEARNERS.values() for f in dataclasses.fields(learner.params)}
    overrides = {name: getattr(args, name) for name in names - {"kernel"} if getattr(args, name) is not None}
    kernel = {key: value for key, value in (("kind", args.kernel), ("degree", args.degree)) if value is not None}
    if kernel:
        overrides["kernel"] = kernel
    allowed = {f.name for f in dataclasses.fields(LEARNERS[args.algorithm].params)}
    stray = sorted(set(overrides) - allowed)
    if stray:
        raise _UsageError(
            f"flags {stray} do not apply to algorithm {args.algorithm!r}"
        )
    try:
        if kernel:
            overrides["kernel"] = KernelSpec(**kernel)
        return params_for(args.algorithm, **overrides)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _feature_config(args: argparse.Namespace) -> FeatureConfig:
    """Check ``--max-crossings`` and build the feature configuration from the common flags."""
    if args.max_crossings < 0:
        raise _UsageError("--max-crossings must be >= 0")
    try:
        if args.features is None:
            return FeatureConfig(window=args.window)
        names = [n.strip() for n in args.features.split(",") if n.strip()]
        if not names:
            raise ValueError("empty feature list")
        return FeatureConfig.of(*names, window=args.window)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


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
    features = corpus_features(load_corpus(Path(args.corpus)), cfg, args.max_crossings)
    x, keys = features.x, features.keys
    labels = [inst.label.value for found in features.instances.values() for inst in found]
    # only x, keys and labels outlive this point: freeing the documents and instances before
    # training lowers the memory peak that the SVM's kernel cache sets
    del features
    ova = ova_train(x, labels, args.algorithm, params, classes=[r.value for r in RELATION_TYPES])
    model = TrainedModel(ova=ova, index={key: i for i, key in enumerate(keys)}, feature_config=cfg,
                         max_crossings=args.max_crossings)
    save_model(model, Path(args.model))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(Path(args.model))
    corpus = load_corpus(Path(args.corpus))
    out_docs = []
    dropped = 0
    for doc in corpus:
        instances, _ = labeled_instances(doc, model.max_crossings)
        x = vectorize(extract(doc, [inst.pair for inst in instances], model.feature_config), model.index)
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
                dropped += 1
                continue
            relations.append(RelationInstance(rtype, inst.pair.arg1, inst.pair.arg2))
        out_docs.append(dataclasses.replace(doc, relations=tuple(relations)))
    if dropped:
        log.warning("dropped %d predicted relations of a type their arguments cannot carry", dropped)
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
    header = ["Relationship type", "Metric (%)", "Value"]
    sys.stdout.write(render_rows([header] + type_rows([fold_metrics(counts)])))
    return 0


def _parse_list(text: str, kind: type) -> tuple:
    """Comma-separated ``kind`` values (float or int); empty items are skipped."""
    try:
        values = tuple(kind(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise _UsageError(f"bad {'float' if kind is float else 'integer'} list: {text!r}") from exc
    if not values:
        raise _UsageError("empty value list")
    return values


def cmd_experiment(args: argparse.Namespace) -> int:
    cfg = _feature_config(args)
    if args.folds < 2:
        raise _UsageError("--folds must be >= 2")
    if args.kind == "tau":
        values = _parse_list(args.values, float) if args.values else DEFAULT_TAU_VALUES
        try:
            for v in values:
                params_for("svm", tau=v)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    sizes = None
    if args.kind == "curve" and args.sizes:
        sizes = _parse_list(args.sizes, int)
        # a size above the document count is a data error, found once the corpus loads
        try:
            check_curve_sizes(sizes)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    corpus = load_corpus(Path(args.corpus))
    common = dict(k=args.folds, seed=args.seed, max_crossings=args.max_crossings)
    if args.kind == "algorithms":
        report = experiment_algorithms(corpus, feature_cfg=cfg, **common)
    elif args.kind == "tau":
        report = experiment_tau_sweep(corpus, values=values, feature_cfg=cfg, **common)
    elif args.kind == "ablation":
        report = experiment_ablation(corpus, algorithm=args.algorithm, **common)
    else:
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
    p.add_argument("--algorithm", choices=tuple(LEARNERS), default="svm",
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

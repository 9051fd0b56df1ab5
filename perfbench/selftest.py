#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Each test runs the program on a small corpus, shows that the check passes
on the real output, then breaks the output in one place (one predicted
label, one SVM coefficient, one fold's feature count) and shows that the
check fails.  Exits 1 when any test does not behave so.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from tracing import Patcher  # noqa: E402

import clinrel.cli  # noqa: E402
import clinrel.corpus  # noqa: E402
import clinrel.harness  # noqa: E402
from clinrel.features import FeatureConfig  # noqa: E402
from clinrel.schema import REPORT_LABELS, RELATION_TYPES  # noqa: E402

TYPES = [t.value for t in RELATION_TYPES]
LABELS = {t.value: label for t, label in REPORT_LABELS.items()}


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = clinrel.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"clinrel {argv[0]} exited {code}")
    return out.getvalue()


def _flip(labels: list[str]) -> list[str]:
    """The same labels with the first non-null one replaced by null."""
    i = next(i for i, label in enumerate(labels) if label != checks.NULL)
    return labels[:i] + [checks.NULL] + labels[i + 1:]


def test_flipped_cv_label(work: Path) -> None:
    corpus_path = work / "cv.jsonl"
    _cli("generate", "--docs", 12, "--seed", 7, "--out", corpus_path)
    corpus = clinrel.corpus.load_corpus(corpus_path)
    gold = checks.gold_relations(checks.read_jsonl(corpus_path))
    folds = clinrel.harness.prepare_folds(corpus, FeatureConfig(), k=3, seed=1)
    classified = []

    def keep(original):
        def probe(model, x):
            classified.append(original(model, x))
            return classified[-1]
        return probe

    with Patcher() as p:
        p.wrap(clinrel.harness, "ova_classify", keep)
        report = clinrel.harness.run_cv(corpus, "nb", k=3, seed=1, folds=folds).to_obj(False)
    runs = [
        ([d.id for d in fold.test_docs],
         [(i.pair.doc_id, i.pair.arg1, i.pair.arg2) for i in fold.test_instances],
         labels)
        for fold, labels in zip(folds, classified)
    ]
    assert checks.compare_report("nb", *checks.cv_figures(runs, gold, TYPES), report) == []
    doc_ids, pairs, labels = runs[0]
    runs[0] = (doc_ids, pairs, _flip(labels))
    assert checks.compare_report("nb", *checks.cv_figures(runs, gold, TYPES), report)


def test_flipped_served_label_and_svm_dual(work: Path) -> None:
    train, heldout = work / "train.jsonl", work / "heldout.jsonl"
    model, predicted = work / "model.json", work / "predicted.jsonl"
    _cli("generate", "--docs", 16, "--seed", 3, "--out", train)
    _cli("generate", "--docs", 6, "--seed", 4, "--out", heldout)
    _cli("train", "--corpus", train, "--algorithm", "svm", "--model", model)
    _cli("predict", "--corpus", heldout, "--model", model, "--out", predicted)
    table = checks.parse_evaluate_table(_cli("evaluate", "--corpus", heldout, "--response", predicted))

    gold = checks.gold_relations(checks.read_jsonl(heldout))
    response = checks.gold_relations(checks.read_jsonl(predicted))

    def cells(resp):
        counts = checks.match_counts(resp, gold, list(gold))
        return checks.expected_evaluate_cells(*checks.figures(counts, TYPES), LABELS)

    assert cells(response) == table
    doc_id = next(d for d, rels in response.items() if rels)
    rtype, arg1, arg2 = sorted(response[doc_id])[0]
    other = next(t for t in TYPES if t != rtype)
    flipped = dict(response, **{doc_id: response[doc_id] - {(rtype, arg1, arg2)} | {(other, arg1, arg2)}})
    assert cells(flipped) != table

    record = json.loads(model.read_text(encoding="utf-8"))
    assert checks.check_svm_dual(record) == []
    binary = next(m for m in record["models"] if m["kind"] == "svm")
    binary["coef"][0] += 1e-3
    assert any("sum of coefficients" in p for p in checks.check_svm_dual(record))
    binary["coef"][0] -= 1e-3
    bound = record["hyperparameters"]["c"] * (1 + record["hyperparameters"]["tau"]) / 2
    binary["coef"][:2] = [binary["coef"][0] + 3 * bound, binary["coef"][1] - 3 * bound]
    assert any("C(1+tau)/2" in p for p in checks.check_svm_dual(record))


def test_shrinking_feature_count(work: Path) -> None:
    chain = [("a", ("tok6",), [10, 12]), ("b", ("tok6", "dir"), [11, 12]), ("c", ("allgen",), [3, 3])]
    assert checks.check_monotone_features(chain) == []
    chain[1] = ("b", ("tok6", "dir"), [11, 10])
    assert checks.check_monotone_features(chain)


def main() -> int:
    failed = 0
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for test in (test_flipped_cv_label, test_flipped_served_label_and_svm_dual, test_shrinking_feature_count):
            try:
                test(Path(tmp))
                print(f"PASS {test.__name__}")
            except AssertionError:
                failed += 1
                print(f"FAIL {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

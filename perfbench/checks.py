"""Correctness checks computed apart from the program.

Scoring here re-implements the rules the ``clinrel.harness`` docstring
states instead of calling the harness: exact match on (type, arg1, arg2)
within a document, duplicates collapsed, null never counted; per-type
figures macro-averaged over the folds in which the type occurs in gold or
response; the overall row micro-aggregated over types within a fold and
macro-averaged over all folds.  Every check returns a list of problems,
empty when it passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

NULL = "null"
TOLERANCE = 1e-9


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def gold_relations(records: list[dict]) -> dict[str, set[tuple[str, str, str]]]:
    """Document id -> set of (type, arg1, arg2), read straight from the JSONL."""
    return {
        rec["id"]: {(r["type"], r["arg1"], r["arg2"]) for r in rec["relations"] if r["type"] != NULL}
        for rec in records
    }


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def match_counts(response: dict[str, set], gold: dict[str, set], doc_ids) -> dict[str, list[int]]:
    """Relation type -> [tp, fp, fn] over the given documents."""
    counts: dict[str, list[int]] = {}
    for doc_id in doc_ids:
        said, truth = response.get(doc_id, set()), gold[doc_id]
        for which, rels in ((0, said & truth), (1, said - truth), (2, truth - said)):
            for rtype, _, _ in rels:
                counts.setdefault(rtype, [0, 0, 0])[which] += 1
    return counts


def figures(counts: dict[str, list[int]], types) -> tuple[dict, tuple[float, float, float]]:
    """Per-type P/R/F1 (None when absent from gold and response) and micro overall."""
    per_type = {t: prf(*counts[t]) if t in counts else None for t in types}
    totals = [sum(c[i] for c in counts.values()) for i in range(3)]
    return per_type, prf(*totals)


def _mean(rows):
    return tuple(sum(col) / len(rows) for col in zip(*rows))


def cv_figures(folds, gold, types) -> tuple[dict, tuple[float, float, float]]:
    """Macro-averaged figures over folds.

    ``folds``: (doc ids, [(doc_id, arg1, arg2)] per test instance, labels).
    """
    per_fold = []
    for doc_ids, pairs, labels in folds:
        response: dict[str, set] = {}
        for (doc_id, arg1, arg2), label in zip(pairs, labels):
            if label != NULL:
                response.setdefault(doc_id, set()).add((label, arg1, arg2))
        per_fold.append(figures(match_counts(response, gold, doc_ids), types))
    per_type = {}
    for t in types:
        present = [pt[t] for pt, _ in per_fold if pt[t] is not None]
        per_type[t] = _mean(present) if present else None
    return per_type, _mean([overall for _, overall in per_fold])


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=TOLERANCE)


def compare_report(where: str, per_type: dict, overall, reported: dict) -> list[str]:
    """Compare recomputed figures with one report object's per_type/overall."""
    problems = []
    expected = dict(per_type, overall=overall)
    got = dict(reported["per_type"], overall=reported["overall"])
    if set(expected) != set(got):
        return [f"{where}: report types {sorted(got)} != {sorted(expected)}"]
    for t, mine in expected.items():
        theirs = got[t]
        if mine is None or theirs is None:
            if mine is not theirs:
                problems.append(f"{where}: {t} is {theirs}, recomputed {mine}")
        elif not all(_close(m, theirs[k]) for m, k in zip(mine, ("p", "r", "f1"))):
            problems.append(f"{where}: {t} is {theirs}, recomputed {mine}")
    return problems


def check_monotone_features(columns) -> list[str]:
    """Each fold's n_features must not shrink from a feature list to a superset of it.

    ``columns``: (label, feature names, per-fold n_features) in report order.
    """
    problems = []
    for (label_a, sets_a, nf_a), (label_b, sets_b, nf_b) in zip(columns, columns[1:]):
        if not set(sets_a) <= set(sets_b):
            continue
        for fold, (a, b) in enumerate(zip(nf_a, nf_b)):
            if b < a:
                problems.append(f"fold {fold}: n_features {a} ({label_a}) -> {b} ({label_b})")
    return problems


def check_svm_dual(model_record: dict) -> list[str]:
    """Dual feasibility of every SVM binary model in a saved model record.

    SMO keeps sum(alpha_i y_i) = 0 and 0 <= alpha_i <= C; the uneven-margin
    transform scales the coefficients alpha_i y_i by (1 + tau) / 2.
    """
    hp = model_record["hyperparameters"]
    bound = hp["c"] * (1.0 + hp["tau"]) / 2.0
    problems = []
    svm_models = 0
    for cls, binary in zip(model_record["classes"], model_record["models"]):
        if binary["kind"] != "svm":
            continue
        svm_models += 1
        coef = binary["coef"]
        scale = max(1.0, sum(abs(c) for c in coef))
        if abs(math.fsum(coef)) > 1e-8 * scale:
            problems.append(f"{cls}: sum of coefficients is {math.fsum(coef)!r}")
        worst = max((abs(c) for c in coef), default=0.0)
        if worst > bound * (1.0 + 1e-12):
            problems.append(f"{cls}: |coef| reaches {worst!r} > C(1+tau)/2 = {bound!r}")
    if svm_models == 0:
        problems.append("model holds no SVM binary model")
    return problems


def parse_evaluate_table(text: str) -> dict[tuple[str, str], str]:
    """(row label, metric) -> cell of the table ``clinrel evaluate`` prints."""
    cells = {}
    label = ""
    for line in text.splitlines()[1:]:
        row = line.split("\t")
        if len(row) != 3:
            continue
        label = row[0] or label
        cells[(label, row[1])] = row[2]
    return cells


def expected_evaluate_cells(per_type: dict, overall, labels: dict[str, str]) -> dict[tuple[str, str], str]:
    """The table cells the recomputed figures imply (percent, two decimals)."""
    cells = {}
    rows = [(labels[t], m) for t, m in per_type.items()] + [("Overall", overall)]
    for label, m in rows:
        for name, value in zip(("P", "R", "F1"), m if m is not None else (None,) * 3):
            cells[(label, name)] = "-" if value is None else f"{value * 100:.2f}"
    return cells

"""
One-vs-all classification and document-level cross-validation
=============================================================

A full extraction model is one binary classifier per relation type; a
pair is assigned the best-scoring type, or null if nothing is positive.
Evaluation runs k-fold cross-validation split by document, scoring
predicted relations against each document's gold standard.
"""

from clinrel.harness import run_cv
from clinrel.learners import NULL_LABEL, ova_classify, ova_train
from clinrel.schema import REPORT_LABELS
from clinrel.synth import GeneratorConfig, generate_synthetic
from clinrel.features import FeatureConfig, build_index, extract, vectorize
from clinrel.pairing import labeled_instances

corpus = generate_synthetic(GeneratorConfig(n_docs=10))

# Fit a one-vs-all model directly on the whole corpus.
vectors, labels = [], []
for doc in corpus:
    instances = labeled_instances(doc, 1)[0]
    vectors.extend(extract(doc, [inst.pair for inst in instances], FeatureConfig()))
    labels.extend(inst.label.value for inst in instances)
print(f"corpus: {len(corpus)} documents, "
      f"{sum(label != NULL_LABEL for label in labels)} non-null instances")
index = build_index(vectors)
x = vectorize(vectors, index)
ova = ova_train(x, labels, "nb")
predicted = ova_classify(ova, x)
agree = sum(p == g for p, g in zip(predicted, labels))
print(f"training-set agreement: {agree}/{len(labels)}")

# The harness handles fold planning, per-fold feature indexing, scoring,
# and macro-averaging in one call.
report = run_cv(corpus, "nb", k=5)
print(f"\n5-fold naive bayes  (runtime {report.runtime_seconds:.2f}s)")
print(f"{'relation type':24s} {'P':>7s} {'R':>7s} {'F1':>7s}")
for rtype, label in REPORT_LABELS.items():
    m = report.per_type[rtype]
    if m is None:
        print(f"{label:24s} {'-':>7s} {'-':>7s} {'-':>7s}")
    else:
        print(f"{label:24s} {m.p:7.4f} {m.r:7.4f} {m.f1:7.4f}")
m = report.overall
print(f"{'Overall':24s} {m.p:7.4f} {m.r:7.4f} {m.f1:7.4f}")

# Reports serialize to JSON; with runtime excluded the bytes are stable
# across reruns, which is what the regression tests pin.
print(f"\nJSON report bytes: {len(report.to_json(include_runtime=False))}")

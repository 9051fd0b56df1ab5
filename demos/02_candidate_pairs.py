"""
Candidate pair generation and gold labeling
===========================================

Relation extraction is cast as classification of ordered mention pairs.
This script shows which pairs are generated for a document, how the
sentence-crossing limit prunes them, and how gold labels are inherited.
"""

from collections import Counter

from clinrel.pairing import generate_pairs, labeled_instances
from clinrel.synth import GeneratorConfig, generate_synthetic

corpus = generate_synthetic(GeneratorConfig(n_docs=5))
doc = corpus.documents[0]
print(doc.text)

# Only type-compatible ordered pairs are candidates: an (Investigation,
# Locus) pair can carry a relation, a (Locus, Locus) pair never can.
pairs = generate_pairs(doc, max_crossings=1)
print(f"\n{len(doc.entities)} mentions -> {len(pairs)} candidate pairs at max_crossings=1")
for pair in pairs[:8]:
    a1 = doc.entity(pair.arg1)
    a2 = doc.entity(pair.arg2)
    print(f"  ({pair.arg1}:{a1.etype.value}, {pair.arg2}:{a2.etype.value})")

# Widening the window only adds pairs; it never reorders existing ones.
for limit in (0, 1, 2):
    print(f"max_crossings={limit}: {len(generate_pairs(doc, limit))} pairs")

# Each candidate inherits the gold relation on its exact argument pair,
# or the null label.  The unreachable count reports gold relations no
# candidate could express under the current window.
instances, unreachable = labeled_instances(doc, max_crossings=1)
labels = Counter(inst.label.value for inst in instances)
print(f"\nlabel distribution for {doc.id}: {dict(labels)}")
print(f"unreachable gold relations: {unreachable}")

# Over a whole corpus the non-null instances account for every reachable
# gold relation exactly once.
total = Counter()
for d in corpus:
    instances, _ = labeled_instances(d, 1)
    total.update(inst.label.value for inst in instances if not inst.label.is_null)
print(f"\ncorpus-wide non-null instances: {dict(total)}")

"""
Feature sets for entity pairs
=============================

Every candidate pair becomes a sparse mapping from string keys to values.
Fourteen named feature sets (plus two aliases) control what goes in; this
script extracts a few of them for one pair and shows the sparse matrix
the learners consume.
"""

from clinrel.features import FeatureConfig, build_index, extract, vectorize
from clinrel.pairing import labeled_instances
from clinrel.synth import GeneratorConfig, generate_synthetic

corpus = generate_synthetic(GeneratorConfig(n_docs=4))
doc = corpus.documents[0]
instances, _ = labeled_instances(doc, 1)
inst = next(i for i in instances if not i.label.is_null)
print(doc.text)
print(f"pair: ({inst.pair.arg1}, {inst.pair.arg2})  gold label: {inst.label.value}")

# Feature sets are named; tokN/gentokN take their window from the name,
# and the aliases allgen/notok expand to fixed bundles.  A vector is a
# plain mapping from rendered key to value.  extract takes a document and
# any of its pairs, and returns one vector per pair, in order.
for sets in (("atype", "dir"), ("tok2",), ("str",), ("dep", "syndist")):
    cfg = FeatureConfig.of(*sets)
    (vector,) = extract(doc, [inst.pair], cfg)
    print(f"\n{'+'.join(sets)} -> {len(vector)} features")
    for key, value in sorted(vector.items())[:6]:
        print(f"  {key}\t{value}")

# The default configuration combines the surface sets at window 6.
(default_vector,) = extract(doc, [inst.pair], FeatureConfig())
print(f"\ndefault configuration: {len(default_vector)} features")

# Training builds a key index from the training vectors only; unseen test
# keys simply drop out.  vectorize returns a scipy CSR matrix.
vectors = []
for d in corpus:
    instances_d, _ = labeled_instances(d, 1)
    vectors.extend(extract(d, [i.pair for i in instances_d], FeatureConfig()))
index = build_index(vectors)
x = vectorize(vectors, index)
print(f"\ncorpus design matrix: {x.shape[0]} instances x {x.shape[1]} features, "
      f"{x.nnz} nonzeros")

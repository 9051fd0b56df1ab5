"""
The five learners on one toy problem
====================================

All learners share the same sparse-matrix interface: fit on rows plus
string labels, then classify new rows.  This script trains each on a tiny
two-class problem and shows the uneven-margin transform that biases the
SVM toward positive recall.
"""

import numpy as np
from scipy import sparse

from clinrel.learners import (
    KernelSpec,
    PaumParams,
    TreeParams,
    apply_uneven_margin,
    c45_build,
    c45_classify,
    knn_classify,
    knn_train,
    nb_classify,
    nb_train,
    paum_decision,
    paum_train,
    smo_train,
    svm_decision,
)

# Two clusters in the plane, one rare positive class and one common
# negative class; the toy mirror of an imbalanced extraction problem.
rng = np.random.default_rng(0)
pos = rng.normal(loc=(2.0, 2.0), scale=0.4, size=(5, 2))
neg = rng.normal(loc=(0.0, 0.0), scale=0.6, size=(20, 2))
x = sparse.csr_matrix(np.vstack([pos, neg]))
labels = ["rel"] * 5 + ["null"] * 20
queries = sparse.csr_matrix(np.array([[1.8, 1.9], [0.2, -0.1], [1.25, 1.15]]))

print("query points:", queries.todense().tolist())

nb = nb_train(x, labels)
print("naive bayes   ", nb_classify(nb, queries))

tree = c45_build(x, labels, TreeParams(min_cases=2))
print("decision tree ", c45_classify(tree, queries))

knn = knn_train(x, labels, k=2)
print("knn k=2       ", knn_classify(knn, queries))

# The margin perceptron and the SVM work on numeric +1/-1 labels.
y = np.where(np.array(labels) == "rel", 1.0, -1.0)
paum = paum_train(x, y, PaumParams(tau_pos=20.0, tau_neg=5.0))
print("paum          ", ["rel" if s > 0 else "null" for s in paum_decision(paum, queries)])

solution = smo_train(x, y, c=0.7, kernel=KernelSpec("polynomial", 2))
standard = apply_uneven_margin(solution, 1.0)  # tau = 1 leaves the decision unchanged
print("svm standard  ", ["rel" if s > 0 else "null" for s in svm_decision(standard, queries)])

# The uneven-margin transform rescales and shifts every decision value.
# Decisions near the boundary flip toward the positive class as the
# margin parameter shrinks; confident decisions keep their sign.
print("\nuneven-margin sweep on the borderline query", queries.todense().tolist()[2])
for tau in (1.0, 0.8, 0.6, 0.4, 0.2):
    model = apply_uneven_margin(solution, tau)
    value = svm_decision(model, queries)[2]
    print(f"  tau={tau:3.1f}: decision {value:+.4f} -> {'rel' if value > 0 else 'null'}")

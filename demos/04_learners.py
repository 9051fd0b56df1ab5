"""
The five learners on one toy problem
====================================

Every learner fits a binary problem, one class against the rest, and gives
each new row a signed score: positive means the row is of the class.
``ova_train`` fits one such scorer per class and ``ova_classify`` picks the
best positive class, or the null label.  This script runs each learner
through that path on a tiny two-class problem, prints the class scores
behind each label, and shows the uneven-margin transform that biases the
SVM toward positive recall.
"""

import numpy as np
from scipy import sparse

from clinrel.learners import (
    KernelSpec,
    apply_uneven_margin,
    ova_classify,
    ova_scores,
    ova_train,
    params_for,
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

# "null" is the null label, so each model has one class model, for "rel".
# Its scores: NB a log-odds that sees only which values are > 0, C4.5 a
# signed leaf confidence, kNN a signed vote share, PAUM and the SVM a signed
# distance from their hyperplane.
hyper = {
    "nb": params_for("nb"),
    "c45": params_for("c45", min_cases=2),
    "knn": params_for("knn", k=2),
    "paum": params_for("paum", tau_pos=20.0, tau_neg=5.0),
    "svm": params_for("svm", c=0.7, kernel=KernelSpec("polynomial", 2), tau=1.0),
}
for algorithm, params in hyper.items():
    model = ova_train(x, labels, algorithm, params)
    scores = ova_scores(model, queries)[:, 0]
    print(f"{algorithm:5s} {ova_classify(model, queries)}  rel scores {np.round(scores, 4).tolist()}")

# The SVM's binary scorer on numeric +1/-1 labels.  The uneven-margin
# transform rescales and shifts every decision value: decisions near the
# boundary flip toward the positive class as the margin parameter shrinks;
# confident decisions keep their sign.
y = np.where(np.array(labels) == "rel", 1.0, -1.0)
solution = smo_train(x, y, c=0.7, kernel=KernelSpec("polynomial", 2))
print("\nuneven-margin sweep on the borderline query", queries.todense().tolist()[2])
for tau in (1.0, 0.8, 0.6, 0.4, 0.2):
    model = apply_uneven_margin(solution, tau)
    value = svm_decision(model, queries)[2]
    print(f"  tau={tau:3.1f}: decision {value:+.4f} -> {'rel' if value > 0 else 'null'}")

"""Five from-scratch classifiers over sparse vectors, plus the one-vs-all wrapper.

Binary problems use integer labels +1/-1; the multi-class wrapper trains one
binary scorer per relation type and predicts the best positively-scoring
class, or null when no class scores positive.
"""

from .params import (
    KnnParams,
    NbParams,
    PaumParams,
    SvmParams,
    TreeParams,
)
from .naive_bayes import NaiveBayesModel, nb_classify, nb_scores, nb_train
from .knn import KnnModel, knn_classify, knn_score, knn_train
from .decision_tree import DecisionTree, Leaf, Split, c45_build, c45_classify, c45_gain_ratio, c45_score
from .paum import PaumModel, paum_decision, paum_train
from .svm import (
    KernelCache,
    KernelSpec,
    SmoSolution,
    SvmModel,
    apply_uneven_margin,
    kernel_matrix,
    smo_train,
    svm_decision,
)
from .multiclass import ALGORITHMS, LEARNERS, NULL_LABEL, OvaModel, ova_classify, ova_scores, ova_train, params_for
from .serialize import (
    ModelFormatError,
    TrainedModel,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)

__all__ = [
    "ALGORITHMS",
    "DecisionTree",
    "ModelFormatError",
    "NULL_LABEL",
    "TrainedModel",
    "KernelCache",
    "KernelSpec",
    "KnnModel",
    "KnnParams",
    "LEARNERS",
    "Leaf",
    "NaiveBayesModel",
    "NbParams",
    "OvaModel",
    "PaumModel",
    "PaumParams",
    "SmoSolution",
    "Split",
    "SvmModel",
    "SvmParams",
    "TreeParams",
    "apply_uneven_margin",
    "c45_build",
    "c45_classify",
    "c45_gain_ratio",
    "c45_score",
    "kernel_matrix",
    "knn_classify",
    "knn_score",
    "knn_train",
    "load_model",
    "model_from_json",
    "model_to_json",
    "nb_classify",
    "nb_scores",
    "nb_train",
    "ova_classify",
    "ova_scores",
    "ova_train",
    "params_for",
    "paum_decision",
    "paum_train",
    "save_model",
    "smo_train",
    "svm_decision",
]

"""Experiment reports pinned byte for byte.

Each digest is the sha256 of ``to_json(include_runtime=False)``: every
per-type and overall P/R/F1 at full float precision, for every column.  The
acceptance criteria check scores within tolerances (and the SVM scores
F1 = 100.00 on the default corpus), so a drift in features, folds or
learners can pass them; it cannot pass these digests.  The values do not
depend on ``PYTHONHASHSEED`` or on the number of BLAS threads.
"""

import hashlib

import pytest

from clinrel.experiments import (
    experiment_ablation,
    experiment_algorithms,
    experiment_learning_curve,
    experiment_tau_sweep,
)
from clinrel.synth import GeneratorConfig, generate_synthetic

ALGORITHMS_SHA256 = "e3624565089cbd6ef8652dd5c6a837786c6c2836bf2a31c937c503165f465620"
ABLATION_NB_SHA256 = "4476f8ae4f03afeeddce840e7fa8fe53ed417ecd58edee50d654c9ae2219b7ba"
TAU_SWEEP_12_SHA256 = "8b16faa8fb9ead2b9b25572b6c9b1f0aca81316df1856249792fce953c222c2a"
LEARNING_CURVE_12_NB_SHA256 = "5c856e578d053fe41f1500528648f5cb057ef91d8a5155211bcd19406c2c0236"


def _sha256(report) -> str:
    return hashlib.sha256(report.to_json(include_runtime=False).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def corpus12():
    return generate_synthetic(GeneratorConfig(n_docs=12))


def test_algorithms_report_pinned(corpus40):
    assert _sha256(experiment_algorithms(corpus40)) == ALGORITHMS_SHA256


def test_ablation_nb_report_pinned(corpus40):
    assert _sha256(experiment_ablation(corpus40, algorithm="nb", seed=1)) == ABLATION_NB_SHA256


def test_tau_sweep_report_pinned(corpus12):
    assert _sha256(experiment_tau_sweep(corpus12, k=3)) == TAU_SWEEP_12_SHA256


def test_learning_curve_report_pinned(corpus12):
    assert _sha256(experiment_learning_curve(corpus12, algorithm="nb", k=3)) == LEARNING_CURVE_12_NB_SHA256

"""Experiment reports pinned byte for byte.

Each JSON digest is the sha256 of ``to_json(include_runtime=False)``: every
per-type and overall P/R/F1 at full float precision, for every column.  The
acceptance criteria check scores within tolerances (and the SVM scores
F1 = 100.00 on the default corpus), so a drift in features, folds or
learners can pass them; it cannot pass these digests.  Each table digest is
the sha256 of ``to_table()``, less the algorithms report's wall-clock
``Run Time in seconds`` row, so the renderers are pinned as well.  The
values do not depend on ``PYTHONHASHSEED`` or on the number of BLAS threads.
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

ALGORITHMS_TABLE_SHA256 = "59e18e4229f0ffb24435c1e02161df2905b10d5b2130ddeb6edfde2eceecf251"
ABLATION_NB_TABLE_SHA256 = "24e078926b60b2366e327449096b109708b9888fae3f50a3eb79e37e7e97dbbb"
TAU_SWEEP_12_TABLE_SHA256 = "f57656d56cb70835c53443145f7b6fb6dff6187b5b73b0ba0d87439d01c88a4b"
LEARNING_CURVE_12_NB_TABLE_SHA256 = "f355df22a9dcc45ab5d54c3d4a7910b5deb4cc6cf2fb729ddfe247c2e3a47c52"

RUNTIME_ROW = "Run Time in seconds\t"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_sha256(report) -> str:
    return _sha256(report.to_json(include_runtime=False))


def _table_sha256(report) -> str:
    lines = report.to_table().splitlines(keepends=True)
    return _sha256("".join(line for line in lines if not line.startswith(RUNTIME_ROW)))


@pytest.fixture(scope="module")
def corpus12():
    return generate_synthetic(GeneratorConfig(n_docs=12))


@pytest.fixture(scope="module")
def algorithms_report(corpus40):
    return experiment_algorithms(corpus40)


@pytest.fixture(scope="module")
def ablation_nb_report(corpus40):
    return experiment_ablation(corpus40, algorithm="nb", seed=1)


@pytest.fixture(scope="module")
def tau_sweep_report(corpus12):
    return experiment_tau_sweep(corpus12, k=3)


@pytest.fixture(scope="module")
def learning_curve_report(corpus12):
    return experiment_learning_curve(corpus12, algorithm="nb", k=3)


def test_algorithms_report_pinned(algorithms_report):
    assert _json_sha256(algorithms_report) == ALGORITHMS_SHA256


def test_algorithms_table_pinned(algorithms_report):
    assert RUNTIME_ROW in algorithms_report.to_table()
    assert _table_sha256(algorithms_report) == ALGORITHMS_TABLE_SHA256


def test_ablation_nb_report_pinned(ablation_nb_report):
    assert _json_sha256(ablation_nb_report) == ABLATION_NB_SHA256


def test_ablation_nb_table_pinned(ablation_nb_report):
    assert _table_sha256(ablation_nb_report) == ABLATION_NB_TABLE_SHA256


def test_tau_sweep_report_pinned(tau_sweep_report):
    assert _json_sha256(tau_sweep_report) == TAU_SWEEP_12_SHA256


def test_tau_sweep_table_pinned(tau_sweep_report):
    assert _table_sha256(tau_sweep_report) == TAU_SWEEP_12_TABLE_SHA256


def test_learning_curve_report_pinned(learning_curve_report):
    assert _json_sha256(learning_curve_report) == LEARNING_CURVE_12_NB_SHA256


def test_learning_curve_table_pinned(learning_curve_report):
    assert _table_sha256(learning_curve_report) == LEARNING_CURVE_12_NB_TABLE_SHA256

"""SVM models and scores pinned byte for byte.

The SVM scores F1 = 100.00 on every type of the default corpus, so an F1
gate cannot see a drift in its kernel arithmetic; these digests can.  The
full-Gram and the least-recently-used kernel-row paths must give the same
model file.
"""

import hashlib

import pytest
from _oracles import heldout_ova_scores, heldout_prediction

from clinrel.cli import main
from clinrel.corpus import save_corpus
from clinrel.harness import run_cv
from clinrel.learners import KernelCache, multiclass, svm

# recorded with the sparse x sparse kernel products these digests guard
MODEL_SHA256 = "64697663bbc3e3ee3250c6d5b91e6645ee3d953c17cd3f36a4b9c5dff0438bd3"
HELDOUT_SCORES_SHA256 = "d71f699139c4357b881013986a954ca257aa7cd1ac79e89ff4235f02108bf52d"
# recorded with the per-class scorer, one dense query block per class model
PREDICTION_SHA256 = "590e8d6dcb2ea6a2b56c69ac6a4d5cf8ae4ddcc370cb4602945edfa43bfac06e"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _train(corpus_path, model_path, cache_mb=None):
    """Train SVM through the CLI; the caches it built, with their row misses."""
    caches = []

    class Recorded(KernelCache):
        def __init__(self, x, spec, budget):
            super().__init__(x, spec, budget if cache_mb is None else cache_mb)
            self.misses = 0
            caches.append(self)

        def row(self, i):
            if self._rows is not None and i not in self._rows:
                self.misses += 1
            return super().row(i)

    # the budget is swapped below the CLI, so the saved hyperparameters match
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(multiclass, "KernelCache", Recorded)
        rc = main(["train", "--corpus", str(corpus_path), "--algorithm", "svm", "--model", str(model_path)])
    assert rc == 0
    return caches


@pytest.fixture(scope="module")
def corpus_path(corpus40, tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "corpus.jsonl"
    save_corpus(corpus40, path)
    return path


@pytest.fixture(scope="module")
def model_path(corpus_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "svm.json"
    (cache,) = _train(corpus_path, path)
    assert cache._gram is not None
    return path


def test_full_gram_model_is_pinned(model_path):
    assert _sha256(model_path.read_bytes()) == MODEL_SHA256


def test_lru_model_with_evictions_matches_full_gram(corpus_path, tmp_path):
    path = tmp_path / "svm-lru.json"
    (cache,) = _train(corpus_path, path, cache_mb=2.0)
    assert cache._gram is None
    assert cache._capacity < cache.m
    assert cache.misses > cache.m  # some row was computed twice: it had been evicted
    assert _sha256(path.read_bytes()) == MODEL_SHA256


def test_heldout_scores_are_pinned(model_path, tmp_path):
    scores = heldout_ova_scores(model_path, tmp_path)
    assert scores.shape == (488, 7)
    assert _sha256(scores.tobytes()) == HELDOUT_SCORES_SHA256


def test_cv_solver_work_is_pinned(corpus40, monkeypatch):
    """The 70 SMO problems of the default 10-fold plan make the same calls and steps.

    Recorded with the numpy-scalar solver; the float-scalar loop and the
    shared Gram matrix must keep every step.
    """
    totals = {"examine": 0, "take_step": 0, "steps": 0, "problems": 0}
    examine, take_step, solve = svm._Smo.examine, svm._Smo.take_step, svm._Smo.solve

    def counted_examine(solver, i2):
        totals["examine"] += 1
        return examine(solver, i2)

    def counted_take_step(solver, i1, i2):
        totals["take_step"] += 1
        return take_step(solver, i1, i2)

    def counted_solve(solver):
        converged = solve(solver)
        totals["steps"] += solver.steps
        totals["problems"] += 1
        return converged

    monkeypatch.setattr(svm._Smo, "examine", counted_examine)
    monkeypatch.setattr(svm._Smo, "take_step", counted_take_step)
    monkeypatch.setattr(svm._Smo, "solve", counted_solve)
    run_cv(corpus40, "svm")
    assert totals == {"examine": 658_635, "take_step": 151_883, "steps": 117_815, "problems": 70}


def test_prediction_is_pinned(model_path, tmp_path):
    """``clinrel predict`` scores one document at a time, a path the held-out scores skip."""
    assert _sha256(heldout_prediction(model_path, tmp_path)) == PREDICTION_SHA256

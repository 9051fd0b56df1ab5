"""SVM models and scores pinned byte for byte.

The SVM scores F1 = 100.00 on every type of the default corpus, so an F1
gate cannot see a drift in its kernel arithmetic; these digests can.  The
full-Gram and the least-recently-used kernel-row paths must give the same
model file.
"""

import hashlib

import pytest
from _oracles import full_scan_smo, heldout_ova_scores, heldout_prediction, kkt_problems

from clinrel.cli import main
from clinrel.corpus import save_corpus
from clinrel.harness import run_cv
from clinrel.learners import KernelCache, multiclass, smo_train, svm

# recorded with the second-order working-set solver
MODEL_SHA256 = "1c1d173e4b34e9cb2e7c6d91a74718a5bf235427b2dcb7914b5aadc53e9d5149"
HELDOUT_SCORES_SHA256 = "2ad0a8cd58a4454e46701a2665dfa899e868784b57952330ec7d9a856776ce6c"
# recorded with the per-class scorer, one dense query block per class model
PREDICTION_SHA256 = "590e8d6dcb2ea6a2b56c69ac6a4d5cf8ae4ddcc370cb4602945edfa43bfac06e"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _train(corpus_path, model_path, cache_mb=None):
    """Train SVM through the CLI; the caches it built, with the rows each one computed."""
    caches = []

    class Recorded(KernelCache):
        def __init__(self, x, spec, budget, *, gram=None):
            super().__init__(x, spec, budget if cache_mb is None else cache_mb, gram=gram)
            self.misses = []
            caches.append(self)

        def row(self, i):
            if self._rows is not None and i not in self._rows:
                self.misses.append(i)
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
    assert len(set(cache.misses)) < len(cache.misses)  # some row was computed twice: it had been evicted
    assert _sha256(path.read_bytes()) == MODEL_SHA256


def test_heldout_scores_are_pinned(model_path, tmp_path):
    scores = heldout_ova_scores(model_path, tmp_path)
    assert scores.shape == (488, 7)
    assert _sha256(scores.tobytes()) == HELDOUT_SCORES_SHA256


@pytest.fixture(scope="module")
def cv_solutions(corpus40):
    """Every SMO solution of the default 10-fold plan, with its C, tol and final errors."""
    solutions = []
    errors = []

    class Recorded(svm._Smo):
        def solve(self):
            converged = super().solve()
            errors.append(self.errors)
            return converged

    def recorded(x, y, c, kernel, tol, cache):
        solution = smo_train(x, y, c, kernel, tol, cache)
        solutions.append((solution, c, tol))
        return solution

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(multiclass, "smo_train", recorded)
        monkeypatch.setattr(svm, "_Smo", Recorded)
        run_cv(corpus40, "svm")
    return [(*solved, e) for solved, e in zip(solutions, errors, strict=True)]


def test_cv_solver_work_is_pinned(cv_solutions):
    """The 70 SMO problems of the default 10-fold plan take the same steps on the shared Gram matrix."""
    assert all(solution.converged for solution, _, _, _ in cv_solutions)
    assert (sum(solution.steps for solution, _, _, _ in cv_solutions), len(cv_solutions)) == (24_082, 70)


def test_every_cv_problem_meets_kkt(cv_solutions):
    for solution, c, tol, _ in cv_solutions:
        assert kkt_problems(solution, c, tol) == []


def test_every_cv_problem_equals_the_full_scan_reference(cv_solutions):
    for solution, c, tol, errors in cv_solutions:
        ref, converged = full_scan_smo(solution.x, solution.y, c, solution.kernel, tol)
        assert converged
        assert solution.alpha.tobytes() == ref.alpha.tobytes()
        assert errors.tobytes() == ref.errors.tobytes()
        assert repr(solution.b) == repr(ref.final_intercept())
        assert solution.steps == ref.steps


def test_prediction_is_pinned(model_path, tmp_path):
    """``clinrel predict`` scores one document at a time, a path the held-out scores skip."""
    assert _sha256(heldout_prediction(model_path, tmp_path)) == PREDICTION_SHA256

"""kNN models and one-vs-all scores pinned byte for byte.

The pins guard the vote arithmetic (neighbour sets, sorted weight sums and
shares) against any drift a tolerance or an F1 gate would miss.
"""

import hashlib

import pytest
from _oracles import heldout_ova_scores, heldout_prediction

from clinrel.cli import main
from clinrel.corpus import save_corpus

# recorded with the per-class scorer, one distance pass per class model
MODEL_SHA256 = "d308942357326209ef06389e022a1b7a0b45ca99ab5ce5b7c0dc76156e6be745"
HELDOUT_SCORES_SHA256 = "565f9772aae64fa899fbdb7ee6ca26ed50d232333e3567a7905176f3f6018f5c"
# recorded with the training-side squared norms and transpose rebuilt on every call
PREDICTION_SHA256 = "a7b6d349e1b2bd2db7540d9ec3000f35df12ac4fde1f8236c531c5e65dd45afd"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def model_path(corpus40, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("knn-golden")
    corpus_path = tmp / "corpus.jsonl"
    save_corpus(corpus40, corpus_path)
    path = tmp / "knn.json"
    rc = main(["train", "--corpus", str(corpus_path), "--algorithm", "knn", "--model", str(path)])
    assert rc == 0
    return path


def test_model_is_pinned(model_path):
    assert _sha256(model_path.read_bytes()) == MODEL_SHA256


def test_heldout_scores_are_pinned(model_path, tmp_path):
    scores = heldout_ova_scores(model_path, tmp_path)
    assert scores.shape == (488, 7)
    assert _sha256(scores.tobytes()) == HELDOUT_SCORES_SHA256


def test_prediction_is_pinned(model_path, tmp_path):
    """``clinrel predict`` scores one document at a time, a path the held-out scores skip."""
    assert _sha256(heldout_prediction(model_path, tmp_path)) == PREDICTION_SHA256

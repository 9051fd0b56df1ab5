"""kNN models and one-vs-all scores pinned byte for byte.

The pins guard the vote arithmetic (neighbour sets, sorted weight sums and
shares) against any drift a tolerance or an F1 gate would miss.
"""

import hashlib

import pytest
from _oracles import heldout_ova_scores

from clinrel.cli import main
from clinrel.corpus import save_corpus

# recorded with the per-class scorer, one distance pass per class model
MODEL_SHA256 = "d308942357326209ef06389e022a1b7a0b45ca99ab5ce5b7c0dc76156e6be745"
HELDOUT_SCORES_SHA256 = "565f9772aae64fa899fbdb7ee6ca26ed50d232333e3567a7905176f3f6018f5c"


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

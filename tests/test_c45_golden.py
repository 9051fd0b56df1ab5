"""C4.5 models and one-vs-all scores pinned byte for byte.

The algorithms report shows only P/R/F1 for C4.5, so a drift in the split
search (candidate order, the mean-gain filter, tie breaks) or in the leaf
confidences could hide behind an unchanged table; these digests cannot.
"""

import hashlib

import pytest
from _oracles import heldout_ova_scores

from clinrel.cli import main
from clinrel.corpus import save_corpus

# recorded with the list-based split search and the per-row tree walk
MODEL_SHA256 = "f9317d78d89741844538b573010d2c97a86d5f6383ba29ad7029ae98abb56138"
HELDOUT_SCORES_SHA256 = "661bcbdcb288ebb905060062db5c01d5bf88a88f285b12a208e9590c42ea28df"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def model_path(corpus40, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("c45-golden")
    corpus_path = tmp / "corpus.jsonl"
    save_corpus(corpus40, corpus_path)
    path = tmp / "c45.json"
    rc = main(["train", "--corpus", str(corpus_path), "--algorithm", "c45", "--model", str(path)])
    assert rc == 0
    return path


def test_model_is_pinned(model_path):
    assert _sha256(model_path.read_bytes()) == MODEL_SHA256


def test_heldout_scores_are_pinned(model_path, tmp_path):
    scores = heldout_ova_scores(model_path, tmp_path)
    assert scores.shape == (488, 7)
    assert _sha256(scores.tobytes()) == HELDOUT_SCORES_SHA256

"""Naive Bayes and PAUM models and one-vs-all scores pinned byte for byte.

The algorithms report shows only P/R/F1, so a drift in the log-probability
tables, the perceptron updates or the stored "+1"/"-1" labels could hide
behind an unchanged table; these digests cannot.
"""

import hashlib

import pytest
from _oracles import heldout_ova_scores

from clinrel.cli import main
from clinrel.corpus import save_corpus

# recorded with the per-algorithm if-chains in the one-vs-all wrapper
MODEL_SHA256 = {
    "nb": "b62db187315d8dd72fa81f3d2a4b520909b5ad99a97c519eac3d7a02da71ebbe",
    "paum": "c0b4905e9ff9b1b3c7b082b37e42146f298f35890f0e83d3a0bbcd6ef72c6dd1",
}
HELDOUT_SCORES_SHA256 = {
    "nb": "708e48d1e27f1b664c5d77d65b5675776a896c45b62d6efd2bf752afad819ebd",
    "paum": "88c2176b556ba55e356be8386f73f86952b5b5d3f5c6ae045743856a6cb5ec63",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module", params=sorted(MODEL_SHA256))
def trained(request, corpus40, tmp_path_factory):
    algorithm = request.param
    tmp = tmp_path_factory.mktemp(f"{algorithm}-golden")
    corpus_path = tmp / "corpus.jsonl"
    save_corpus(corpus40, corpus_path)
    path = tmp / f"{algorithm}.json"
    rc = main(["train", "--corpus", str(corpus_path), "--algorithm", algorithm, "--model", str(path)])
    assert rc == 0
    return algorithm, path


def test_model_is_pinned(trained):
    algorithm, path = trained
    assert _sha256(path.read_bytes()) == MODEL_SHA256[algorithm]


def test_heldout_scores_are_pinned(trained, tmp_path):
    algorithm, path = trained
    scores = heldout_ova_scores(path, tmp_path)
    assert scores.shape == (488, 7)
    assert _sha256(scores.tobytes()) == HELDOUT_SCORES_SHA256[algorithm]

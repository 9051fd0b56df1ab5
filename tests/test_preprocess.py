from hypothesis import given
from hypothesis import strategies as st

from clinrel.corpus import Sentence
from clinrel.preprocess import (
    annotate,
    generalize_pos,
    lemmatize,
    pos_tag,
    split_sentences,
    tokenize,
)


def surfaces(text):
    return [t.surface for t in tokenize(text)]


def test_tokenize_plain_words():
    assert surfaces("back pain") == ["back", "pain"]


def test_tokenize_hyphen_compound():
    assert surfaces("superior-vena-caval obstruction") == [
        "superior-vena-caval",
        "obstruction",
    ]


def test_tokenize_empty():
    assert tokenize("") == ()


def test_tokenize_symbols_are_single_tokens():
    assert surfaces("normal. (CT)") == ["normal", ".", "(", "CT", ")"]


def test_tokenize_spans_reconstruct_text():
    text = "A chest X-ray was normal .  No sign, none."
    for span in tokenize(text):
        assert text[span.start : span.end] == span.surface


def test_tokenize_spans_sorted_non_overlapping():
    spans = tokenize("one two three . four")
    for a, b in zip(spans, spans[1:]):
        assert a.end <= b.start


def test_split_two_sentences():
    tokens = tokenize("A chest X-ray was normal . No sign of cancer .")
    sentences = split_sentences(tokens)
    assert len(sentences) == 2
    assert sentences[0].first_token == 0
    assert sentences[1].last_token == len(tokens) - 1


def test_split_no_terminal_punctuation():
    tokens = tokenize("no terminal punctuation here")
    assert split_sentences(tokens) == (Sentence(0, 3),)


def test_split_empty():
    assert split_sentences(()) == ()


def test_split_initial_does_not_break():
    # "J . Smith" style initials keep the sentence together
    tokens = tokenize("Seen by J . Smith today .")
    assert len(split_sentences(tokens)) == 1


def test_split_abbreviation_does_not_break():
    tokens = tokenize("Referred by Dr . Jones .")
    assert len(split_sentences(tokens)) == 1


def test_split_partitions_tokens():
    tokens = tokenize("One . Two ! Three ? Four")
    sentences = split_sentences(tokens)
    covered = []
    for s in sentences:
        covered.extend(range(s.first_token, s.last_token + 1))
    assert covered == list(range(len(tokens)))


def tag_of(word):
    return pos_tag(tokenize(word))[0]


def test_pos_lexicon_hit():
    assert tag_of("shows") == "VBZ"
    assert tag_of("The") == "DT"


def test_pos_default_noun():
    assert tag_of("cancer") == "NN"


def test_pos_digit_rule():
    assert tag_of("40") == "CD"
    assert tag_of("3.5") == "CD"


def test_pos_suffix_rules():
    assert tag_of("presenting") == "VBG"
    assert tag_of("resected") == "VBD"
    assert tag_of("slowly") == "RB"
    assert tag_of("lesions") == "NNS"


def test_pos_punctuation():
    assert tag_of(".") == "."
    assert tag_of(",") == ","


def test_lemmatize_examples():
    assert lemmatize("mastectomies") == "mastectomy"
    assert lemmatize("pain") == "pain"
    assert lemmatize("shows") == "show"
    assert lemmatize("scanning") == "scan"
    assert lemmatize("Confirmed") == "confirm"


def test_lemmatize_preserves_short_and_ss_words():
    assert lemmatize("was") == "was"
    assert lemmatize("mass") == "mass"
    assert lemmatize("is") == "is"


@given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), max_size=12))
def test_lemmatize_idempotent(word):
    once = lemmatize(word)
    assert lemmatize(once) == once


def test_generalize_pos():
    assert generalize_pos("VBZ") == "VB"
    assert generalize_pos("NN") == "NN"
    assert generalize_pos(".") == "."


def test_generalized_is_prefix():
    for tag in ("VBZ", "NNS", "JJ", ".", "", "CD"):
        g = generalize_pos(tag)
        assert len(g) <= 2
        assert tag.startswith(g)


def test_annotate_produces_consistent_tokens():
    tokens, sentences = annotate("A chest X-ray was normal . No sign of cancer .")
    assert [t.surface for t in tokens][:3] == ["A", "chest", "X-ray"]
    assert len(sentences) == 2
    assert all(t.root == lemmatize(t.surface) for t in tokens)
    assert tokens[3].pos == "VBD"


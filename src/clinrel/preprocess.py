"""Deterministic text preprocessing: tokens, sentences, POS tags, roots.

Used when a corpus lacks gold token annotations; gold annotations, when
present, always take precedence.  Everything here is rule-based so that
identical input text yields identical annotations on every platform.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus import Sentence, Token

# Alphanumeric runs, optionally hyphen-joined (clinical compounds such as
# "superior-vena-caval"); any other non-space character is its own token.
_TOKEN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*|\S")

_SENTENCE_FINAL = frozenset({".", "!", "?"})

#: Abbreviations whose trailing period does not end a sentence.
DEFAULT_ABBREVIATIONS = frozenset(
    {"dr", "mr", "mrs", "ms", "prof", "vs", "etc", "eg", "ie", "approx", "no"}
)

#: Minimal full-tag lexicon (lowercased lookup).  Single-character symbols and
#: digit tokens are handled by rules, not the lexicon.
DEFAULT_LEXICON: dict[str, str] = {
    "a": "DT",
    "an": "DT",
    "the": "DT",
    "this": "DT",
    "that": "DT",
    "no": "DT",
    "and": "CC",
    "or": "CC",
    "but": "CC",
    "of": "IN",
    "in": "IN",
    "on": "IN",
    "at": "IN",
    "to": "TO",
    "for": "IN",
    "with": "IN",
    "within": "IN",
    "from": "IN",
    "near": "IN",
    "over": "IN",
    "under": "IN",
    "around": "IN",
    "after": "IN",
    "before": "IN",
    "was": "VBD",
    "were": "VBD",
    "is": "VBZ",
    "are": "VBP",
    "be": "VB",
    "been": "VBN",
    "has": "VBZ",
    "have": "VBP",
    "had": "VBD",
    "shows": "VBZ",
    "show": "VB",
    "showed": "VBD",
    "shown": "VBN",
    "reveals": "VBZ",
    "revealed": "VBD",
    "demonstrates": "VBZ",
    "demonstrated": "VBD",
    "confirms": "VBZ",
    "confirmed": "VBD",
    "suggests": "VBZ",
    "suggested": "VBD",
    "appears": "VBZ",
    "appeared": "VBD",
    "seen": "VBN",
    "underwent": "VBD",
    "remains": "VBZ",
    "remained": "VBD",
    "which": "WDT",
    "who": "WP",
    "there": "EX",
    "not": "RB",
    "very": "RB",
    "also": "RB",
    "left": "JJ",
    "right": "JJ",
    "bilateral": "JJ",
    "upper": "JJ",
    "lower": "JJ",
    "normal": "JJ",
    "abnormal": "JJ",
    "clear": "JJ",
    "unremarkable": "JJ",
    "negative": "JJ",
    "positive": "JJ",
    "he": "PRP",
    "she": "PRP",
    "it": "PRP",
    "they": "PRP",
    "patient": "NN",
}

_DIGIT_RE = re.compile(r"\d+(?:[.,]\d+)*")
_PUNCT_TAGS = {".": ".", "!": ".", "?": ".", ",": ",", ":": ":", ";": ":", "(": "(", ")": ")"}

# Consonants that un-double after suffix stripping (scanning -> scan); 's' is
# excluded so words like "assess" survive intact.
_GEMINATES = frozenset("bdfglmnprt")


@dataclass(frozen=True)
class TokenSpan:
    """A raw token span prior to tagging."""

    start: int
    end: int
    surface: str


def tokenize(text: str) -> tuple[TokenSpan, ...]:
    """Split text into spans; offsets are code-point counts into ``text``."""
    return tuple(TokenSpan(m.start(), m.end(), m.group()) for m in _TOKEN_RE.finditer(text))


def split_sentences(tokens: tuple[TokenSpan, ...] | tuple[Token, ...]) -> tuple[Sentence, ...]:
    """Sentence spans over token indices; boundaries after terminal punctuation.

    A '.' does not end a sentence when the previous token is a single
    uppercase letter (an initial) or a listed abbreviation.
    """
    if not tokens:
        return ()
    boundaries = []
    for i, tok in enumerate(tokens):
        if tok.surface not in _SENTENCE_FINAL:
            continue
        if tok.surface == "." and i > 0:
            prev = tokens[i - 1].surface
            if len(prev) == 1 and prev.isupper():
                continue
            if prev.lower() in DEFAULT_ABBREVIATIONS:
                continue
        boundaries.append(i)
    sentences = []
    first = 0
    for b in boundaries:
        sentences.append(Sentence(first, b))
        first = b + 1
    if first < len(tokens):
        sentences.append(Sentence(first, len(tokens) - 1))
    return tuple(sentences)


def pos_tag(tokens: tuple[TokenSpan, ...]) -> tuple[str, ...]:
    """One full tag per token: lexicon lookup, then suffix rules, default NN."""
    return tuple(_tag_one(t.surface) for t in tokens)


def _tag_one(surface: str) -> str:
    if surface in _PUNCT_TAGS:
        return _PUNCT_TAGS[surface]
    if len(surface) == 1 and not surface.isalnum():
        return "SYM"
    if _DIGIT_RE.fullmatch(surface):
        return "CD"
    tag = DEFAULT_LEXICON.get(surface.lower())
    if tag is not None:
        return tag
    low = surface.lower()
    if low.endswith("ing") and len(low) > 4:
        return "VBG"
    if low.endswith("ed") and len(low) > 3:
        return "VBD"
    if low.endswith("ly") and len(low) > 3:
        return "RB"
    if len(low) > 4 and (low.endswith("ous") or low.endswith("ic") or low.endswith("al")):
        return "JJ"
    if low.endswith("s") and not low.endswith("ss") and len(low) > 3:
        return "NNS"
    if surface[:1].isupper():
        return "NNP"
    return "NN"


def lemmatize(surface: str) -> str:
    """Lowercased morphological root via deterministic suffix stripping.

    Rules are applied to a fixpoint, which makes the function idempotent by
    construction (each rule strictly shortens its input).
    """
    s = surface.lower()
    while True:
        stripped = _strip_suffix(s)
        if stripped == s:
            return s
        s = stripped


def _strip_suffix(s: str) -> str:
    if s.endswith("ies") and len(s) > 4:
        return s[:-3] + "y"
    if s.endswith("ss"):
        return s
    if s.endswith("ing") and len(s) > 5:
        return _undouble(s[:-3])
    if s.endswith("ed") and len(s) > 4:
        return _undouble(s[:-2])
    if s.endswith("s") and len(s) > 3:
        return s[:-1]
    return s


def _undouble(stem: str) -> str:
    if len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] in _GEMINATES:
        return stem[:-1]
    return stem


def generalize_pos(full: str) -> str:
    """The generalized POS tag: the first two code points of the full tag (the whole tag if shorter)."""
    return full[:2]


def annotate(text: str) -> tuple[tuple[Token, ...], tuple[Sentence, ...]]:
    """Run the full chain, producing corpus-ready tokens and sentences."""
    spans = tokenize(text)
    tokens = tuple(
        Token(s.start, s.end, s.surface, tag, lemmatize(s.surface)) for s, tag in zip(spans, pos_tag(spans))
    )
    return tokens, split_sentences(spans)

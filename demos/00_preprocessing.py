"""
Rule-based text preprocessing
=============================

Raw narrative text becomes corpus-ready annotations through a small
deterministic chain: tokenization, sentence splitting, POS tagging, and
suffix-stripping lemmatization.  No statistical models are involved, so
identical text always yields identical annotations.
"""

from clinrel.preprocess import annotate, generalize_pos, lemmatize, split_sentences, tokenize

text = ("Ultrasound scanning of the kidneys showed no hydronephrosis. "
        "The patient was reviewed on 12.5 mg prednisolone.")

# Tokenization keeps hyphenated words together and splits punctuation.
spans = tokenize(text)
print("tokens:", [s.surface for s in spans])

# The splitter treats a period as sentence-final unless it follows a
# known abbreviation or sits inside a number.
sentences = split_sentences(spans)
for sent in sentences:
    words = [s.surface for s in spans[sent.first_token : sent.last_token + 1]]
    print("sentence:", " ".join(words))

# The full chain yields corpus Token objects with POS tags and roots.
tokens, _ = annotate(text)
print(f"\n{'surface':16s} {'pos':5s} {'gen':4s} root")
for tok in tokens[:9]:
    print(f"{tok.surface:16s} {tok.pos:5s} {generalize_pos(tok.pos):4s} {tok.root}")

# Lemmatization applies suffix rules to a fixpoint; it reads the surface
# form alone, not its POS tag.
for word in ("scanned", "kidneys", "studies", "shows"):
    print(f"lemmatize({word!r}) = {lemmatize(word)!r}")

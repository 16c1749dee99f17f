"""Perplexity and content-word constrained perplexity.

Both follow the base-10 convention: PPL = 10^(-(1/|C|) sum log10 p(w_i)).
The constrained form keeps only reference tokens whose corpus count is at
most a threshold, and normalizes by the number of kept tokens, so it
isolates how well the model covers low-frequency (content) words.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Vocabulary
from .errors import EvaluationError, ValidationError
from .modelfile import read_text
from .topics import UNK_WORD


@dataclass(frozen=True, eq=False)
class ReferenceCorpus:
    tokens: np.ndarray  # int64 word ids in reference order
    counts: dict = field(init=False)

    def __post_init__(self):
        tokens = np.array(self.tokens, dtype=np.int64)
        tokens.flags.writeable = False
        n = np.bincount(tokens)
        ids = np.flatnonzero(n)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "counts", dict(zip(ids.tolist(), n[ids].tolist())))

    @classmethod
    def from_tokens(cls, tokens) -> "ReferenceCorpus":
        return cls(tuple(tokens))


def load_reference(path, vocab: Vocabulary) -> ReferenceCorpus:
    """Whitespace-tokenized transcript, one utterance per line.

    Out-of-vocabulary tokens map to the unknown-word entry; if the model
    vocabulary has none, evaluation cannot proceed, and the error names the
    first such token.
    """
    tokens = read_text(path).split()
    if not tokens:
        raise EvaluationError(f"reference file {path} has no tokens")
    ids = vocab.ids(tokens)
    outside = ids < 0
    if outside.any():
        unk = vocab.get(UNK_WORD)
        if unk is None:
            raise EvaluationError(
                f"{path}: token {tokens[outside.argmax()]!r} not covered: "
                f"vocabulary has no {UNK_WORD!r}"
            )
        ids[outside] = unk
    return ReferenceCorpus(ids)


def _score(probs: np.ndarray, tokens: np.ndarray, vocab: Vocabulary | None) -> float:
    p = probs[tokens]
    zero = p <= 0.0
    if zero.any():
        w = int(tokens[zero.argmax()])
        name = vocab.word(w) if vocab is not None else f"id {w}"
        raise EvaluationError(f"model assigns zero probability to token {name}")
    # cumsum adds one token after another, as a loop would
    total = np.cumsum(np.log10(p))[-1]
    return 10.0 ** (-total / tokens.size)


def perplexity(probs, corpus: ReferenceCorpus, vocab: Vocabulary | None = None) -> float:
    probs = np.asarray(probs, dtype=np.float64)
    if not corpus.tokens.size:
        raise EvaluationError("empty reference corpus")
    return _score(probs, corpus.tokens, vocab)


def constrained_perplexity(
    probs, corpus: ReferenceCorpus, thr: int, vocab: Vocabulary | None = None
) -> float:
    """Perplexity over tokens occurring at most ``thr`` times in the corpus;
    the exponent normalizer counts qualifying tokens only.
    """
    if thr < 1:
        raise ValidationError(f"thr {thr!r} < 1")
    probs = np.asarray(probs, dtype=np.float64)
    tokens = corpus.tokens
    kept = tokens[np.bincount(tokens)[tokens] <= thr]
    if not kept.size:
        raise EvaluationError(f"no reference tokens with count <= {thr}")
    return _score(probs, kept, vocab)

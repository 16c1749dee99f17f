"""Topic-conditional unigram distributions and their mixtures.

A topic model is a row-stochastic matrix: one smoothed unigram distribution
per topic over a shared vocabulary.  A conversation-level mixture is a
simplex weight vector; ``mu_to_lambda`` maps softmax parameters, in which
the confusion-aware estimators take their multiplicative steps, onto it.

``load_topic_model`` reads its file as bytes, a block of whole lines at a
time (see ``modelfile``), through ``read_rows``, which also reads the
adapted unigram as one topic row: the first topic's words are decoded into
the vocabulary, a later topic's words are compared with them as byte keys,
and each distinct probability of a block is cast once from its bytes to
float64 by numpy, bitwise what ``float()`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import UNK_WORD, Vocabulary
from .errors import ParseError, TrainingError, ValidationError
from .modelfile import COUNT, Table, WordKeys, read_blocks, write_lines

PROB_FLOOR = 1e-10
ROW_SUM_TOL = 1e-9


def floor_and_normalize(rows: np.ndarray) -> np.ndarray:
    """Clamp the probabilities of the float64 array ``rows`` to PROB_FLOOR
    and renormalize each row, in place; returns ``rows``.

    The final clamp keeps every entry at or above the floor even after the
    division; it perturbs row sums by at most V^2 * floor^2, far inside the
    row-sum tolerance for any realistic vocabulary.
    """
    np.maximum(rows, PROB_FLOOR, out=rows)
    rows /= rows.sum(axis=-1, keepdims=True)
    return np.maximum(rows, PROB_FLOOR, out=rows)


class TopicModel:
    """T smoothed unigram distributions over a shared vocabulary."""

    def __init__(self, labels, vocab: Vocabulary, probs: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 2 or probs.shape != (len(labels), len(vocab)):
            raise ValidationError(
                f"probs shape {probs.shape} does not match {len(labels)} topics "
                f"x {len(vocab)} words"
            )
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate topic labels")
        if probs.min(initial=np.inf) < PROB_FLOOR * (1 - 1e-12):
            raise ValidationError("topic probabilities below floor")
        sums = probs.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            raise ValidationError(f"topic rows do not sum to 1: {sums}")
        self.labels = list(labels)
        self.vocab = vocab
        self.probs = probs

    @property
    def num_topics(self) -> int:
        return len(self.labels)


def mu_to_lambda(mu) -> np.ndarray:
    """Stable softmax; shift-invariant, output strictly positive for finite mu."""
    mu = np.asarray(mu, dtype=np.float64)
    shifted = mu - np.max(mu)
    e = np.exp(shifted)
    return e / e.sum()


class MixtureWeights:
    """Simplex weights over topics."""

    def __init__(self, lam):
        lam = np.asarray(lam, dtype=np.float64)
        if np.any(lam < 0) or abs(lam.sum() - 1.0) > ROW_SUM_TOL:
            raise ValidationError(f"weights not on the simplex: {lam}")
        self.lam = lam

    def __repr__(self):
        return f"MixtureWeights({self.lam!r})"


def train_topic_model(labeled_corpus, vocab: Vocabulary) -> TopicModel:
    """Estimate one Witten-Bell-smoothed unigram distribution per topic.

    ``labeled_corpus`` yields (topic label, token sequence) pairs; pairs
    sharing a label are pooled.  For a topic with N tokens and W distinct
    words over a vocabulary with U unseen words, a seen word w gets
    c(w)/(N+W) and the reserved mass W/(N+W) is split uniformly over the U
    unseen words (plain c(w)/N when U is zero).  Rows are floored and
    renormalized so every word keeps nonzero probability.
    """
    vocab.add(UNK_WORD)
    topic = {}
    tids, wids = [], []
    for label, tokens in labeled_corpus:
        ids = [vocab.add(tok) for tok in tokens]
        wids += ids
        tids += [topic.setdefault(label, len(topic))] * len(ids)
    labels = list(topic)
    if not labels:
        raise TrainingError("no topics in training corpus")
    T, V = len(labels), len(vocab)
    keys = np.array(tids, dtype=np.int64) * V + np.array(wids, dtype=np.int64)
    counts = np.bincount(keys, minlength=T * V).reshape(T, V)
    n_tokens = counts.sum(axis=1)
    if not n_tokens.all():
        raise TrainingError(f"topic {labels[int(n_tokens.argmin())]!r} has no tokens")
    n_seen = np.count_nonzero(counts, axis=1)
    n_unseen = V - n_seen
    denom = np.where(n_unseen > 0, n_tokens + n_seen, n_tokens)[:, None]
    unseen = (n_seen[:, None] / denom) / np.maximum(n_unseen, 1)[:, None]
    rows = np.where(counts > 0, counts / denom, unseen)
    return TopicModel(labels, vocab, floor_and_normalize(rows))


def save_topic_model(tm: TopicModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"TOPICS {tm.num_topics} {len(tm.vocab)}\n")
        words = tm.vocab.words
        for label, row in zip(tm.labels, tm.probs):
            fh.write(f"TOPIC {label}\n")
            write_lines(fh, "{} {:.12g}\n", words, row)


def load_topic_model(path) -> TopicModel:
    """Read a topic model file, validating block structure and row sums.

    The rows are read by ``read_rows`` and floored and normalized where
    they were read, so the model holds the one T x V array the load made.
    """
    with open(path, "rb") as fh:
        nlines, header, blocks = read_blocks(fh)
        if not nlines:
            raise ParseError("empty topic model file", 1)
        parts = header.split()
        if len(parts) != 3 or parts[0] != "TOPICS":
            raise ParseError(f"expected 'TOPICS <T> <V>', got {header!r}", 1)
        if not (COUNT.fullmatch(parts[1]) and COUNT.fullmatch(parts[2])):
            raise ParseError(f"bad counts in header {header!r}", 1)
        T, V = int(parts[1]), int(parts[2])
        expect = 1 + T * (V + 1)
        if nlines != expect:
            raise ParseError(f"expected {expect} lines, found {nlines}", nlines)
        if T < 0 or V < 0:
            raise ParseError(f"bad counts in header {header!r}", 1)
        labels, vocab, rows = read_rows(blocks, T, V, 2)
    sums = rows.sum(axis=1)
    if rows.min(initial=0.0) < 0 or np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValidationError(f"topic rows do not sum to 1: {sums}")
    return TopicModel(labels, vocab, floor_and_normalize(rows))


def read_rows(blocks, T: int, V: int, first: int, rule=None):
    """(labels, vocabulary, rows as read) of T topics over V words from the
    ``Block``s after a header.  A topic is its line ``TOPIC <label>``, then
    a line ``<word> <prob>`` for each word; the first TOPIC line is file
    line ``first``, and the unigram, one row without it, counts its header
    line as that line.  ``rule(table)`` adds a caller's rule to each block.
    """
    vocab, labels = Vocabulary(), []
    rows = np.empty((T, V), dtype=np.float64)
    keys = None  # the first topic's words as byte keys, once it is complete
    for block in blocks:
        keys = _read_topic_block(block, first, vocab, labels, rows, keys, rule)
    return labels, vocab, rows


def _read_topic_block(block, first, vocab, labels, rows, keys, rule):
    """Store a block's rows and labels once its ``Table`` checks out;
    returns ``keys`` as it stands after the block.  The topic rules run on
    arrays: the label lines, the first topic's words, interned into
    ``vocab`` without repeats, and each later topic's words, compared with
    ``keys`` as byte keys, line for line."""
    V = rows.shape[1]
    line = block.line - first + np.arange(block.size)  # counted from the first TOPIC line
    topic, r = np.divmod(line, V + 1)
    t = Table(block, 2, lambda i: "<word> <prob>" if r[i] else "TOPIC <label>", r != 0)
    head, entry = np.flatnonzero(r[: t.n] == 0), t.records
    words = entry[topic[entry] == 0]
    later = entry[topic[entry] > 0]
    # the first topic's words, the labels and their tags, decoded together
    names = block.text(np.concatenate((2 * words, 2 * head + 1, 2 * head)))
    new = names[words.size : words.size + head.size]
    t.reject(head[[tag != "TOPIC" for tag in names[words.size + head.size :]]], t.expected)
    ids = np.fromiter(map(vocab.add, names[: words.size]), np.int64, words.size)
    t.reject(words[ids != r[words] - 1],
             lambda i: ParseError(f"duplicate word {t.field(i, 0)!r}", t.line + i))
    if keys is None and len(vocab) == V:
        keys = WordKeys.of_words(vocab.words)
    if later.size and keys is not None:
        every = labels + new
        t.reject(later[~block.words(2 * later).equal(keys, r[later] - 1)],
                 lambda i: ParseError(f"word {t.field(i, 0)!r} out of order in topic "
                                      f"{every[topic[i]]!r}", t.line + i))
    if rule:
        rule(t)
    t.check()
    rows.reshape(-1)[line[entry] - topic[entry] - 1] = t.numbers
    labels += new
    return keys

"""Topic-conditional unigram distributions and their mixtures.

A topic model is a row-stochastic matrix: one smoothed unigram distribution
per topic over a shared vocabulary.  A conversation-level mixture is a
simplex weight vector; ``mu_to_lambda`` maps softmax parameters, in which
the confusion-aware estimators take their multiplicative steps, onto it.

``load_topic_model`` reads its file as bytes, a block of whole lines at a
time (see ``modelfile``): the first topic's words are decoded into the
vocabulary, a later topic's words are compared with them as byte keys, and
each distinct probability of a block is cast once from its bytes to
float64 by numpy, bitwise what ``float()`` returns, with ``float()``
itself for a block the cast cannot take.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import UNK_WORD, Vocabulary
from .errors import ParseError, TrainingError, ValidationError
from .modelfile import COUNT, WordKeys, read_blocks, write_lines

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

    The lines are read in blocks of bytes (see ``modelfile``).  The words
    of the first topic are decoded into the vocabulary; a later topic's
    words are compared with them as byte keys, line for line.  A block that
    fails a check is read again line by line for the error to report.  The
    rows are floored and normalized where they were read, so the model
    holds the one T x V array the load made.
    """
    labels, vocab, rows = _read_rows(path)
    sums = rows.sum(axis=1)
    if rows.min(initial=0.0) < 0 or np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValidationError(f"topic rows do not sum to 1: {sums}")
    return TopicModel(labels, vocab, floor_and_normalize(rows))


def _read_rows(path):
    """(labels, vocabulary, rows) of a topic model file, the rows as read."""
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

        vocab = Vocabulary()
        labels = []
        rows = np.empty((T, V), dtype=np.float64)
        keys = None  # the first topic's words as byte keys, once it is complete
        for block in blocks:
            keys = _read_topic_block(block, vocab, labels, rows, keys)
            if keys is False:
                raise _first_topic_error(
                    block.lines(), block.line, vocab, labels[-1] if labels else None, V
                )
    return labels, vocab, rows


def _read_topic_block(block, vocab, labels, rows, keys):
    """Parse a block of the lines after the header.

    The words of the first topic are interned into ``vocab``; ``labels``
    grows only when every line of the block is good.  ``keys`` holds the
    first topic's words as ``WordKeys`` once that topic is complete, and is
    None before.  Returns ``keys`` as it stands after the block, or False
    if any line is bad.
    """
    if not block.fields(2):
        return False
    V = rows.shape[1]
    line = block.line - 2 + np.arange(block.size)  # counted from the first TOPIC line
    topic, r = np.divmod(line, V + 1)
    head = np.flatnonzero(r == 0)
    tags = block.text(2 * head)
    if tags.count("TOPIC") != len(tags):
        return False
    entry = np.flatnonzero(r)
    probs = block.floats(2 * entry + 1)
    if probs is None or np.isnan(probs).any():
        return False
    first = entry[topic[entry] == 0]
    # the first topic's words and the labels, decoded together
    names = block.text(np.concatenate((2 * first, 2 * head + 1)))
    if first.size:
        size = len(vocab)
        for word in names[: first.size]:
            vocab.add(word)
        if len(vocab) != size + first.size:
            return False
        if len(vocab) == V:
            keys = WordKeys.of_words(vocab.words)
    later = entry[topic[entry] > 0]
    if later.size and not block.words(2 * later).equal(keys, r[later] - 1):
        return False
    rows.reshape(-1)[line[entry] - topic[entry] - 1] = probs
    labels += names[first.size :]
    return keys


def _first_topic_error(chunk, line, vocab, label, V):
    """The error of the first bad line of ``chunk``, read line by line.

    ``label`` is the topic open before the chunk; words of the first topic
    that ``_read_topic_block`` interned keep their ids, so they read as good.
    """
    for no, text in enumerate(chunk, start=line):
        text = text.rstrip("\n")
        parts = text.split()
        t, r = divmod(no - 2, V + 1)
        if r == 0:
            if len(parts) != 2 or parts[0] != "TOPIC":
                return ParseError(f"expected 'TOPIC <label>', got {text!r}", no)
            label = parts[1]
            continue
        if len(parts) != 2:
            return ParseError(f"expected '<word> <prob>', got {text!r}", no)
        word, ptok = parts
        if t == 0:
            if vocab.add(word) != r - 1:
                return ParseError(f"duplicate word {word!r}", no)
        elif vocab.get(word) != r - 1:
            return ParseError(f"word {word!r} out of order in topic {label!r}", no)
        try:
            p = float(ptok)
        except ValueError:
            return ParseError(f"bad probability {ptok!r}", no)
        if p != p:
            return ValidationError(f"line {no}: probability {ptok} is not a number")
    raise AssertionError(f"no bad line among lines {line}-{no}")

"""Recognizer confusion channel estimated from bin co-occurrences.

The channel is a sparse conditional distribution: the probability that the
recognizer's top word is v given that w was spoken.  It is estimated by
counting, for every pruned bin, each ordered pair of co-resident words once
(self-pairs included, so correct recognition keeps probability mass), then
normalizing per conditioning word.

``load_channel`` reads its file as bytes, a block of whole lines at a time
(see ``modelfile``): each block's distinct words are looked up once among
the vocabulary's sorted byte keys, only a word outside it is decoded, and
each distinct probability of a block is cast once from its bytes to
float64 by numpy, bitwise what ``float()`` returns, with ``float()``
itself for a block the cast cannot take.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cached_property

import numpy as np

from .corpus import Conversation, Vocabulary, _offsets, pruned_widths
from .errors import ParseError, ValidationError
from .modelfile import Table, WordKeys, read_blocks, write_lines


class ChannelModel:
    """p(observed v | spoken w) as compressed sparse rows keyed by spoken word.

    The row of spoken word w is entries ``ptr[w]`` to ``ptr[w + 1]`` of
    ``obs`` (observed word ids, ascending) and ``probs``.  A word without
    entries, or past the end of ``ptr``, has no row and emits itself.
    ``dropped`` counts the entries of a loaded file that named a word
    outside the vocabulary.
    """

    def __init__(self, spoken, obs, probs, n: int, dropped: int = 0):
        """Wrap entries sorted by (spoken, observed) word id, every spoken
        id below ``n``; nothing is checked."""
        self.ptr = _offsets(np.bincount(spoken, minlength=n))
        self.obs, self.probs = obs, probs
        self.dropped = dropped

    @cached_property
    def _lists(self):
        return self.ptr.tolist(), self.obs.tolist(), self.probs.tolist()

    @cached_property
    def rows(self):
        """The rows as nested dicts, ``rows[w][v] = p``, built on first use
        for inspection; the package itself reads only the arrays."""
        ptr, obs, probs = self._lists
        return {
            w: dict(zip(obs[lo:hi], probs[lo:hi]))
            for w, (lo, hi) in enumerate(zip(ptr, ptr[1:]))
            if hi > lo
        }

    def spoken(self) -> np.ndarray:
        """The spoken word of every entry."""
        return np.repeat(np.arange(self.ptr.size - 1), np.diff(self.ptr))

    def row(self, w: int):
        """Observed word ids (ascending) and probabilities stored for spoken
        word ``w``, an id below ``len(ptr) - 1``."""
        lo, hi = self.ptr[w], self.ptr[w + 1]
        return self.obs[lo:hi], self.probs[lo:hi]

    def prob(self, v: int, w: int) -> float:
        """p(observed v | spoken w), by binary search in the row of ``w``;
        unmodeled words back off to identity."""
        ptr, obs, probs = self._lists  # one conversion serves every call
        if 0 <= w < len(ptr) - 1 and ptr[w + 1] > ptr[w]:
            i = bisect_left(obs, v, ptr[w], ptr[w + 1])
            return probs[i] if i < ptr[w + 1] and obs[i] == v else 0.0
        return 1.0 if v == w else 0.0


def estimate_channel(
    convs, rel_floor: float = 0.05, max_words: int = 10
) -> ChannelModel:
    """Count co-occurrences over pruned bins and normalize row-wise.

    Counting is unweighted: posteriors select which words survive pruning
    but do not weight the counts.  Accumulation is a commutative reduction,
    so conversation order does not matter.
    """
    blocks = []  # per conversation and pruned width K, the (bins, K) word ids
    for conv in convs:
        if not isinstance(conv, Conversation):
            raise ValidationError(f"expected Conversation, got {type(conv)!r}")
        width = pruned_widths(conv, rel_floor, max_words)
        first = conv.bin_ptr[:-1]
        for K in np.flatnonzero(np.bincount(width)).tolist():
            blocks.append(conv.words[first[width == K, None] + np.arange(K)])
    if not blocks:
        raise ValidationError("no bins seen; cannot estimate a channel")
    base = max(int(b.max()) for b in blocks) + 1
    keys, counts = np.unique(
        np.concatenate([(b[:, :, None] * base + b[:, None, :]).ravel() for b in blocks]),
        return_counts=True,
    )
    spoken, obs = np.divmod(keys, base)
    totals = np.bincount(spoken, weights=counts, minlength=base)
    return ChannelModel(spoken, obs, counts / totals[spoken], base)


def save_channel(cm: ChannelModel, vocab: Vocabulary, path) -> None:
    """Write one ``<w> <v> <prob>`` line per entry, sorted by the words' strings."""
    words = vocab.words
    rank = np.empty(len(words), dtype=np.int64)
    rank[sorted(range(len(words)), key=words.__getitem__)] = np.arange(len(words))
    spoken = cm.spoken()
    order = np.lexsort((rank[cm.obs], rank[spoken]))
    names = np.array(words, dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"CHANNEL {order.size}\n")
        write_lines(fh, "{} {} {:.12g}\n",
                    names[spoken[order]], names[cm.obs[order]], cm.probs[order])


_CHANNEL_HEADER = re.compile(r"^CHANNEL ([0-9]+)$")


def load_channel(path, vocab: Vocabulary) -> ChannelModel:
    """Read a channel file over the words of ``vocab``, re-validating row sums.

    ``vocab`` is never grown: entries naming a word it lacks are dropped
    after the row sums are checked, the rest of each row is renormalized,
    and a row left empty is dropped; the model's ``dropped`` counts those
    entries.  A pair listed twice is an error.

    The lines are read in blocks of bytes (see ``modelfile``).  A block's
    words are matched as byte keys: its distinct words are numbered, then
    looked up among ``vocab``'s sorted keys, and only a word ``vocab`` lacks
    is decoded.  The first bad line of a file names its error.
    """
    known = len(vocab)
    ws, vs, ps, names = _read_entries(path, vocab)
    nrows = ps.size

    def name(wid):
        return vocab.word(wid) if wid < known else names[wid - known]

    nid = known + len(names)
    order = _entry_order(ws, vs, nid, name)
    # bincount adds each row's entries in file order, as a line-by-line sum does
    totals = np.bincount(ws, weights=ps, minlength=nid)
    bad = (np.abs(totals - 1.0) > 1e-6) & (np.bincount(ws, minlength=nid) > 0)
    if bad.any():
        w = int(ws[bad[ws]][0])  # the bad row whose first entry comes first
        raise ValidationError(f"channel row {name(w)!r} sums to {float(totals[w])!r}")
    take, dropped = order, 0
    if names:
        keep = (ws < known) & (vs < known)
        dropped = nrows - int(np.count_nonzero(keep))
        totals = np.bincount(ws[keep], weights=ps[keep], minlength=nid)
        take = np.flatnonzero(keep) if order is None else order[keep[order]]
    if take is not None:
        ws, vs, ps = ws[take], vs[take], ps[take]
    ps /= totals[ws]
    return ChannelModel(ws, vs, ps, known, dropped)


def _entry_order(ws, vs, nid, name):
    """The order that sorts the entries by (w, v), or None when they are
    sorted already, as files written by save_channel over ids in string
    order are; raises the error of the first line that repeats an entry."""
    rising = ws[1:] > ws[:-1]
    rising |= (ws[1:] == ws[:-1]) & (vs[1:] > vs[:-1])
    if rising.all():
        return None
    key = ws * nid + vs
    order = np.argsort(key, kind="stable")
    dup = np.flatnonzero(key[order[1:]] == key[order[:-1]])
    if dup.size:
        i = int(order[dup + 1].min())
        raise ParseError(f"duplicate entry {name(ws[i])!r} {name(vs[i])!r}", i + 2)
    return order


def _read_entries(path, vocab: Vocabulary):
    """(spoken ids, observed ids, probabilities, outside words) of the
    entries of a channel file, in file order: ids from ``len(vocab)`` up
    stand for the outside words, numbered in the order they first appear."""
    with open(path, "rb") as fh:
        nlines, header, blocks = read_blocks(fh)
        if not nlines:
            raise ParseError("empty channel file", 1)
        m = _CHANNEL_HEADER.match(header)
        if not m:
            raise ParseError(f"expected 'CHANNEL <rows>', got {header!r}", 1)
        nrows = int(m.group(1))
        if nlines - 1 != nrows:
            raise ParseError(f"header declares {nrows} rows, found {nlines - 1}", 1)
        index = WordKeys.of_words(vocab.words).index()
        outside = {}
        ws = np.empty(nrows, dtype=np.int64)
        vs = np.empty(nrows, dtype=np.int64)
        ps = np.empty(nrows, dtype=np.float64)
        for block in blocks:
            at = slice(block.line - 2, block.line - 2 + block.size)
            ps[at], ws[at], vs[at] = _read_channel_block(block, index, outside, len(vocab))
    return ws, vs, ps, list(outside)


def _read_channel_block(block, index, outside, known):
    """(probabilities, spoken ids, observed ids) of a block's entries; a
    word outside ``index`` gets the next id in ``outside``, in the order
    the words first appear."""
    t = Table(block, 3, lambda i: "<w> <v> <prob>")
    t.reject(t.records[t.numbers <= 0.0], lambda i: ValidationError(
        f"line {t.line + i}: non-positive probability {t.field(i)}"))
    t.check()
    # the spoken and observed word of each line, one after the other
    n = block.size
    tokens = np.arange(3 * n).reshape(n, 3)[:, :2].ravel()
    ids = block.words(tokens).find(index)
    missing = np.flatnonzero(ids < 0)
    if missing.size:
        names = block.text(tokens[missing])
        ids[missing] = [outside.setdefault(w, known + len(outside)) for w in names]
    return t.numbers, ids[0::2], ids[1::2]

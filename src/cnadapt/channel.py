"""Recognizer confusion channel estimated from bin co-occurrences.

The channel is a sparse conditional distribution: the probability that the
recognizer's top word is v given that w was spoken.  It is estimated by
counting, for every pruned bin, each ordered pair of co-resident words once
(self-pairs included, so correct recognition keeps probability mass), then
normalizing per conditioning word.
"""

from __future__ import annotations

import re

from .corpus import Conversation, Vocabulary, prune_bin
from .errors import ParseError, ValidationError

ROW_SUM_TOL = 1e-9


class ChannelModel:
    """Sparse rows: rows[w][v] = p(observed v | spoken w)."""

    def __init__(self, rows):
        for w, row in rows.items():
            if not row:
                raise ValidationError(f"empty channel row for word id {w}")
            total = sum(row.values())
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise ValidationError(f"channel row {w} sums to {total!r}")
            if any(p <= 0.0 for p in row.values()):
                raise ValidationError(f"non-positive probability in channel row {w}")
        self.rows = rows

    def prob(self, v: int, w: int) -> float:
        """p(observed v | spoken w); unmodeled words back off to identity."""
        row = self.rows.get(w)
        if row is None:
            return 1.0 if v == w else 0.0
        return row.get(v, 0.0)


def estimate_channel(
    convs, rel_floor: float = 0.05, max_words: int = 10
) -> ChannelModel:
    """Count co-occurrences over pruned bins and normalize row-wise.

    Counting is unweighted: posteriors select which words survive pruning
    but do not weight the counts.  Accumulation is a commutative reduction,
    so conversation order does not matter.
    """
    counts = {}
    for conv in convs:
        if not isinstance(conv, Conversation):
            raise ValidationError(f"expected Conversation, got {type(conv)!r}")
        for b in conv.iter_bins():
            wids = prune_bin(b, rel_floor, max_words).word_ids()
            for w in wids:
                row = counts.setdefault(w, {})
                for v in wids:
                    row[v] = row.get(v, 0) + 1
    if not counts:
        raise ValidationError("no bins seen; cannot estimate a channel")
    rows = {}
    for w, row in counts.items():
        total = sum(row.values())
        rows[w] = {v: c / total for v, c in row.items()}
    return ChannelModel(rows)


def save_channel(cm: ChannelModel, vocab: Vocabulary, path) -> None:
    entries = []
    for w, row in cm.rows.items():
        for v, p in row.items():
            entries.append((vocab.word(w), vocab.word(v), p))
    entries.sort(key=lambda e: (e[0], e[1]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"CHANNEL {len(entries)}\n")
        for w, v, p in entries:
            fh.write(f"{w} {v} {p:.12g}\n")


_CHANNEL_HEADER = re.compile(r"^CHANNEL (\d+)$")


def load_channel(path, vocab: Vocabulary) -> ChannelModel:
    """Read a channel file over the words of ``vocab``, re-validating row sums.

    ``vocab`` is never grown: entries naming a word it lacks are dropped
    after the row sums are checked, the rest of each row is renormalized,
    and a row left empty is dropped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty channel file", 1)
    m = _CHANNEL_HEADER.match(lines[0])
    if not m:
        raise ParseError(f"expected 'CHANNEL <rows>', got {lines[0]!r}", 1)
    nrows = int(m.group(1))
    if len(lines) - 1 != nrows:
        raise ParseError(f"header declares {nrows} rows, found {len(lines) - 1}", 1)
    known = len(vocab)
    outside = {}  # ids from ``known`` up stand for the words ``vocab`` lacks
    get = vocab.get
    raw = {}
    for no, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected '<w> <v> <prob>', got {line!r}", no)
        w, v, ptok = parts
        try:
            p = float(ptok)
        except ValueError:
            raise ParseError(f"bad probability {ptok!r}", no) from None
        if p <= 0.0:
            raise ValidationError(f"line {no}: non-positive probability {ptok}")
        wid, vid = get(w), get(v)
        if wid is None:
            wid = outside.setdefault(w, known + len(outside))
        if vid is None:
            vid = outside.setdefault(v, known + len(outside))
        raw.setdefault(wid, {})[vid] = p
    rows = {}
    for w, row in raw.items():
        total = sum(row.values())
        if abs(total - 1.0) > 1e-6:
            name = vocab.word(w) if w < known else list(outside)[w - known]
            raise ValidationError(f"channel row {name!r} sums to {total!r}")
        if outside:
            row = {v: p for v, p in row.items() if v < known}
            if w >= known or not row:
                continue
            total = sum(row.values())
        rows[w] = {v: p / total for v, p in row.items()}
    return ChannelModel(rows)

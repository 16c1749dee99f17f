"""Confusion-network data model, CNET text format, and bin preprocessing.

A conversation is a sequence of utterances, each decoded by the recognizer
into a "sausage": a linear sequence of bins, where a bin holds competing
word hypotheses with posterior probabilities.  Cells inside a bin are kept
in canonical order (descending posterior, ascending word id on ties) so the
1-best word and the serialized form are both deterministic.

A ``Conversation`` holds its cells as flat arrays in that order, and the
parser fills them a chunk of bin lines at a time.  ``Bin`` and
``ConfusionNetwork`` are the object form that builders of conversations use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import ParseError, ValidationError
from .modelfile import COUNT, utf8_error

POSTERIOR_SUM_SLACK = 1e-6
MAX_FRACTION_DIGITS = 9
UNK_WORD = "<unk>"
# bin lines parsed together; a chunk that breaks a rule is read again line by line
CHUNK_BINS = 2048

_POSTERIOR = re.compile(r"[0-9]+(?:\.([0-9]+))?")
# a BIN line the bulk path reads: "BIN" at the start of the line, a word
# without ':' in every cell, and every posterior within MAX_FRACTION_DIGITS.
# Matched one line at a time: over a whole chunk the engine keeps a
# backtracking state per line, about 11 MB for 2048 lines under CPython 3.11.
_CELL = rf"[^\s:]+:[0-9]+(?:\.[0-9]{{1,{MAX_FRACTION_DIGITS}}})?"
_BULK_LINE = re.compile(rf"BIN(?:[ \t]+{_CELL})+[ \t\r]*")


class Vocabulary:
    """Interning table mapping word strings to dense integer ids.

    Not thread-safe: intern words from a single ingestion thread, then share
    the instance read-only.
    """

    def __init__(self, words=()):
        self._words = []
        self._index = {}
        for w in words:
            self.add(w)

    def add(self, word: str) -> int:
        """Return the id of ``word``, interning it if unseen."""
        wid = self._index.get(word)
        if wid is None:
            wid = len(self._words)
            self._words.append(word)
            self._index[word] = wid
        return wid

    def id(self, word: str) -> int:
        return self._index[word]

    @property
    def get(self):
        """``get(word)``: the id of ``word``, or None when it is not interned.

        The index's own lookup, so loaders can bind it once per file.
        """
        return self._index.get

    def word(self, wid: int) -> str:
        return self._words[wid]

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __len__(self) -> int:
        return len(self._words)

    @property
    def words(self):
        return tuple(self._words)


def _canonical_cells(cells):
    return tuple(sorted(cells, key=lambda c: (-c[1], c[0])))


class Bin:
    """One time slot of a confusion network: (word id, posterior) cells."""

    __slots__ = ("cells",)

    def __init__(self, cells):
        cells = _canonical_cells(cells)
        if not cells:
            raise ValidationError("empty bin")
        seen = set()
        total = 0.0
        for wid, post in cells:
            if wid in seen:
                raise ValidationError(f"duplicate word id {wid} in bin")
            seen.add(wid)
            if not 0.0 < post <= 1.0:
                raise ValidationError(f"posterior {post!r} outside (0, 1]")
            total += post
        if total > 1.0 + POSTERIOR_SUM_SLACK:
            raise ValidationError(f"bin posteriors sum to {total!r} > 1")
        self.cells = cells

    def one_best(self):
        """Highest-posterior (word id, posterior) cell."""
        return self.cells[0]

    def word_ids(self):
        return tuple(wid for wid, _ in self.cells)

    def __len__(self):
        return len(self.cells)

    def __eq__(self, other):
        return isinstance(other, Bin) and self.cells == other.cells

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        return f"Bin({list(self.cells)!r})"


@dataclass(frozen=True)
class ConfusionNetwork:
    uid: str
    bins: tuple

    def __post_init__(self):
        if not self.bins:
            raise ValidationError(f"utterance {self.uid!r} has no bins")


def _offsets(counts) -> np.ndarray:
    """``ptr`` with ``ptr[i]`` the sum of ``counts[:i]``."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


class Conversation:
    """One conversation's cells as flat arrays, bin by bin in utterance order.

    * ``words`` (int64) and ``posts`` (float64): every cell's word id and
      posterior, each bin's cells in canonical order;
    * ``bin_ptr``: bin b holds cells ``bin_ptr[b]`` to ``bin_ptr[b + 1]``;
    * ``utt_ptr``: utterance u holds bins ``utt_ptr[u]`` to ``utt_ptr[u + 1]``;
    * ``uids``: the utterance ids;
    * ``oov_cells``: cells whose word was outside a closed vocabulary when
      parsed.

    ``Conversation(cid, networks)`` flattens ``ConfusionNetwork`` objects
    once.  ``networks`` and ``iter_bins`` give the object form back, built
    on first use; the package itself reads only the arrays.
    """

    def __init__(self, cid: str, networks, oov_cells: int = 0):
        networks = tuple(networks)
        bins = [b for net in networks for b in net.bins]
        self._fill(
            cid,
            tuple(net.uid for net in networks),
            _offsets([len(net.bins) for net in networks]),
            _offsets([len(b) for b in bins]),
            np.array([w for b in bins for w, _ in b.cells], dtype=np.int64),
            np.array([p for b in bins for _, p in b.cells], dtype=np.float64),
            oov_cells,
        )
        self.__dict__["networks"] = networks

    @classmethod
    def from_arrays(cls, cid, uids, utt_ptr, bin_ptr, words, posts, oov_cells=0):
        """Wrap arrays laid out as described above; nothing is checked."""
        conv = cls.__new__(cls)
        conv._fill(cid, tuple(uids), utt_ptr, bin_ptr, words, posts, oov_cells)
        return conv

    def _fill(self, cid, uids, utt_ptr, bin_ptr, words, posts, oov_cells):
        self.cid, self.uids, self.oov_cells = cid, uids, oov_cells
        self.utt_ptr, self.bin_ptr, self.words, self.posts = utt_ptr, bin_ptr, words, posts
        for a in self._arrays():
            a.flags.writeable = False

    def _arrays(self):
        return self.utt_ptr, self.bin_ptr, self.words, self.posts

    @property
    def total_bins(self) -> int:
        return self.bin_ptr.size - 1

    @cached_property
    def networks(self):
        words, posts, ptr = self.words.tolist(), self.posts.tolist(), self.bin_ptr.tolist()
        bins = [Bin(zip(words[lo:hi], posts[lo:hi])) for lo, hi in zip(ptr, ptr[1:])]
        ptr = self.utt_ptr.tolist()
        return tuple(
            ConfusionNetwork(uid, tuple(bins[lo:hi]))
            for uid, lo, hi in zip(self.uids, ptr, ptr[1:])
        )

    def iter_bins(self):
        for net in self.networks:
            yield from net.bins

    def __eq__(self, other):
        if not isinstance(other, Conversation):
            return NotImplemented
        return (self.cid, self.uids, self.oov_cells) == (
            other.cid, other.uids, other.oov_cells
        ) and all(map(np.array_equal, self._arrays(), other._arrays()))

    def __repr__(self):
        return (
            f"Conversation({self.cid!r}: {len(self.uids)} utterances, "
            f"{self.total_bins} bins, {self.words.size} cells)"
        )


def _check_prune(rel_floor: float, max_words: int) -> None:
    if not 0.0 <= rel_floor <= 1.0:
        raise ValidationError(f"rel_floor {rel_floor!r} outside [0, 1]")
    if max_words < 1:
        raise ValidationError(f"max_words {max_words!r} < 1")


def prune_bin(b: Bin, rel_floor: float = 0.05, max_words: int = 10) -> Bin:
    """Drop cells below ``rel_floor`` of the bin's max posterior, then keep
    at most ``max_words`` cells.  Surviving posteriors are left as-is (they
    are recognizer confidences, not renormalized).  The argmax cell always
    survives, so the result is never empty.
    """
    _check_prune(rel_floor, max_words)
    threshold = rel_floor * b.cells[0][1]
    kept = [c for c in b.cells if c[1] >= threshold]
    return Bin(kept[:max_words])


def pruned_widths(conv: Conversation, rel_floor: float = 0.05, max_words: int = 10):
    """The width of every bin of ``conv`` after ``prune_bin``.  The cells
    ``prune_bin`` keeps are the first ones of the bin, as posteriors descend
    along it."""
    _check_prune(rel_floor, max_words)
    width = np.diff(conv.bin_ptr)
    threshold = rel_floor * np.repeat(conv.posts[conv.bin_ptr[:-1]], width)
    bin_of = np.repeat(np.arange(width.size), width)
    kept = np.bincount(bin_of[conv.posts >= threshold], minlength=width.size)
    return np.minimum(kept, max_words)


def expected_counts(conv: Conversation) -> dict:
    """Soft term frequency: tf(w) = sum of w's posteriors over all bins."""
    tf = np.bincount(conv.words, weights=conv.posts)
    wids = np.unique(conv.words)
    return dict(zip(wids.tolist(), tf[wids].tolist()))


def _parse_posterior(token: str, lineno: int) -> float:
    m = _POSTERIOR.fullmatch(token)
    if m is None:
        raise ParseError(f"bad posterior {token!r}", lineno)
    frac = m.group(1)
    if frac is not None and len(frac) > MAX_FRACTION_DIGITS:
        raise ParseError(
            f"posterior {token!r} has more than {MAX_FRACTION_DIGITS} fraction digits",
            lineno,
        )
    value = float(token)
    if value > 1.0:
        raise ValidationError(f"line {lineno}: posterior {token} outside [0, 1]")
    return value


def _bin_cells(line: str, no: int, intern, unk):
    """The cells of one BIN line in canonical order and how many of its
    words ``intern`` did not know, checking every rule of the format.

    A word ``intern`` maps to None becomes ``unk``; when that is None too
    the cell is dropped.  Cells meeting at ``unk`` in a bin with such a word
    merge, their posteriors summed in file order and capped at 1.
    """
    parts = line.split()
    if parts[0] != "BIN" or len(parts) < 2:
        raise ParseError(f"expected 'BIN <word>:<posterior> ...', got {line!r}", no)
    cells = []
    oov = 0
    for cell in parts[1:]:
        word, sep, ptok = cell.rpartition(":")
        if not sep or not word:
            raise ParseError(f"bad cell {cell!r}", no)
        post = _parse_posterior(ptok, no)
        wid = intern(word)
        if wid is None:
            oov += 1
            wid = unk
        if wid is not None:
            cells.append((wid, post))
    if oov and unk is not None:
        merged = 0.0
        for wid, post in cells:
            if wid == unk:
                merged += post
        cells = [c for c in cells if c[0] != unk] + [(unk, min(merged, 1.0))]
    if not cells:
        return (), oov
    try:
        return Bin(cells).cells, oov
    except ValidationError as exc:
        raise ValidationError(f"line {no}: {exc}") from None


def _bins_by_line(lines, nos, intern, unk):
    """(widths, words, posts, outside words) of BIN lines read one by one;
    raises the error of the first bad line."""
    widths, words, posts, oov = [], [], [], 0
    for line, no in zip(lines, nos):
        cells, k = _bin_cells(line, no, intern, unk)
        oov += k
        widths.append(len(cells))
        words += [w for w, _ in cells]
        posts += [p for _, p in cells]
    return (
        np.array(widths, dtype=np.int64),
        np.array(words, dtype=np.int64),
        np.array(posts, dtype=np.float64),
        oov,
    )


def _bins_in_bulk(lines, vocab: Vocabulary, closed: bool, unk):
    """What ``_bins_by_line`` returns for BIN lines, parsed together, or
    None when some line breaks a rule or does not fit ``_BULK_LINE``.

    Every cell holds exactly one ':' (the pattern proves it), so splitting
    the text at ':' and whitespace alternates words and posteriors.
    """
    if not all(map(_BULK_LINE.fullmatch, lines)):
        return None
    text = "\n".join(lines)
    # "\nBIN" starts every line but the first and occurs nowhere else
    fields = text[3:].replace("\nBIN", "\n").replace(":", " ").split()
    words = fields[0::2]
    posts = np.array(fields[1::2], dtype=np.float64)
    if (posts > 1.0).any():
        return None
    ids = np.fromiter(map(vocab.get, words, repeat(-1)), np.int64, len(words))
    width = np.fromiter(map(str.count, lines, repeat(":")), np.int64, len(lines))
    bin_of = np.repeat(np.arange(len(lines)), width)
    outside = np.flatnonzero(ids < 0)
    if not closed:
        for i in outside.tolist():
            ids[i] = vocab.add(words[i])
    elif outside.size:
        keep = np.ones(ids.size, dtype=bool)
        if unk is None:
            keep[outside] = False
        else:
            ids[outside] = unk
            # cells at unk in a bin with an outside word merge into the first,
            # summed in file order
            hit = np.zeros(len(lines), dtype=bool)
            hit[bin_of[outside]] = True
            at = np.flatnonzero((ids == unk) & hit[bin_of])
            b = bin_of[at]
            first = np.concatenate([[True], b[1:] != b[:-1]])
            total = np.bincount(b, weights=posts[at])
            posts[at[first]] = np.minimum(total[b[first]], 1.0)
            keep[at[~first]] = False
        ids, posts, bin_of = ids[keep], posts[keep], bin_of[keep]
        width = np.bincount(bin_of, minlength=len(lines))
    if not (posts > 0.0).all():
        return None
    order = np.lexsort((ids, -posts, bin_of))
    ids, posts = ids[order], posts[order]
    key = np.sort(bin_of * len(vocab) + ids)
    if (key[1:] == key[:-1]).any():
        return None  # a word twice in a bin
    # bincount adds each bin's posteriors in canonical order, as Bin does
    total = np.bincount(bin_of, weights=posts, minlength=len(lines))
    if (total > 1.0 + POSTERIOR_SUM_SLACK).any():
        return None
    return width, ids, posts, outside.size if closed else 0


def parse_conversation(source, vocab: Vocabulary, closed: bool = False) -> Conversation:
    """Parse one conversation in CNET text format.

    ``source`` is a text stream or a string.  Unknown words are interned
    into ``vocab``, unless ``closed``: then ``vocab`` is left as it is, a
    cell whose word it lacks maps to UNK_WORD when it has that (posteriors
    of cells meeting there are summed) and is dropped otherwise, and a bin
    or utterance left empty is dropped too.  Raises ParseError/
    ValidationError with line numbers.

    The NET lines are read first; then the BIN lines, CHUNK_BINS at a time,
    in bulk when a chunk passes every check and line by line otherwise.  An
    error outside BIN lines is raised once the BIN lines before it are read,
    so the first error in the file is the one reported.
    """
    lines = (source if isinstance(source, str) else source.read()).split("\n")
    nonblank = np.flatnonzero(list(map(len, map(str.strip, lines)))).tolist()
    if not nonblank:
        raise ParseError("empty input", 1)
    header = lines[nonblank[0]]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "CONV":
        raise ParseError(f"expected 'CONV <id>', got {header!r}", nonblank[0] + 1)
    cid = parts[1]

    uids, nbins_of, bin_rows = [], [], []
    failure = None
    at = 1
    while at < len(nonblank):
        no = nonblank[at] + 1
        line = lines[no - 1]
        parts = line.split()
        if parts[0] != "NET" or len(parts) != 3:
            failure = ParseError(f"expected 'NET <id> <bin-count>', got {line!r}", no)
            break
        uid = parts[1]
        if COUNT.fullmatch(parts[2]) is None:
            failure = ParseError(f"bad bin count {parts[2]!r}", no)
            break
        nbins = int(parts[2])
        if nbins < 1:
            failure = ValidationError(f"line {no}: utterance {uid!r} declares {nbins} bins")
            break
        rows = nonblank[at + 1 : at + 1 + nbins]
        uids.append(uid)
        nbins_of.append(len(rows))
        bin_rows += rows
        if len(rows) < nbins:
            failure = ParseError(f"unexpected end of input inside NET {uid!r}")
            break
        at += 1 + nbins

    intern = vocab.get if closed else vocab.add
    unk = vocab.get(UNK_WORD) if closed else None
    chunks = []
    for lo in range(0, len(bin_rows), CHUNK_BINS):
        rows = bin_rows[lo : lo + CHUNK_BINS]
        chunk = [lines[i] for i in rows]
        got = _bins_in_bulk(chunk, vocab, closed, unk)
        if got is None:
            got = _bins_by_line(chunk, [i + 1 for i in rows], intern, unk)
        chunks.append(got)
    if failure is not None:
        raise failure
    if not uids:
        raise ParseError("conversation has no utterances", 1)
    width, words, posts, oov = zip(*chunks)
    width, oov = np.concatenate(width), sum(oov)
    kept = width > 0
    per_utt = np.bincount(
        np.repeat(np.arange(len(uids)), nbins_of)[kept], minlength=len(uids)
    )
    if not per_utt.any():  # every cell's word was outside the closed vocabulary
        raise ValidationError(f"conversation {cid!r} has no word in the vocabulary")
    return Conversation.from_arrays(
        cid,
        [uid for uid, n in zip(uids, per_utt.tolist()) if n],
        _offsets(per_utt[per_utt > 0]),
        _offsets(width[kept]),
        np.concatenate(words),
        np.concatenate(posts),
        oov,
    )


def format_posterior(p: float) -> str:
    """Fixed-point with at most 9 fraction digits, trailing zeros trimmed."""
    s = f"{p:.{MAX_FRACTION_DIGITS}f}".rstrip("0").rstrip(".")
    return s or "0"


def serialize_conversation(conv: Conversation, vocab: Vocabulary) -> str:
    """Byte-stable CNET text form (cells already in canonical order)."""
    words = vocab.words
    cells = [
        f"{words[wid]}:{format_posterior(post)}"
        for wid, post in zip(conv.words.tolist(), conv.posts.tolist())
    ]
    bin_ptr, utt_ptr = conv.bin_ptr.tolist(), conv.utt_ptr.tolist()
    out = [f"CONV {conv.cid}"]
    for uid, lo, hi in zip(conv.uids, utt_ptr, utt_ptr[1:]):
        out.append(f"NET {uid} {hi - lo}")
        out += ["BIN " + " ".join(cells[bin_ptr[b] : bin_ptr[b + 1]]) for b in range(lo, hi)]
    return "\n".join(out) + "\n"


def load_conversation(path, vocab: Vocabulary, closed: bool = False) -> Conversation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise utf8_error(path, universal=True) from None
    return parse_conversation(text, vocab, closed)


def save_conversation(conv: Conversation, vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_conversation(conv, vocab))

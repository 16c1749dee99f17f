"""Confusion-network data model, CNET text format, and bin preprocessing.

A conversation is a sequence of utterances, each decoded by the recognizer
into a "sausage": a linear sequence of bins, where a bin holds competing
word hypotheses with posterior probabilities.  Cells inside a bin are kept
in canonical order (descending posterior, ascending word id on ties) so the
1-best word and the serialized form are both deterministic.

A ``Conversation`` holds its cells as flat arrays in that order, and the
parser fills them a block of lines at a time.  ``Bin`` and
``ConfusionNetwork`` are the object form that builders of conversations use.

A CNET, from a file or a string alike, is read as bytes in ``modelfile``'s
``Block``s of whole lines, as the model files are.  In each block only the
CONV and NET lines are decoded; the BIN lines are read in bulk, with numpy,
and the bulk reader itself names the first line that breaks a rule of the
format (see ``_read_block``).  It reads a posterior as the integer n of its
digits, the fraction padded with zeros to 9 digits, over 10**9: n <= 10**9
< 2**53 and 10**9 are exact doubles, so the quotient is bitwise what
``float()`` returns.  The fixed-width parts of a line are read as the
block's little-endian 8-byte words: the ``BIN`` tag in one masked compare,
and the first 8 fraction digits of a posterior as one word.  A block's
words are numbered, in the order they first occur, by the hash pass that
also finds the distinct numbers of a model file (``WordKeys.distinct``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat

import numpy as np

from .errors import InputError, ParseError, ValidationError
from .modelfile import _FIRST, COUNT, PAD, WordKeys, blocks, ragged, utf8_error

POSTERIOR_SUM_SLACK = 1e-6
MAX_FRACTION_DIGITS = 9
UNK_WORD = "<unk>"

_POSTERIOR = re.compile(r"[0-9]+(?:\.([0-9]+))?")
# The bulk reader's little-endian uint64 constants: a line's first 3 bytes
# and "BIN"; and per byte "0", 0x7F, 0x80 - 10 and 0x80
_TAG, _BIN = 0xFFFFFF, int.from_bytes(b"BIN", "little")
_ZEROS, _LOW7, _TEN, _BIT7 = (0x0101010101010101 * b for b in (0x30, 0x7F, 0x76, 0x80))


class Vocabulary:
    """Interning table mapping word strings to dense integer ids.

    Not thread-safe: intern words from a single ingestion thread, then share
    the instance read-only.
    """

    def __init__(self, words=()):
        self._words = []
        self._index = {}
        self._tuple = ()
        for w in words:
            self.add(w)

    def add(self, word: str) -> int:
        """Return the id of ``word``, interning it if unseen."""
        wid = self._index.get(word)
        if wid is None:
            wid = len(self._words)
            self._words.append(word)
            self._index[word] = wid
            self._tuple = None
        return wid

    @property
    def get(self):
        """``get(word)``: the id of ``word``, or None when it is not interned.

        The index's own lookup, so loaders can bind it once per file.
        """
        return self._index.get

    def ids(self, words) -> np.ndarray:
        """The id of every word of the sequence ``words``, -1 for a word
        not interned."""
        return np.fromiter(map(self._index.get, words, repeat(-1)), np.int64, len(words))

    def word(self, wid: int) -> str:
        return self._words[wid]

    def __len__(self) -> int:
        return len(self._words)

    @property
    def words(self):
        """Every word in id order, as a tuple built once per vocabulary state."""
        if self._tuple is None:
            self._tuple = tuple(self._words)
        return self._tuple


class Bin:
    """One time slot of a confusion network: (word id, posterior) cells."""

    __slots__ = ("cells",)

    def __init__(self, cells):
        cells = tuple(sorted(cells, key=lambda c: (-c[1], c[0])))
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
    once.  ``networks`` gives the object form back, built on first use; the
    package itself reads only the arrays.
    """

    def __init__(self, cid: str, networks):
        networks = tuple(networks)
        bins = [b for net in networks for b in net.bins]
        self._fill(
            cid,
            tuple(net.uid for net in networks),
            _offsets([len(net.bins) for net in networks]),
            _offsets([len(b) for b in bins]),
            np.array([w for b in bins for w, _ in b.cells], dtype=np.int64),
            np.array([p for b in bins for _, p in b.cells], dtype=np.float64),
            0,
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


def _head(parts, line, no, header):
    """(id, bin count) of the CONV line, when not ``header``, or of a NET
    line (the CONV line counts 0 bins), or raise its error."""
    if not header:
        if len(parts) != 2 or parts[0] != "CONV":
            raise ParseError(f"expected 'CONV <id>', got {line!r}", no)
        return parts[1], 0
    if parts[0] != "NET" or len(parts) != 3:
        raise ParseError(f"expected 'NET <id> <bin-count>', got {line!r}", no)
    if COUNT.fullmatch(parts[2]) is None:
        raise ParseError(f"bad bin count {parts[2]!r}", no)
    nbins = int(parts[2])
    if nbins < 1:
        raise ValidationError(f"line {no}: utterance {parts[1]!r} declares {nbins} bins")
    return parts[1], nbins


def _misplaced(block, at, header, in_net):
    """The error of line ``at`` of ``block``: no BIN line of cells while its
    NET awaits one (``in_net``), or else a line ``_head`` rejects and raises."""
    text, no = block.lines()[at], block.line + at
    if in_net:
        return ParseError(f"expected 'BIN <word>:<posterior> ...', got {text!r}", no)
    _head(text.split(), text, no, header)


def _cell_error(cell, no):
    """The error of ``cell``, a cell of line ``no`` with no word and ':'
    before its posterior or with a bad posterior."""
    word, sep, token = cell.rpartition(":")
    if not sep or not word:
        return ParseError(f"bad cell {cell!r}", no)
    match = _POSTERIOR.fullmatch(token)
    if match is None:
        return ParseError(f"bad posterior {token!r}", no)
    if len(match.group(1) or "") > MAX_FRACTION_DIGITS:
        return ParseError(
            f"posterior {token!r} has more than {MAX_FRACTION_DIGITS} fraction digits", no
        )
    return ValidationError(f"line {no}: posterior {token} outside [0, 1]")


def _dots(buf, colon, end):
    """Where the '.' of each posterior [colon + 1, end) is, end for one
    without, from a scan of every '.' of ``buf``; and the cells with a
    second '.'."""
    dots = np.flatnonzero(buf == ord("."))
    owner = np.searchsorted(colon, dots) - 1
    inside = (owner >= 0) & (dots < end[owner])
    dots, owner = dots[inside], owner[inside]
    dot = end.copy()
    dot[owner] = dots
    return dot, owner[1:][np.diff(owner) == 0]


def _eight_digits(u64, at, count):
    """The numbers that the first ``count`` bytes (all 8 for 8 or more) of
    the little-endian words ``u64[at]`` spell as decimal digits, padded with
    zeros to 8 digits, and a mask that is nonzero where one of those bytes
    is no ASCII digit."""
    digits = u64[at] ^ _ZEROS  # a digit d reads d
    within = _FIRST[PAD + count]
    # bit 7 of a byte is set when it is 0x80 or more, or its low 7 bits
    # read 10 or more; no sum carries into the next byte
    bad = ((digits & _LOW7) + _TEN | digits) & within & _BIT7
    digits &= within
    # pairs of digits, then fours, then all eight: each lane of ``bits``
    # bits becomes ``scale`` times itself plus the next lane
    for bits, scale, lanes in ((8, 10, 0x00FF00FF00FF00FF), (16, 100, 0x0000FFFF0000FFFF),
                               (32, 10**4, 0xFFFFFFFF)):
        digits *= (scale << bits) + 1
        digits >>= bits
        digits &= lanes
    return digits.view(np.int64), bad


def _posteriors(buf, u64, colon, end):
    """The values of the posteriors [colon + 1, end), of one byte or more,
    of a block's cells (``buf`` as uint8 and as its ``unaligned_u64``), and
    whether each is digits, then optionally '.' and 1 to MAX_FRACTION_DIGITS
    digits, and at most 1.

    With its fraction padded with zeros to MAX_FRACTION_DIGITS digits, a
    posterior is n / 10**MAX_FRACTION_DIGITS for an integer n <= 10**9 <
    2**53.  Both are exact doubles, so their IEEE quotient is the double
    nearest the decimal: bitwise what float() returns.  The first 8
    fraction digits are read as one word (``_eight_digits``), the 9th and
    the last whole digit alone.
    """
    rejected = []  # cells a check before the value rejects
    # the '.', at end when there is none, is nearly always right after one
    # digit; when a posterior of two bytes or more has none there, look for it
    dot = np.where(buf[colon + 2] == ord("."), colon + 2, end)
    if ((dot == end) & (end - colon > 2)).any():
        dot, again = _dots(buf, colon, end)
        rejected.append(again)
    frac = end - dot - 1  # -1 without a '.'
    if (frac == 0).any() or (frac > MAX_FRACTION_DIGITS).any():
        rejected.append((frac == 0) | (frac > MAX_FRACTION_DIGITS))
        frac = np.minimum(frac, MAX_FRACTION_DIGITS)
    # a whole part of several digits is zeros and then its last digit, or above 1
    long = np.flatnonzero(dot - colon > 2)
    if long.size:
        nonzero = buf[ragged(colon[long] + 1, dot[long] - 1)] != ord("0")
        rejected.append(np.repeat(long, dot[long] - colon[long] - 2)[nonzero])
    num, bad = _eight_digits(u64, dot + 1, frac)
    if bad.any():
        rejected.append(bad != 0)
    ninth = buf[dot + MAX_FRACTION_DIGITS] - ord("0")
    ninth *= frac == MAX_FRACTION_DIGITS
    if (ninth > 9).any():
        rejected.append(ninth > 9)
    num *= 10
    num += ninth
    # a last whole digit that is no digit (the ':' when there is none) reads
    # as 10 or more, so the posterior reads as above 1, as one rejected does
    num += (buf[dot - 1] - ord("0")) * np.int64(10**MAX_FRACTION_DIGITS)
    for cells in rejected:
        num[cells] = 10**MAX_FRACTION_DIGITS + 1
    return num / float(10**MAX_FRACTION_DIGITS), num <= 10**MAX_FRACTION_DIGITS


def _read_block(block, heads, left, vocab: Vocabulary, closed: bool, unk):
    """Read ``block`` in bulk: (left, (widths, words, posts, outside words)
    of its BIN lines) as they stand after it, or raise the error of its
    first line that breaks a rule of the format.

    ``heads`` holds the (id, bin count) of the CONV line and of each NET
    line read so far, and grows by the block's; ``left`` is how many BIN
    lines the last NET line still awaits.  Only the lines whose first token
    is not "BIN" are decoded, and walked in Python with ``_head``.  Each
    distinct word is looked up in ``vocab`` once; in open mode the words it
    lacks are interned in the order they first occur.  The cells are
    sorted only when some bin is not in canonical order.

    The rules run in the order a reader of one line meets them: the line's
    kind; each cell in turn, its last ':' and then its posterior; the bin
    in canonical order, a word met twice or a zero, then its sum.  Each
    runs on the whole block, and only when it fails is the first line it
    rejects found; the later rules run on the lines before that one.
    """
    starts, ends, buf = block.starts, block.ends, block.buf
    # line i holds tokens bound[i] to bound[i + 1]; a break is whitespace
    bound = np.searchsorted(starts, np.r_[0, block.breaks[: block.size - 1], buf.size])
    count = np.diff(bound)
    lines = np.flatnonzero(count)
    tag = starts[bound[lines]]
    # a BIN line of cells: the lone token "BIN" is a line of the wrong kind
    is_bin = (count[lines] > 1) & (ends[bound[lines]] - tag == 3) & (
        (block.u64[tag] & _TAG) == _BIN)
    other = np.flatnonzero(~is_bin)
    lo, hi = bound[lines[other]], bound[lines[other] + 1]
    error = None  # makes the error of the first bad line found so far
    done = 0  # the nonblank lines walked
    for o, a, b in zip(other.tolist(), starts[lo].tolist(), ends[hi - 1].tolist()):
        if o - done != left:
            break
        line = block.data[a:b].decode("utf-8")
        try:
            heads.append(_head(line.split(), line, None, bool(heads)))
        except InputError:
            break
        left, done = heads[-1][1], o + 1
    else:
        o = lines.size
    # the first nonblank line of the wrong kind or that _head rejects
    wrong = min(o, done + left)
    if wrong < lines.size:
        error = partial(_misplaced, block, int(lines[wrong]), bool(heads), wrong < done + left)
    left -= lines.size - done
    bins = lines[:wrong][is_bin[:wrong]]
    width = count[bins] - 1
    stop = bound[bins[-1] + 1] if bins.size else 0
    cell = np.ones(starts.size, dtype=bool)
    cell[bound[lines]] = False
    cell[ragged(lo, hi)] = False
    cs, ce = starts[:stop][cell[:stop]], ends[:stop][cell[:stop]]
    bad = cs.size  # the first bad cell
    colon = np.flatnonzero(buf == ord(":"))
    # the i-th ':' inside cell i, with bytes on either side
    if colon.size != cs.size or not ((cs < colon) & (colon + 1 < ce)).all():
        # some word or id holds ':' or some cell none: each cell's last ':' (or -1)
        colon = np.r_[-1, colon][np.searchsorted(colon, ce)]
        good = (cs < colon) & (colon + 1 < ce)
        if not good.all():
            bad = int(np.argmin(good))
    # every read past a cell's end ends within 10 bytes of it, inside the
    # padding at the block's end
    posts, ok = _posteriors(buf, block.u64, colon[:bad], ce[:bad])
    if not ok.all():
        bad = int(np.argmin(ok))
    if bad < cs.size:  # keep the bins before the bad cell's line
        ptr = _offsets(width)
        nb = int(np.searchsorted(ptr, bad, side="right")) - 1
        cell_text = block.data[cs[bad] : ce[bad]].decode("utf-8")
        error = partial(_cell_error, cell_text, block.line + int(bins[nb]))
        bins, width, n = bins[:nb], width[:nb], ptr[nb]
        cs, colon, posts = cs[:n], colon[:n], posts[:n]
    nb = width.size
    word, first = WordKeys(buf, block.u64, cs, colon - cs).distinct()
    names = [
        block.data[a:b].decode("utf-8")
        for a, b in zip(cs[first].tolist(), colon[first].tolist())
    ]
    known = vocab.ids(names)
    if not closed:
        for d in np.flatnonzero(known < 0).tolist():
            known[d] = vocab.add(names[d])
    ids = known[word]
    bin_of = np.repeat(np.arange(nb), width)
    outside = np.flatnonzero(ids < 0)
    if outside.size:
        keep = np.ones(ids.size, dtype=bool)
        if unk is None:
            keep[outside] = False
        else:
            ids[outside] = unk
            # cells at unk in a bin with an outside word merge into the first,
            # summed in file order
            hit = np.zeros(nb, dtype=bool)
            hit[bin_of[outside]] = True
            at = np.flatnonzero((ids == unk) & hit[bin_of])
            b = bin_of[at]
            head = np.concatenate([[True], b[1:] != b[:-1]])
            total = np.bincount(b, weights=posts[at])
            posts[at[head]] = np.minimum(total[b[head]], 1.0)
            keep[at[~head]] = False
        ids, posts, bin_of = ids[keep], posts[keep], bin_of[keep]
        width = np.bincount(bin_of, minlength=nb)
    later = posts[1:]
    unsorted = (bin_of[1:] == bin_of[:-1]) & (
        (posts[:-1] < later) | ((posts[:-1] == later) & (ids[:-1] > ids[1:]))
    )
    if unsorted.any():
        order = np.lexsort((ids, -posts, bin_of))
        ids, posts = ids[order], posts[order]
    key = bin_of * len(vocab) + ids
    ordered = np.sort(key)
    # bincount adds each bin's posteriors in canonical order, as Bin does
    total = np.bincount(bin_of, weights=posts, minlength=nb)
    if (ordered[1:] == ordered[:-1]).any() or not (posts > 0.0).all() or (
            total > 1.0 + POSTERIOR_SUM_SLACK).any():
        _bad_bin(block.line + bins, key, ids, posts, bin_of, total)
    if error is not None:
        raise error()
    return left, (width, ids, posts, outside.size)


def _bad_bin(line, key, ids, posts, bin_of, total):
    """Raise the error of the first bad bin, ``line`` holding the line of
    each bin and ``key`` the (bin, word) key of each cell, in canonical
    order: its first cell whose word came before or whose posterior is 0,
    else its sum above 1."""
    order = np.argsort(key, kind="stable")
    again = np.zeros(key.size, dtype=bool)
    again[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    bad = np.flatnonzero(again | ~(posts > 0.0))
    over = np.flatnonzero(total > 1.0 + POSTERIOR_SUM_SLACK)
    b = min(bin_of[bad[:1]].tolist() + over[:1].tolist())
    no, i = int(line[b]), bad[0] if bad.size else None
    if i is not None and bin_of[i] == b:
        if again[i]:
            raise ValidationError(f"line {no}: duplicate word id {int(ids[i])} in bin")
        raise ValidationError(f"line {no}: posterior {float(posts[i])!r} outside (0, 1]")
    raise ValidationError(f"line {no}: bin posteriors sum to {float(total[b])!r} > 1")


def parse_conversation(text: str, vocab: Vocabulary, closed: bool = False) -> Conversation:
    """Parse one conversation from its CNET text.

    Unknown words are interned into ``vocab``, unless ``closed``: then
    ``vocab`` is left as it is, a cell whose word it lacks maps to UNK_WORD
    when it has that (posteriors of cells meeting there are summed) and is
    dropped otherwise, and a bin or utterance left empty is dropped too.
    Raises ParseError/ValidationError with line numbers.

    The text is read as its UTF-8 bytes by the reader of a CNET file, so a
    line ends at "\\n", "\\r\\n" or "\\r" in both.  It reads a block of whole
    lines at a time, in bulk, and raises the error of the first bad line in
    the file.  The text is encoded a slice at a time, as the blocks need it.
    """
    return _read(blocks(_Encoded(text)), vocab, closed)


class _Encoded:
    """``text`` as a file of its UTF-8 bytes, encoded a slice at a time."""

    def __init__(self, text: str):
        self.text, self.at = text, 0

    def read(self, size: int) -> bytes:
        """The bytes of the next ``size`` characters."""
        piece = self.text[self.at : self.at + size]
        self.at += size
        return piece.encode("utf-8")


def _read(file_blocks, vocab: Vocabulary, closed: bool) -> Conversation:
    """The conversation whose CNET lines ``file_blocks`` (``modelfile.Block``s
    from line 1) hold."""
    unk = vocab.get(UNK_WORD) if closed else None
    heads, left, parts = [], 0, []
    for block in file_blocks:
        left, bins = _read_block(block, heads, left, vocab, closed, unk)
        parts.append(bins)
    if not heads:
        raise ParseError("empty input", 1)
    (cid, _), *nets = heads
    if left:
        raise ParseError(f"unexpected end of input inside NET {nets[-1][0]!r}")
    if not nets:
        raise ParseError("conversation has no utterances", 1)
    uids, nbins = zip(*nets)
    width, words, posts, oov = zip(*parts)
    width, oov = np.concatenate(width), sum(oov)
    kept = width > 0
    per_utt = np.bincount(np.repeat(np.arange(len(uids)), nbins)[kept], minlength=len(uids))
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
    """Parse the CNET file ``path``, as ``parse_conversation`` parses its
    text; a block that is not UTF-8 raises ``utf8_error`` as it is read."""
    with open(path, "rb") as fh:
        try:
            return _read(blocks(fh), vocab, closed)
        except UnicodeDecodeError:
            raise utf8_error(path) from None


def save_conversation(conv: Conversation, vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_conversation(conv, vocab))

"""Block reading of the line-oriented files, as bytes.

A CNET, the topic model, the channel file and the unigram are read as
bytes, BLOCK_BYTES at a time, in ``Block``s of whole lines, so no reader
holds the whole file.  In every file cnadapt reads, a line ends at "\n",
"\r\n" or "\r", the breaks text mode turns into "\n"; the other breaks
are whitespace inside a line.  The model files hold a header line, then
one record of a fixed number of whitespace-separated fields per line:
``read_blocks`` counts the lines and checks that the file is UTF-8 in one
pass, then hands the lines after the header over in blocks, and a
``Table`` reads each block as its fields and numbers and finds the first
line whose field count or number is bad.  A CNET is read by ``blocks``
from line 1, in one pass: each block is checked as it is made.

A block is cut into tokens with numpy: no Python object is made per
token.  Words are compared as byte keys (``WordKeys``), so only the words
a loader keeps are decoded.  Numbers are read by ``Block.floats``: the
tokens' bytes are hashed in one pass, numpy casts one token of each
distinct number from bytes to float64, bitwise as ``float()`` reads it,
and the other tokens take its value; a block the cast cannot take goes
through ``float()`` itself.  The same hash pass (``_same_words``, where
the first token of a slot holds it) numbers a CNET block's distinct
words (``WordKeys.distinct``), matching the words that share a slot
exactly.

``read_text`` reads a whole text file of any kind, and ``utf8_error``
reports one that does not decode as UTF-8.  ``write_lines`` writes the
model files and the adapted unigram WRITE_LINES lines at a time, so no
writer holds a string for every line.
"""

from __future__ import annotations

import codecs
import re
from functools import partial

import numpy as np

from .errors import ParseError, ValidationError

# bytes read at a time; a block holds the whole lines they complete
BLOCK_BYTES = 1 << 18
# lines formatted and written at a time
WRITE_LINES = 1 << 11
_BREAK = re.compile(rb"\r\n?|\n")
# a header count: an optional "-" (a negative count has its own message) and
# ASCII digits; int() and \d also take other scripts' digits, and int() "+" and "_"
COUNT = re.compile(r"-?[0-9]+")
# Whitespace outside ASCII, which ``Block`` folds to b" ".
_WIDE_SPACE = re.compile(r"[^\S\x00-\x7f]")
# spaces around a tokenized buffer, so every fixed-width read near a token
# stays inside it
PAD = 32
_PAD = b" " * PAD
# _HIGH[s]: a little-endian uint64 with 0xFF, which no UTF-8 text holds, in
# every byte from the s-th on
_HIGH = np.array([(2**64 - 1) >> (8 * s) << (8 * s) for s in range(8)] + [0], dtype="<u8")
# _FIRST[PAD + k]: a little-endian uint64 mask of its first k bytes: none for
# k <= 0, all for k >= 8
_FIRST = np.array([~_HIGH[min(max(k, 0), 8)] for k in range(-PAD, PAD + 1)], dtype="<u8")
# odd multipliers that mix a number token's words into its hash
_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                 0xD6E8FEB86659FD93], dtype=np.uint64)


def read_text(path) -> str:
    """The whole text of the UTF-8 file ``path``, read with universal
    newlines; raises ``utf8_error(path)`` when it does not decode."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise utf8_error(path) from None


def utf8_error(path) -> ParseError:
    """The error for a text file that is not valid UTF-8: the line and the
    value of its first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(_BREAK.split(raw[: exc.start]))
        return ParseError(
            f"not valid UTF-8: {exc.reason} (byte 0x{raw[exc.start]:02x})", lineno
        )
    return ParseError("not valid UTF-8")  # the file changed since it failed to decode


def write_lines(fh, fmt: str, *columns) -> None:
    """Write the line ``fmt.format(*row)`` for each row of ``columns``,
    sequences of one length, to the text file ``fh``, WRITE_LINES rows at a
    time; a numpy column is read as Python numbers, a slice at a time."""
    for lo in range(0, len(columns[0]), WRITE_LINES):
        part = [c[lo : lo + WRITE_LINES] for c in columns]
        part = [c.tolist() if isinstance(c, np.ndarray) else c for c in part]
        fh.write("".join(map(fmt.format, *part)))


def read_blocks(fh):
    """Return (line count, first line, blocks of the remaining lines) of ``fh``.

    ``fh`` is a file opened for reading bytes; raises ``utf8_error`` when it
    is not UTF-8.  The blocks are ``Block``s, which must be consumed while
    ``fh`` is open.
    """
    count, cr, last = 0, False, b"\n"
    decoder, ascii = codecs.getincrementaldecoder("utf-8")(), True
    try:
        for data in iter(partial(fh.read, BLOCK_BYTES), b""):
            count += data.count(b"\n")
            if b"\r" in data:
                count += data.count(b"\r") - data.count(b"\r\n")
            count -= cr and data[0] == 10  # "\r\n" split between two reads
            cr, last = data[-1] == 13, data[-1:]
            # every read from the first one outside ASCII on is decoded
            ascii = ascii and data.isascii()
            if not ascii:
                decoder.decode(data)
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        raise utf8_error(fh.name) from None
    count += last not in b"\r\n"
    fh.seek(0)
    first = next(_whole_lines(fh), b"")
    end = _BREAK.search(first)
    header = first[: end.start() if end else None].decode("utf-8")
    fh.seek(end.end() if end else len(first))
    return count, header, blocks(fh, 2)


def blocks(fh, line=1):
    """The ``Block``s of the lines of ``fh``, a file opened for reading
    bytes, from where it stands; the first is numbered ``line``.  A block
    that is not UTF-8 raises UnicodeDecodeError as it is made."""
    for raw in _whole_lines(fh):
        block = Block(raw, line)
        line += block.size
        yield block


def _whole_lines(fh):
    """The bytes of ``fh`` in pieces of whole lines, BLOCK_BYTES or more at a
    time (a longer line is a piece of its own)."""
    parts = []
    for data in iter(partial(fh.read, BLOCK_BYTES), b""):
        # a '\r' that ends the read may be the start of "\r\n"
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if not cut:
            parts.append(data)
            continue
        parts.append(data[:cut])
        yield b"".join(parts)
        parts = [data[cut:]]
    if any(parts):
        yield b"".join(parts)


def ragged(lo, hi) -> np.ndarray:
    """The positions of every span [lo[i], hi[i]), one after another."""
    size = hi - lo
    return np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size)


def unaligned_u64(data: bytes) -> np.ndarray:
    """``u64[i]``: the little-endian uint64 of bytes i to i + 8 of ``data``."""
    return np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))


class WordKeys:
    """Words as byte keys: the UTF-8 bytes of a word of ``size`` bytes,
    padded with 0xFF to (size + 7) // 8 little-endian uint64 blocks.

    Words of b blocks are held together in ``groups[b] = (cells, keys)``:
    as uint64 for one block, as bytes of 8 * b for more, and ``cells`` their
    word numbers (None for every word).  Two words are equal when their
    keys are, and words of different widths differ, so a long word widens
    no other.
    """

    def __init__(self, buf, u64, start, size):
        self.size = size
        if not size.size or size.max() <= 8:
            self.groups, self.slot = {1: (None, u64[start] | _HIGH[size])}, None
            return
        blocks = (size + 7) // 8
        self.groups, self.slot = {}, np.empty(size.size, dtype=np.int64)
        for b in np.flatnonzero(np.bincount(blocks)).tolist():
            cells = np.flatnonzero(blocks == b)
            if b == 1:
                keys = u64[start[cells]] | _HIGH[size[cells]]
            else:
                rows = np.lib.stride_tricks.sliding_window_view(buf, 8 * b)[start[cells]]
                keys = rows.view("<u8") | _HIGH[np.clip(size[cells, None] - 8 * np.arange(b), 0, 8)]
                keys = keys.view(f"S{8 * b}").ravel()
            self.slot[cells] = np.arange(cells.size)
            self.groups[b] = cells, keys

    @classmethod
    def of_words(cls, words):
        """The keys of the strings ``words``."""
        text = " ".join(words)
        data = b"".join((_PAD, text.encode("utf-8", "surrogatepass"), _PAD))
        if text.isascii():
            size = np.fromiter(map(len, words), np.int64, len(words))
        else:
            size = np.fromiter((len(w.encode("utf-8", "surrogatepass")) for w in words),
                               np.int64, len(words))
        start = PAD + np.cumsum(size + 1) - size - 1
        return cls(np.frombuffer(data, dtype=np.uint8), unaligned_u64(data), start, size)

    def distinct(self):
        """Number the distinct words in the order they first occur: (word,
        first), where word i is distinct word ``word[i]``, first seen as
        word ``first[d]``.  Each width's keys are hashed once
        (``_same_words``), and words of different widths differ; the words
        whose hash slot another word holds are matched in a stable sort."""
        same = np.empty(self.size.size, dtype=np.int64)
        for b, (cells, keys) in self.groups.items():
            got, hit = _same_words(list(keys.view("<u8").reshape(-1, b).T))
            if hit.size:  # words whose slot another word holds, matched exactly
                hit = hit[keys[hit].argsort(kind="stable")]
                new = np.ones(hit.size, dtype=bool)
                new[1:] = keys[hit[1:]] != keys[hit[:-1]]
                got[hit] = hit[new][np.cumsum(new) - 1]
            if cells is None:
                same = got
            else:
                same[cells] = cells[got]
        first = same == np.arange(same.size)
        return (np.cumsum(first) - 1)[same], np.flatnonzero(first)

    def index(self):
        """These words sorted, for ``find``: (sorted keys, word) per width."""
        found = {}
        for b, (cells, keys) in self.groups.items():
            if keys.size:
                order = keys.argsort(kind="stable")
                found[b] = keys[order], order if cells is None else cells[order]
        return found

    def find(self, index) -> np.ndarray:
        """Which word of ``index`` (from ``index()``) each of these words
        is, -1 for one it lacks; each distinct word is looked up once."""
        ids = np.full(self.size.size, -1, dtype=np.int64)
        for b, (cells, keys) in self.groups.items():
            if b in index:
                order = keys.argsort()
                keys = keys[order]
                new = np.empty(keys.size, dtype=bool)
                new[:1] = True
                np.not_equal(keys[1:], keys[:-1], out=new[1:])
                known, word = index[b]
                distinct = keys[new]
                pos = np.minimum(np.searchsorted(known, distinct), known.size - 1)
                found = np.where(known[pos] == distinct, word[pos], -1)
                ids[order if cells is None else cells[order]] = found[np.cumsum(new) - 1]
        return ids

    def equal(self, other, at) -> np.ndarray:
        """Whether each of these words equals word ``at[i]`` of ``other``."""
        same = self.size == other.size[at]
        for b, (cells, keys) in self.groups.items():
            if b in other.groups:  # else no word of ``other`` is as wide
                cells = slice(None) if cells is None else cells
                want = at[cells] if other.slot is None else other.slot[at[cells]]
                # a word of another width picks some key of this one: its size differs
                same[cells] &= keys == other.groups[b][1].take(want, mode="clip")
        return same


class Block:
    """Whole lines of a file, cut into tokens as str.split() cuts its text.

    ``line`` is the file line of its first line and ``size`` its number of
    lines.  ``raw`` must be UTF-8 (else UnicodeDecodeError); ``data`` and
    ``buf`` are ``raw`` with whitespace outside ASCII folded to b" " and PAD
    spaces on either side, as bytes and as uint8;
    token i spans ``starts[i]`` to ``ends[i]`` in it, and ``breaks`` are
    where its lines end.  Tokens are the runs between ASCII whitespace
    bytes; no byte of a multi-byte UTF-8 character is ASCII, so words
    outside ASCII need no special case.
    """

    def __init__(self, raw: bytes, line: int):
        self.raw, self.line = raw, line
        if not raw.isascii():
            raw = _WIDE_SPACE.sub(" ", raw.decode("utf-8")).encode("utf-8")
        self.data = b"".join((_PAD, raw, _PAD))
        self.buf = buf = np.frombuffer(self.data, dtype=np.uint8)
        self.u64 = unaligned_u64(self.data)
        # ASCII whitespace as str.split() sees it: 9-13, 28-31, 32
        solid = np.zeros(buf.size + 1, dtype=bool)
        space = solid[1:]
        byte = buf - 9
        np.less_equal(byte, 13 - 9, out=space)
        np.subtract(buf, 28, out=byte)
        space |= byte <= 31 - 28
        space |= buf == 32
        np.logical_not(space, out=space)
        edges = np.flatnonzero(solid[1:] != solid[:-1])
        self.starts, self.ends = edges[0::2], edges[1::2]
        ends = buf == 10
        if b"\r" in raw:
            cr = buf == 13
            ends[1:] &= ~cr[:-1]  # the '\n' of "\r\n" ends no second line
            ends |= cr
        self.breaks = np.flatnonzero(ends)
        self.size = self.breaks.size + (raw[-1:] not in (b"\n", b"\r"))

    def fields(self, k: int) -> bool:
        """Whether every line holds ``k`` fields: then field j of line i is
        token ``k * i + j``."""
        n = self.size
        if self.starts.size != k * n:
            return False
        # each break between two lines falls between their tokens
        between = self.breaks[: n - 1]
        return bool(
            (self.ends[k - 1 : k * (n - 1) : k] <= between).all()
            and (self.starts[k::k] > between).all()
        )

    def lines(self):
        """The text of each line, for naming a bad one."""
        lines = _BREAK.split(self.raw)[: self.size]
        return [line.decode("utf-8") for line in lines]

    def words(self, tokens) -> WordKeys:
        start = self.starts[tokens]
        return WordKeys(self.buf, self.u64, start, self.ends[tokens] - start)

    def text(self, tokens):
        """The tokens as strings."""
        start, end = self.starts[tokens], self.ends[tokens]
        # each token and the whitespace byte after it, which becomes "\n"
        joined = self.buf[ragged(start, end + 1)]
        joined[np.cumsum(end + 1 - start) - 1] = 10
        return joined.tobytes().decode("utf-8", "surrogatepass").split("\n")[:-1]

    def floats(self, tokens):
        """The numbers the tokens spell as ``float()`` reads them, or None
        when some token is no number.

        Each distinct token is cast once.  A token is read as NUL-padded
        little-endian uint64 words, one per 8 of its bytes, and a token
        equal to the one that holds its hash slot takes that token's
        number (``_same_words``).  The rest, viewed as bytes, go through
        numpy's bytes-to-float64 cast, which reads bytes as ``float()``
        reads a str, so every number is exact whatever the hash.  A block
        with a NUL byte (which ``float()`` rejects but the padded cast
        would drop), a token wider than PAD (whose words would pass the
        padding) and a block the cast rejects (such as one with digits
        outside ASCII, which only a str reads) go through ``float()``.
        """
        s = self.starts[tokens]
        size = self.ends[tokens] - s
        width = int(size.max(initial=1))
        if width <= PAD and b"\0" not in self.raw:
            words = [self.u64[s + j] & _FIRST[PAD - j :][size] for j in range(0, width, 8)]
            same, _ = _same_words(words)
            cast = np.flatnonzero(same == np.arange(same.size))
            rows = np.stack([w[cast] for w in words], axis=1)
            got = _cast(rows.view(f"S{8 * len(words)}").ravel())
            if got is not None:
                out = np.empty(same.size)
                out[cast] = got
                return out[same]
        try:
            return np.array(self.text(tokens), dtype=np.float64)
        except ValueError:
            return None


class Table:
    """A block read as lines of ``k`` fields, the last a number on each
    line that ``record`` (a boolean per line) picks, or on every line.

    ``n`` counts the lines before the first with another number of fields;
    field j of line i < n is token k * i + j.  ``records`` are the picked
    lines below n, ``numbers`` their last fields as ``float()`` reads them,
    NaN for one that is no number, and ``shape(i)`` the form of line i.
    A format notes what its own rules reject with ``reject``; ``check``,
    the one line walker of the model files, adds the first line whose
    number or field count is bad and raises the first line's error.  On
    one line, the rule noted first wins.
    """

    def __init__(self, block, k: int, shape, record=None):
        self.block, self.line, self.k, self.shape = block, block.line, k, shape
        self.bad = None
        n = block.size
        if not block.fields(k):
            # each line's field count: its tokens, each after the breaks before it
            count = np.bincount(np.searchsorted(block.breaks, block.starts), minlength=n)
            n = int(np.flatnonzero(count != k)[0])
        self.n = n
        self.records = np.arange(n) if record is None else np.flatnonzero(record[:n])
        tokens = k * self.records + k - 1
        numbers = block.floats(tokens)
        if numbers is None:  # None, for a token that is no number, becomes NaN
            numbers = np.array([_number(t) for t in block.text(tokens)], dtype=np.float64)
        self.numbers = numbers

    def field(self, i: int, j: int = -1) -> str:
        """The text of field j (the number by default) of line i < n."""
        return self.block.text([self.k * i + j % self.k])[0]

    def expected(self, i: int) -> ParseError:
        """The error of line i for not having its form."""
        return ParseError(f"expected '{self.shape(i)}', got {self.block.lines()[i]!r}",
                          self.line + i)

    def reject(self, lines, error) -> None:
        """Note the first of ``lines``, ascending lines of the block, as
        rejected; ``error(i)`` makes the error of line i."""
        if len(lines) and (self.bad is None or lines[0] < self.bad[0]):
            self.bad = int(lines[0]), error

    def check(self) -> None:
        """Raise the error of the first line rejected, if any."""
        self.reject(self.records[np.isnan(self.numbers)], self._bad_number)
        if self.n < self.block.size:
            self.reject([self.n], self.expected)
        if self.bad:
            i, error = self.bad
            raise error(i)

    def _bad_number(self, i: int):
        token, no = self.field(i), self.line + i
        if _number(token) is None:
            return ParseError(f"bad probability {token!r}", no)
        return ValidationError(f"line {no}: probability {token} is not a number")


def _number(token: str):
    """``float(token)``, or None when ``token`` is no number."""
    try:
        return float(token)
    except ValueError:
        return None


def _same_words(words):
    """``same[i]``: a token whose ``words`` (arrays of uint64, one entry per
    token) all equal token i's, with ``same[same[i]] == same[i]``; and
    ``hit``, the tokens whose slot a token with other words holds, each of
    which stands for itself.  Each token is hashed once (its first four
    words), and the first token of a slot holds it, so every other token
    stands for the first token with its words."""
    n = words[0].size
    mixed = np.zeros(n, dtype=np.uint64)
    for w, mix in zip(words, _MIX):
        mixed ^= w * mix
    # its top bit_length(n) + 1 bits pick a slot: 2 to 4 slots per token
    mixed >>= 63 - n.bit_length()
    slot = mixed.view(np.int64)
    table = np.empty(2 << n.bit_length(), dtype=np.int64)
    table[slot[::-1]] = np.arange(n - 1, -1, -1)  # the first token writes last
    same = table[slot]
    del mixed, slot, table  # the largest scratch, freed before the next pass
    differ = np.zeros(n, dtype=bool)
    for w in words:
        differ |= w[same] != w
    hit = np.flatnonzero(differ)
    same[hit] = hit
    return same, hit


def _cast(strings):
    """The numpy bytes ``strings`` as float64, as ``float()`` reads them, or
    None when one is no number; a number past the float range reads as
    inf, as ``float()`` reads it."""
    try:
        with np.errstate(over="ignore"):
            return strings.astype(np.float64)
    except ValueError:
        return None

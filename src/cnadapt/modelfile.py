"""Block reading of the line-oriented files, as bytes.

The topic model and the channel files hold a header line, then one record
of a fixed number of whitespace-separated fields per line.  ``read_blocks``
counts the lines and checks that the file is UTF-8 in one pass, then reads
it again BLOCK_BYTES at a time and hands the lines after the header over in
``Block``s of whole lines, so no loader holds the whole file.  In every file
cnadapt reads, a line ends at "\n", "\r\n" or "\r", the breaks text mode
turns into "\n"; the other breaks are whitespace inside a line.

A block is cut into tokens with numpy (``tokenize``, which the CNET reader
shares): no Python object is made per token.  Words are compared as byte
keys (``WordKeys``), so only the words a loader keeps are decoded.
Numbers are read by ``Block.floats``: a token of digits with an optional
'.' and exponent, whose digits form an integer M < 2**53 scaled by a power
of ten of at most 22, is read eight digits per uint64 and scaled with one
IEEE multiply or divide.  M and the power are exact doubles, so the result
is the double nearest the decimal: bitwise what ``float()`` returns
(Clinger's exact case).  Every other token, such as a 17-digit ``repr``,
a sign or "nan", goes through ``float()``.

``read_text`` reads a whole text file of any kind, and ``utf8_error``
reports one that does not decode as UTF-8.
"""

from __future__ import annotations

import codecs
import re
from functools import partial
from itertools import chain

import numpy as np

from .errors import ParseError

# bytes read at a time; a block holds the whole lines they complete
BLOCK_BYTES = 1 << 18
_UNIVERSAL_BREAK = re.compile(r"\r\n?|\n")
_BREAK = re.compile(rb"\r\n?|\n")
# a header count: an optional "-" (a negative count has its own message) and
# ASCII digits; int() and \d also take other scripts' digits, and int() "+" and "_"
COUNT = re.compile(r"-?[0-9]+")
# Whitespace outside ASCII, which ``tokenize`` folds to b" ".
_WIDE_SPACE = re.compile(r"[^\S\x00-\x7f]")
# spaces around a tokenized buffer, so every fixed-width read near a token
# stays inside it
PAD = 32
_PAD = b" " * PAD
# _HIGH[s]: a little-endian uint64 with 0xFF, which no UTF-8 text holds, in
# every byte from the s-th on
_HIGH = np.array([(2**64 - 1) >> (8 * s) << (8 * s) for s in range(8)] + [0], dtype="<u8")
# the number reader's constants: _ONES * c holds c in every byte
_ONES = np.uint64(0x0101010101010101)
_TOPS = np.uint64(0x8080808080808080)
_LOW7 = ~_TOPS
_ZEROS = _ONES * np.uint64(ord("0"))
_DOTS = _ONES * np.uint64(ord("."))
_CASE = _ONES * np.uint64(0x20)  # 'E' | 0x20 is 'e'
_ES = _ONES * np.uint64(ord("e"))
_OVER_9 = _ONES * np.uint64(0x76)  # (byte & 0x7F) + 0x76 sets the top bit of a byte above 9
_PAIRS = np.uint64(0x000000FF000000FF)
_MUL_LOW = np.uint64(100 + (1000000 << 32))
_MUL_HIGH = np.uint64(1 + (10000 << 32))
_1, _7, _8, _10, _16, _32, _56, _64 = map(np.uint64, (1, 7, 8, 10, 16, 32, 56, 64))
_1E8, _2P53 = np.uint64(10**8), np.uint64(2**53)
_POW10_INT = 10 ** np.arange(20, dtype=np.uint64)
_POW10 = 10.0 ** np.arange(23)  # each exact


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
        lineno = len(_UNIVERSAL_BREAK.split(raw[: exc.start].decode("utf-8")))
        return ParseError(
            f"not valid UTF-8: {exc.reason} (byte 0x{raw[exc.start]:02x})", lineno
        )
    return ParseError("not valid UTF-8")  # the file changed since it failed to decode


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
            count += np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == 10)
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
    pieces = _whole_lines(fh)
    first = next(pieces, b"")
    end = _BREAK.search(first)
    header = first[: end.start() if end else None].decode("utf-8")
    rest = first[end.end() :] if end else b""

    def blocks():
        line = 2
        for raw in chain((rest,) if rest else (), pieces):
            block = Block(raw, line)
            line += block.size
            yield block

    return count, header, blocks()


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


def tokenize(raw: bytes):
    """Cut UTF-8 ``raw`` into tokens as str.split() cuts its text.

    Returns (data, buf, starts, ends): ``raw`` with whitespace outside
    ASCII folded to b" " and PAD spaces on either side, as bytes and as
    uint8, and where each token starts and ends in it.  Tokens are the runs
    between ASCII whitespace bytes; no byte of a multi-byte UTF-8 character
    is ASCII, so words outside ASCII need no special case.
    """
    if not raw.isascii():
        raw = _WIDE_SPACE.sub(" ", raw.decode("utf-8", "surrogatepass")).encode(
            "utf-8", "surrogatepass"
        )
    data = b"".join((_PAD, raw, _PAD))
    buf = np.frombuffer(data, dtype=np.uint8)
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
    return data, buf, edges[0::2], edges[1::2]


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

    def _runs(self):
        """Per group: (b, cells, the group's words in key order, where a new
        key starts in that order, the distinct keys)."""
        for b, (cells, keys) in self.groups.items():
            order = keys.argsort()
            keys = keys[order]
            new = np.empty(keys.size, dtype=bool)
            new[:1] = True
            np.not_equal(keys[1:], keys[:-1], out=new[1:])
            yield b, cells, order, new, keys[new]

    def distinct(self):
        """Number the distinct words: (word, first), where word i is
        distinct word ``word[i]``, first seen as word ``first[d]``."""
        word = np.empty(self.size.size, dtype=np.int64)
        firsts = [np.zeros(0, dtype=np.int64)]
        for _, cells, order, new, _ in self._runs():
            first = np.minimum.reduceat(order, np.flatnonzero(new)) if order.size else order
            if cells is not None:
                order, first = cells[order], cells[first]
            word[order] = np.cumsum(new) - 1 + sum(map(len, firsts))
            firsts.append(first)
        return word, np.concatenate(firsts)

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
        for b, cells, order, new, distinct in self._runs():
            if b in index:
                known, word = index[b]
                pos = np.minimum(np.searchsorted(known, distinct), known.size - 1)
                found = np.where(known[pos] == distinct, word[pos], -1)
                ids[order if cells is None else cells[order]] = found[np.cumsum(new) - 1]
        return ids

    def equal(self, other, at) -> bool:
        """Whether each of these words equals word ``at[i]`` of ``other``."""
        if not np.array_equal(self.size, other.size[at]):
            return False
        for b, (cells, keys) in self.groups.items():
            want = at if cells is None else at[cells]
            if other.slot is not None:
                want = other.slot[want]
            if not np.array_equal(keys, other.groups[b][1][want]):
                return False
        return True


def _zeros(y):
    """The top bit of the lowest zero byte of each uint64 of ``y`` (and maybe
    of higher bytes), 0 when no byte is zero."""
    return (y - _ONES) & ~y & _TOPS


def _first(flags):
    """The index of the lowest byte of each uint64 of ``flags`` with its top
    bit set, 8 when there is none."""
    below = ((flags - _1) & ~flags) >> _7  # 0xFF in each byte below it
    return ((below & _ONES) * _ONES) >> _56  # their count, summed in the top byte


def _digits(w, below):
    """The value of the digits in the top bytes of each uint64 of ``w``,
    the first in the lower byte, above its ``below`` (uint64) bits, read
    eight at a time (Lemire's method), and a uint64 with a top bit set in
    some byte where one of them is no digit.  ``w`` is overwritten."""
    w >>= below
    w <<= below
    fill = _64 - below
    np.right_shift(_ZEROS, fill, out=fill)
    w |= fill  # '0' below the digits
    w ^= _ZEROS  # each digit byte now holds its value
    bad = np.bitwise_and(w, _LOW7, out=fill)
    bad += _OVER_9
    bad |= w  # a top bit set where a byte is above 9
    pair = w >> _8
    w *= _10
    w += pair  # byte i: 10 * d[i] + d[i + 1]
    np.right_shift(w, _16, out=pair)
    pair &= _PAIRS
    pair *= _MUL_HIGH
    w &= _PAIRS
    w *= _MUL_LOW
    w += pair
    w >>= _32
    return w, bad


def _read_digits(u64, ends, counts):
    """The values of runs of digits, each read back from where it ends:
    run i of each token is the ``counts[i]`` digits before ``ends[i]``, at
    most 16 for the first two runs and 8 for the last.  Returns (the values
    per run, whether some byte of a token's runs is no digit)."""
    # every run's last 8 digits, then the 8 before of the first two
    at = np.empty((5, ends[0].size), dtype=np.int64)
    at[:3] = ends
    at[3:] = at[:2] - 8
    at -= 8
    w = u64[at]
    n = at  # now the number of digits of each read
    n[:3] = counts
    n[3:] = n[:2] - 8
    np.maximum(n, 0, out=n)
    np.minimum(n, 8, out=n)
    np.subtract(8, n, out=n)
    n <<= 3  # the bits below the digits
    w, bad = _digits(w, n.view(np.uint64))
    w[3:] *= _1E8
    w[:2] += w[3:]
    return w[:3], np.bitwise_or.reduce(bad) & _TOPS != 0


class Block:
    """Whole lines of a model file, cut into tokens.

    ``line`` is the file line of its first line and ``size`` its number of
    lines.
    """

    def __init__(self, raw: bytes, line: int):
        self.raw, self.line = raw, line
        self.data, self.buf, self.starts, self.ends = tokenize(raw)
        self.u64 = unaligned_u64(self.data)
        ends = self.buf == 10
        if b"\r" in raw:
            cr = self.buf == 13
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
        return _UNIVERSAL_BREAK.split(self.raw.decode("utf-8"))[: self.size]

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

        A token is read here when it is at most 16 integer digits,
        optionally a '.' among its first 16 bytes and at most 16 fraction
        digits (19 digits in all), then optionally 'e' or 'E', a sign and 1
        to 3 exponent digits, and when its digits form an integer below
        2**53 and its power of ten is at most 22 in size; every other token
        goes through ``float()``.
        """
        s, e = self.starts[tokens], self.ends[tokens]
        size = e - s
        u64 = self.u64
        # the first '.' among the first 16 bytes (past the token when it has none)
        dot = _first(_zeros(u64[s] ^ _DOTS)).view(np.int64)
        far = np.flatnonzero((dot == 8) & (size > 8))
        if far.size:
            dot[far] += _first(_zeros(u64[s[far] + 8] ^ _DOTS)).view(np.int64)
        # the first 'e' or 'E' among the token's last 8 bytes
        last = _first(_zeros((u64[e - 8] | _CASE) ^ _ES) & _HIGH[np.maximum(8 - size, 0)])
        mark = size - 8 + last.view(np.int64)  # size when there is none
        has_mark = last < 8
        has_dot = (dot < mark) & (dot < 16)
        whole = np.where(has_dot, dot, mark)
        frac = mark - whole - has_dot
        after = self.buf[s + mark + 1]
        minus = has_mark & (after == ord("-"))
        nexp = size - mark - has_mark - (minus | has_mark & (after == ord("+")))
        ok = (whole + frac >= 1) & (whole + frac <= 19) & (whole <= 16) & (frac <= 16)
        ok &= (nexp <= 3) & (has_mark <= (nexp > 0))  # an exponent has digits
        whole, frac = np.minimum(whole, 16), np.minimum(frac, 16)
        (m, low, exp), bad = _read_digits(u64, (s + whole, s + mark, e), (whole, frac, nexp))
        m *= _POW10_INT[frac]
        m += low
        q = exp.view(np.int64) * (1 - 2 * minus) - frac
        ok &= ~bad & (m < _2P53) & (np.abs(q) <= 22)
        m = m.astype(np.float64)
        scale = _POW10[np.minimum(np.abs(q), 22)]
        value = np.where(q >= 0, m * scale, m / scale)
        data = self.data
        for i in np.flatnonzero(~ok).tolist():
            try:
                value[i] = float(data[s[i] : e[i]].decode("utf-8"))
            except ValueError:
                return None
        return value

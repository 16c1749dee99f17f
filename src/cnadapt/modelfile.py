"""Block reading of the line-oriented files, as bytes.

A CNET, the topic model and the channel file are read as bytes,
BLOCK_BYTES at a time, in ``Block``s of whole lines, so no reader holds
the whole file.  In every file cnadapt reads, a line ends at "\n", "\r\n"
or "\r", the breaks text mode turns into "\n"; the other breaks are
whitespace inside a line.  The model files hold a header line, then one
record of a fixed number of whitespace-separated fields per line:
``read_blocks`` counts the lines and checks that the file is UTF-8 in one
pass, then hands the lines after the header over in blocks.  A CNET is
read by ``blocks`` from line 1, in one pass: each block is checked as it
is made.

A block is cut into tokens with numpy: no Python object is made per
token.  Words are compared as byte keys (``WordKeys``), so only the words
a loader keeps are decoded.  Numbers are read by ``Block.floats``: numpy
casts the tokens' bytes to float64 in one call, bitwise as ``float()``
reads them, and a block the cast cannot take goes through ``float()``
itself.

``read_text`` reads a whole text file of any kind, and ``utf8_error``
reports one that does not decode as UTF-8.
"""

from __future__ import annotations

import codecs
import re
from functools import partial

import numpy as np

from .errors import ParseError

# bytes read at a time; a block holds the whole lines they complete
BLOCK_BYTES = 1 << 18
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

        Each token's bytes, NUL-padded to the widest, are cast to float64
        at once; numpy's cast reads bytes as ``float()`` reads a str.  A
        block with a NUL byte (which ``float()`` rejects but the padded
        cast would drop), a token wider than PAD (whose window would pass
        the padding) and a block the cast rejects (such as one with digits
        outside ASCII, which only a str reads) go through ``float()``.
        """
        s = self.starts[tokens]
        size = self.ends[tokens] - s
        width = int(size.max(initial=1))
        if width <= PAD and b"\0" not in self.raw:
            rows = np.lib.stride_tricks.sliding_window_view(self.buf, width)[s]
            rows *= np.arange(width) < size[:, None]  # NULs past each token
            try:  # a number past the float range reads as inf, as float() reads it
                with np.errstate(over="ignore"):
                    return rows.view(f"S{width}").ravel().astype(np.float64)
            except ValueError:
                pass
        try:
            return np.array(self.text(tokens), dtype=np.float64)
        except ValueError:
            return None

"""Chunked reading of the line-oriented model files.

The topic model and the channel files hold a header line, then one record
of a fixed number of whitespace-separated fields per line.  ``read_lines``
yields the record lines a chunk at a time, and ``split_fields`` splits a
whole chunk with one ``str.split``, so the loaders parse in bulk without
holding every line of a large file at once.  In every file cnadapt reads,
a line ends at "\n", "\r\n" or "\r", the breaks text mode turns into
"\n".  ``read_text`` reads a whole text file of any kind, and
``utf8_error`` reports one that does not decode as UTF-8.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import ParseError

CHUNK_LINES = 8192
# blocks of the line count; under glibc's mmap threshold, so the heap reuses
# them instead of keeping a larger block resident after the load
_BLOCK_CHARS = 1 << 16
# between the lines of a chunk, so the split shows where each line ended
_SEP = "\x00"
_UNIVERSAL_BREAK = re.compile(r"\r\n?|\n")
# a header count: an optional "-" (a negative count has its own message) and
# ASCII digits; int() and \d also take other scripts' digits, and int() "+" and "_"
COUNT = re.compile(r"-?[0-9]+")


def read_lines(fh):
    """Return (line count, first line, chunks of the remaining lines) of ``fh``.

    ``fh`` is a text file opened for reading.  Each chunk is a list of at
    most CHUNK_LINES lines, each possibly ending in "\\n"; the chunks must
    be consumed while ``fh`` is open.
    """
    count, last = 0, "\n"
    try:
        for block in iter(lambda: fh.read(_BLOCK_CHARS), ""):
            count += block.count("\n")
            last = block[-1]
    except UnicodeDecodeError:
        raise utf8_error(fh.name) from None
    count += last != "\n"
    fh.seek(0)
    lines = iter(fh)
    first = next(lines, "").rstrip("\n")
    return count, first, iter(lambda: list(islice(lines, CHUNK_LINES)), [])


def split_fields(chunk, k: int):
    """The fields of the lines of ``chunk`` in one flat list, or None when
    some line does not hold exactly ``k`` fields."""
    n = len(chunk)
    text = f" {_SEP} ".join(chunk)
    fields = text.split()
    if (
        len(fields) == (k + 1) * n - 1
        and text.count(_SEP) == n - 1
        and fields[k :: k + 1].count(_SEP) == n - 1
    ):
        del fields[k :: k + 1]
        return fields
    # some line holds another number of fields, or the text holds a NUL
    fields = []
    for line in chunk:
        parts = line.split()
        if len(parts) != k:
            return None
        fields += parts
    return fields


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

"""Confusion-network data model, CNET text format, and bin preprocessing.

A conversation is a sequence of utterances, each decoded by the recognizer
into a "sausage": a linear sequence of bins, where a bin holds competing
word hypotheses with posterior probabilities.  Cells inside a bin are kept
in canonical order (descending posterior, ascending word id on ties) so the
1-best word and the serialized form are both deterministic.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

from .errors import ParseError, ValidationError

POSTERIOR_SUM_SLACK = 1e-6
MAX_FRACTION_DIGITS = 9
UNK_WORD = "<unk>"


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


@dataclass(frozen=True)
class Conversation:
    cid: str
    networks: tuple
    total_bins: int = field(init=False)
    # cells whose word was outside a closed vocabulary when parsed
    oov_cells: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "total_bins", sum(len(net.bins) for net in self.networks)
        )

    def iter_bins(self):
        for net in self.networks:
            yield from net.bins


def prune_bin(b: Bin, rel_floor: float = 0.05, max_words: int = 10) -> Bin:
    """Drop cells below ``rel_floor`` of the bin's max posterior, then keep
    at most ``max_words`` cells.  Surviving posteriors are left as-is (they
    are recognizer confidences, not renormalized).  The argmax cell always
    survives, so the result is never empty.
    """
    if not 0.0 <= rel_floor <= 1.0:
        raise ValidationError(f"rel_floor {rel_floor!r} outside [0, 1]")
    if max_words < 1:
        raise ValidationError(f"max_words {max_words!r} < 1")
    threshold = rel_floor * b.cells[0][1]
    kept = [c for c in b.cells if c[1] >= threshold]
    return Bin(kept[:max_words])


def expected_counts(conv: Conversation) -> dict:
    """Soft term frequency: tf(w) = sum of w's posteriors over all bins."""
    tf = {}
    for b in conv.iter_bins():
        for wid, post in b.cells:
            tf[wid] = tf.get(wid, 0.0) + post
    return tf


def _parse_posterior(token: str, lineno: int) -> float:
    whole, dot, frac = token.partition(".")
    if not whole.isdigit() or (dot and (not frac or not frac.isdigit())):
        raise ParseError(f"bad posterior {token!r}", lineno)
    if len(frac) > MAX_FRACTION_DIGITS:
        raise ParseError(
            f"posterior {token!r} has more than {MAX_FRACTION_DIGITS} fraction digits",
            lineno,
        )
    value = float(token)
    if value < 0.0 or value > 1.0:
        raise ValidationError(f"line {lineno}: posterior {token} outside [0, 1]")
    return value


def parse_conversation(source, vocab: Vocabulary, closed: bool = False) -> Conversation:
    """Parse one conversation in CNET text format.

    ``source`` is a text stream or a string.  Unknown words are interned
    into ``vocab``, unless ``closed``: then ``vocab`` is left as it is, a
    cell whose word it lacks maps to UNK_WORD when it has that (posteriors
    of cells meeting there are summed) and is dropped otherwise, and a bin
    or utterance left empty is dropped too.  Raises ParseError/
    ValidationError with line numbers.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = enumerate((ln.rstrip("\n") for ln in source), start=1)

    def next_line():
        for no, ln in lines:
            if ln.strip():
                return no, ln
        return None, None

    no, header = next_line()
    if header is None:
        raise ParseError("empty input", 1)
    parts = header.split()
    if len(parts) != 2 or parts[0] != "CONV":
        raise ParseError(f"expected 'CONV <id>', got {header!r}", no)
    cid = parts[1]
    intern = vocab.get if closed else vocab.add
    unk = vocab.get(UNK_WORD)
    oov_cells = 0

    networks = []
    while True:
        no, line = next_line()
        if line is None:
            break
        parts = line.split()
        if parts[0] != "NET" or len(parts) != 3:
            raise ParseError(f"expected 'NET <id> <bin-count>', got {line!r}", no)
        uid = parts[1]
        try:
            nbins = int(parts[2])
        except ValueError:
            raise ParseError(f"bad bin count {parts[2]!r}", no) from None
        if nbins < 1:
            raise ValidationError(f"line {no}: utterance {uid!r} declares {nbins} bins")
        bins = []
        for _ in range(nbins):
            no, bline = next_line()
            if bline is None:
                raise ParseError(f"unexpected end of input inside NET {uid!r}", no)
            bparts = bline.split()
            if bparts[0] != "BIN" or len(bparts) < 2:
                raise ParseError(f"expected 'BIN <word>:<posterior> ...', got {bline!r}", no)
            cells = []
            bin_oov = 0
            for cell in bparts[1:]:
                word, sep, ptok = cell.rpartition(":")
                if not sep or not word:
                    raise ParseError(f"bad cell {cell!r}", no)
                post = _parse_posterior(ptok, no)
                wid = intern(word)
                if wid is None:
                    bin_oov += 1
                    wid = unk
                if wid is not None:
                    cells.append((wid, post))
            if bin_oov:
                oov_cells += bin_oov
                merged = {}
                for wid, post in cells:
                    merged[wid] = merged.get(wid, 0.0) + post
                cells = [(wid, min(post, 1.0)) for wid, post in merged.items()]
            if not cells:
                continue
            try:
                bins.append(Bin(cells))
            except ValidationError as exc:
                raise ValidationError(f"line {no}: {exc}") from None
        if bins:
            networks.append(ConfusionNetwork(uid, tuple(bins)))
    if not networks:
        if oov_cells:
            raise ValidationError(f"conversation {cid!r} has no word in the vocabulary")
        raise ParseError("conversation has no utterances", no or 1)
    return Conversation(cid, tuple(networks), oov_cells=oov_cells)


def format_posterior(p: float) -> str:
    """Fixed-point with at most 9 fraction digits, trailing zeros trimmed."""
    s = f"{p:.{MAX_FRACTION_DIGITS}f}".rstrip("0").rstrip(".")
    return s or "0"


def serialize_conversation(conv: Conversation, vocab: Vocabulary) -> str:
    """Byte-stable CNET text form (cells already in canonical order)."""
    out = [f"CONV {conv.cid}"]
    for net in conv.networks:
        out.append(f"NET {net.uid} {len(net.bins)}")
        for b in net.bins:
            cells = " ".join(
                f"{vocab.word(wid)}:{format_posterior(post)}" for wid, post in b.cells
            )
            out.append(f"BIN {cells}")
    return "\n".join(out) + "\n"


def load_conversation(path, vocab: Vocabulary, closed: bool = False) -> Conversation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_conversation(fh, vocab, closed)


def save_conversation(conv: Conversation, vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_conversation(conv, vocab))

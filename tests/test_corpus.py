import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnadapt import corpus, modelfile
from cnadapt.corpus import (
    Bin,
    ConfusionNetwork,
    Conversation,
    Vocabulary,
    format_posterior,
    load_conversation,
    parse_conversation,
    prune_bin,
    pruned_widths,
    serialize_conversation,
)
from cnadapt.errors import ParseError, ValidationError
from cnadapt.synth import SynthSpec, sample_conversation
from helpers import (
    assert_matches_reference,
    iter_bins,
    reference_parse,
    traced_peak,
    wide_instance,
)


def make_bin(vocab, cells):
    return Bin([(vocab.add(w), p) for w, p in cells])


class TestParse:
    def test_basic(self, tmp_path):
        vocab = Vocabulary()
        conv = parse_conversation("CONV c1\nNET u1 1\nBIN a:0.6 b:0.4\n", vocab)
        assert conv.cid == "c1"
        assert len(conv.networks) == 1
        assert conv.networks[0].uid == "u1"
        assert conv.total_bins == 1
        assert conv.networks[0].bins[0].cells == (
            (vocab.get("a"), 0.6),
            (vocab.get("b"), 0.4),
        )
        # a string and a file end lines at "\n", "\r\n" and "\r" alike
        text = "CONV c1\rNET u1 2\r\nBIN a:0.6 b:0.4\nBIN b:1\r"
        path = tmp_path / "c.cnet"
        path.write_bytes(text.encode("utf-8"))
        conv = parse_conversation(text, vocab)
        assert conv == load_conversation(path, vocab)
        assert (conv.cid, conv.uids, conv.bin_ptr.tolist()) == ("c1", ("u1",), [0, 2, 3])

    def test_posterior_above_one(self):
        with pytest.raises(ValidationError, match="outside"):
            parse_conversation("CONV c1\nNET u1 1\nBIN a:1.2\n", Vocabulary())

    def test_posterior_zero_rejected(self):
        with pytest.raises(ValidationError):
            parse_conversation("CONV c1\nNET u1 1\nBIN a:0\n", Vocabulary())

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(ParseError, match="line 3"):
            parse_conversation("CONV c1\nNET u1 1\nBOGUS a:0.5\n", Vocabulary())
        text = "CONV c1\rNET u1 1\r\nBIN a:0.5\rBIN b:1\n"
        path = tmp_path / "c.cnet"
        path.write_bytes(text.encode("utf-8"))
        want = "line 4: expected 'NET <id> <bin-count>', got 'BIN b:1'"
        for parse, source in ((parse_conversation, text), (load_conversation, path)):
            with pytest.raises(ParseError) as info:
                parse(source, Vocabulary())
            assert str(info.value) == want

    def test_file_checked_a_block_at_a_time(self, tmp_path):
        """A file's UTF-8 is checked as each block is read: a bad byte is
        reported at its line, unless a bad line comes in an earlier block."""
        path = tmp_path / "c.cnet"
        path.write_bytes(b"CONV c\nNET u 2\nBIN a:2\nBIN \xff:1\n")
        with pytest.raises(ParseError, match="line 4: not valid UTF-8"):
            load_conversation(path, Vocabulary())
        with mock.patch.object(modelfile, "BLOCK_BYTES", 8), \
                pytest.raises(ValidationError, match="line 3: posterior 2 outside"):
            load_conversation(path, Vocabulary())

    def test_too_many_fraction_digits(self):
        with pytest.raises(ParseError, match="fraction digits"):
            parse_conversation("CONV c1\nNET u1 1\nBIN a:0.1234567891\n", Vocabulary())

    def test_missing_bin_line(self):
        with pytest.raises(ParseError):
            parse_conversation("CONV c1\nNET u1 2\nBIN a:0.5\n", Vocabulary())

    def test_duplicate_word_in_bin(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_conversation("CONV c1\nNET u1 1\nBIN a:0.5 a:0.4\n", Vocabulary())

    def test_bin_sum_above_one(self):
        with pytest.raises(ValidationError, match="sum"):
            parse_conversation("CONV c1\nNET u1 1\nBIN a:0.7 b:0.7\n", Vocabulary())

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_conversation("", Vocabulary())


class TestVocabulary:
    def test_dense_ids_and_roundtrip(self):
        vocab = Vocabulary(["x", "y"])
        assert [vocab.get(vocab.word(i)) for i in range(len(vocab))] == [0, 1]
        assert vocab.add("x") == 0
        assert len(vocab) == 2
        assert vocab.add("z") == 2

    def test_words_built_once_per_state(self):
        vocab = Vocabulary(["x", "y"])
        words = vocab.words
        assert words == ("x", "y") and vocab.words is words
        vocab.add("x")
        assert vocab.words is words
        vocab.add("z")
        assert vocab.words == ("x", "y", "z") and words == ("x", "y")


class TestBin:
    def test_canonical_order_and_one_best(self):
        b = Bin([(3, 0.2), (1, 0.5), (2, 0.2)])
        assert b.cells == ((1, 0.5), (2, 0.2), (3, 0.2))
        assert b.one_best() == (1, 0.5)

    def test_tie_break_is_word_id(self):
        b = Bin([(9, 0.5), (4, 0.5)])
        assert b.one_best() == (4, 0.5)

    @pytest.mark.parametrize("make,args,message", [
        (Bin, [[]], "empty bin"),
        (Bin, [[(2, 0.5), (1, 0.0)]], "posterior 0.0 outside (0, 1]"),
        (Bin, [[(1, 1.5)]], "posterior 1.5 outside (0, 1]"),
        (Bin, [[(1, 0.5), (1, 0.25)]], "duplicate word id 1 in bin"),
        (Bin, [[(1, 0.7), (2, 0.7)]], "bin posteriors sum to 1.4 > 1"),
        (ConfusionNetwork, ["u", ()], "utterance 'u' has no bins"),
    ], ids=["empty", "zero", "above-one", "duplicate", "sum", "no-bins"])
    def test_object_form_checks(self, make, args, message):
        with pytest.raises(ValidationError) as info:
            make(*args)
        assert str(info.value) == message


class TestPrune:
    def test_relative_floor(self):
        vocab = Vocabulary()
        b = make_bin(vocab, [("a", 0.8), ("c", 0.05), ("b", 0.03)])
        pruned = prune_bin(b, rel_floor=0.05, max_words=10)
        assert pruned.cells == (
            (vocab.get("a"), 0.8),
            (vocab.get("c"), 0.05),
        )

    def test_equal_posteriors_keep_lowest_ids(self):
        b = Bin([(i, 0.05) for i in range(12)])
        pruned = prune_bin(b, rel_floor=0.05, max_words=10)
        assert pruned.word_ids() == tuple(range(10))

    def test_singleton_preserved(self):
        b = Bin([(7, 1.0)])
        assert prune_bin(b, 0.5, 1) == b

    def test_argmax_unchanged_and_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(1, 12))
            wids = rng.choice(50, size=k, replace=False)
            post = rng.dirichlet(np.ones(k))
            b = Bin([(int(w), float(p)) for w, p in zip(wids, post)])
            pruned = prune_bin(b)
            assert pruned.one_best() == b.one_best()
            assert prune_bin(pruned) == pruned

    @settings(max_examples=200, deadline=None)
    @given(
        utterances=st.lists(
            st.lists(
                # posteriors in 64ths, so thresholds such as 0.5 * 4/64 land
                # exactly on a posterior, and ties are common
                st.lists(
                    st.tuples(st.integers(0, 30), st.integers(1, 5)),
                    min_size=1, max_size=12, unique_by=lambda c: c[0],
                ),
                min_size=1, max_size=3,
            ),
            min_size=1, max_size=3,
        ),
        rel_floor=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.8, 1.0]), st.floats(0, 1)),
        max_words=st.integers(1, 12),
    )
    def test_pruned_widths_match_prune_bin(self, utterances, rel_floor, max_words):
        conv = Conversation("c", tuple(
            ConfusionNetwork(f"u{n}", tuple(Bin([(w, k / 64) for w, k in b]) for b in bins))
            for n, bins in enumerate(utterances)
        ))
        widths = pruned_widths(conv, rel_floor, max_words)
        assert widths.tolist() == [
            len(prune_bin(b, rel_floor, max_words)) for b in iter_bins(conv)
        ]


class TestClosedVocabulary:
    TEXT = (
        "CONV c\n"
        "NET u1 2\n"
        "BIN a:0.5 xx:0.3 yy:0.2\n"
        "BIN zz:1\n"
        "NET u2 1\n"
        "BIN qq:1\n"
    )

    def test_outside_words_map_to_unk_and_merge(self):
        vocab = Vocabulary(["a", "<unk>"])
        conv = parse_conversation(self.TEXT, vocab, closed=True)
        assert len(vocab) == 2
        assert conv.oov_cells == 4
        bins = [b.cells for b in iter_bins(conv)]
        assert bins[0] == ((0, 0.5), (1, pytest.approx(0.5)))
        assert bins[1] == ((1, 1.0),)
        assert bins[2] == ((1, 1.0),)

    def test_without_unk_cells_bins_and_utterances_drop(self):
        vocab = Vocabulary(["a", "b"])
        conv = parse_conversation(self.TEXT, vocab, closed=True)
        assert len(vocab) == 2
        assert conv.oov_cells == 4
        assert [net.uid for net in conv.networks] == ["u1"]
        assert [b.cells for b in iter_bins(conv)] == [((0, 0.5),)]

    def test_nothing_left_is_an_input_error(self):
        with pytest.raises(ValidationError, match="no word"):
            parse_conversation("CONV c\nNET u 1\nBIN zz:1\n", Vocabulary(["a"]), closed=True)

    def test_open_vocabulary_interns(self):
        vocab = Vocabulary(["a"])
        conv = parse_conversation("CONV c\nNET u 1\nBIN zz:1\n", vocab)
        assert vocab.get("zz") == 1
        assert conv.oov_cells == 0


words_st = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=4
)


@st.composite
def conversations(draw):
    vocab_words = draw(st.lists(words_st, min_size=1, max_size=8, unique=True))
    vocab = Vocabulary(vocab_words)
    nets = []
    for n in range(draw(st.integers(1, 3))):
        bins = []
        for _ in range(draw(st.integers(1, 4))):
            k = draw(st.integers(1, min(4, len(vocab_words))))
            wids = draw(
                st.lists(
                    st.integers(0, len(vocab_words) - 1),
                    min_size=k, max_size=k, unique=True,
                )
            )
            raw = draw(
                st.lists(
                    st.integers(1, 10**9 // k), min_size=k, max_size=k
                )
            )
            bins.append(Bin(list(zip(wids, (r / 1e9 for r in raw)))))
        nets.append(ConfusionNetwork(f"u{n}", tuple(bins)))
    return Conversation("conv", tuple(nets)), vocab


class TestSerialization:
    @given(conversations())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, case):
        conv, vocab = case
        text = serialize_conversation(conv, vocab)
        reparsed = parse_conversation(text, vocab)
        assert reparsed == conv
        assert serialize_conversation(reparsed, vocab) == text

    def test_posterior_format(self):
        assert format_posterior(1.0) == "1"
        assert format_posterior(0.6) == "0.6"
        assert format_posterior(0.25) == "0.25"
        assert format_posterior(0.000000123) == "0.000000123"

    def test_serialize_is_canonical(self):
        vocab = Vocabulary(["a", "b"])
        conv1 = Conversation(
            "c", (ConfusionNetwork("u", (Bin([(0, 0.6), (1, 0.4)]),)),)
        )
        conv2 = Conversation(
            "c", (ConfusionNetwork("u", (Bin([(1, 0.4), (0, 0.6)]),)),)
        )
        assert serialize_conversation(conv1, vocab) == serialize_conversation(conv2, vocab)


# (id, lines, message, index of the line it names or None, error type, closed vocabulary);
# "{no}" is that line's number in the file as laid out
PARSE_ERRORS = [
    ("header", ["CONVX c1", "NET u 1", "BIN a:1"],
     "line {no}: expected 'CONV <id>', got 'CONVX c1'", 0, ParseError, None),
    ("header-short", ["CONV"], "line {no}: expected 'CONV <id>', got 'CONV'", 0,
     ParseError, None),
    ("empty", [], "line 1: empty input", None, ParseError, None),
    ("net-line", ["CONV c", "NOT u 1", "BIN a:1"],
     "line {no}: expected 'NET <id> <bin-count>', got 'NOT u 1'", 1, ParseError, None),
    ("net-fields", ["CONV c", "NET u 1 2"],
     "line {no}: expected 'NET <id> <bin-count>', got 'NET u 1 2'", 1, ParseError, None),
    ("bin-count", ["CONV c", "NET u x"], "line {no}: bad bin count 'x'", 1, ParseError, None),
    ("bin-count-arabic-indic", ["CONV c", "NET u \u0663", "BIN a:1", "BIN a:1", "BIN a:1"],
     "line {no}: bad bin count '\u0663'", 1, ParseError, None),
    ("bin-count-plus", ["CONV c", "NET u +3", "BIN a:1", "BIN a:1", "BIN a:1"],
     "line {no}: bad bin count '+3'", 1, ParseError, None),
    ("bin-count-underscore", ["CONV c", "NET u 1_0", "BIN a:1"],
     "line {no}: bad bin count '1_0'", 1, ParseError, None),
    ("nbins-zero", ["CONV c", "NET u 0"], "line {no}: utterance 'u' declares 0 bins", 1,
     ValidationError, None),
    ("nbins-negative", ["CONV c", "NET u -2"], "line {no}: utterance 'u' declares -2 bins", 1,
     ValidationError, None),
    ("end-of-input", ["CONV c", "NET u 2", "BIN a:1"],
     "unexpected end of input inside NET 'u'", None, ParseError, None),
    ("bin-line", ["CONV c", "NET u 1", "BOGUS a:0.5"],
     "line {no}: expected 'BIN <word>:<posterior> ...', got 'BOGUS a:0.5'", 2,
     ParseError, None),
    ("bin-no-cells", ["CONV c", "NET u 1", "BIN"],
     "line {no}: expected 'BIN <word>:<posterior> ...', got 'BIN'", 2, ParseError, None),
    ("bin-missing", ["CONV c", "NET u 2", "BIN a:1", "NET v 1", "BIN a:1"],
     "line {no}: expected 'BIN <word>:<posterior> ...', got 'NET v 1'", 3,
     ParseError, None),
    ("bin-before-net-error", ["CONV c", "NET u 1", "BIN a:2", "NET v"],
     "line {no}: posterior 2 outside [0, 1]", 2, ValidationError, None),
    ("cell", ["CONV c", "NET u 1", "BIN a:0.5 b0.5"], "line {no}: bad cell 'b0.5'", 2,
     ParseError, None),
    ("cell-no-word", ["CONV c", "NET u 1", "BIN :0.5"], "line {no}: bad cell ':0.5'", 2,
     ParseError, None),
    ("cell-no-colon", ["CONV c", "NET u 1", "BIN a b"], "line {no}: bad cell 'a'", 2,
     ParseError, None),
    ("cell-after-colon-word", ["CONV c", "NET u 1", "BIN a:b:0.5 c"],
     "line {no}: bad cell 'c'", 2, ParseError, None),
    ("posterior", ["CONV c", "NET u 1", "BIN a:x"], "line {no}: bad posterior 'x'", 2,
     ParseError, None),
    ("posterior-no-whole", ["CONV c", "NET u 1", "BIN a:.5"],
     "line {no}: bad posterior '.5'", 2, ParseError, None),
    ("posterior-no-fraction", ["CONV c", "NET u 1", "BIN a:1."],
     "line {no}: bad posterior '1.'", 2, ParseError, None),
    ("posterior-sign", ["CONV c", "NET u 1", "BIN a:-0.5"],
     "line {no}: bad posterior '-0.5'", 2, ParseError, None),
    ("posterior-empty", ["CONV c", "NET u 1", "BIN a:"], "line {no}: bad posterior ''", 2,
     ParseError, None),
    ("posterior-exponent", ["CONV c", "NET u 1", "BIN a:0.5 b:1e-3"],
     "line {no}: bad posterior '1e-3'", 2, ParseError, None),
    ("posterior-in-word", ["CONV c", "NET u 1", "BIN a:1:x"],
     "line {no}: bad posterior 'x'", 2, ParseError, None),
    ("posterior-superscript", ["CONV c", "NET u 1", "BIN a:\u00b2"],
     "line {no}: bad posterior '\u00b2'", 2, ParseError, None),
    ("posterior-arabic-indic", ["CONV c", "NET u 1", "BIN a:0.5 b:\u0660.\u0665"],
     "line {no}: bad posterior '\u0660.\u0665'", 2, ParseError, None),
    ("fraction-digits", ["CONV c", "NET u 1", "BIN a:0.1234567891"],
     "line {no}: posterior '0.1234567891' has more than 9 fraction digits", 2,
     ParseError, None),
    ("above-one", ["CONV c", "NET u 1", "BIN a:1.5"],
     "line {no}: posterior 1.5 outside [0, 1]", 2, ValidationError, None),
    ("zero", ["CONV c", "NET u 1", "BIN a:0.5 b:0"],
     "line {no}: posterior 0.0 outside (0, 1]", 2, ValidationError, None),
    ("duplicate", ["CONV c", "NET u 1", "BIN a:0.5 a:0.4"],
     "line {no}: duplicate word id 0 in bin", 2, ValidationError, None),
    ("duplicate-later", ["CONV c", "NET u 1", "BIN b:0.3 a:0.5 b:0.2"],
     "line {no}: duplicate word id 1 in bin", 2, ValidationError, None),
    ("duplicate-beside-outside-word", ["CONV c", "NET u 1", "BIN a:0.5 a:0.4 zz:0.1"],
     "line {no}: duplicate word id 0 in bin", 2, ValidationError, ["a", "b"]),
    ("duplicate-beside-unk", ["CONV c", "NET u 1", "BIN a:0.5 zz:0.1 a:0.4"],
     "line {no}: duplicate word id 0 in bin", 2, ValidationError, ["a", "<unk>"]),
    ("bin-sum", ["CONV c", "NET u 2", "BIN a:0.5", "BIN a:0.7 b:0.7"],
     "line {no}: bin posteriors sum to 1.4 > 1", 3, ValidationError, None),
    ("bin-sum-past-slack", ["CONV c", "NET u 1", "BIN a:0.7 b:0.3001"],
     "line {no}: bin posteriors sum to 1.0001 > 1", 2, ValidationError, None),
    # on one line: the cells in turn, each its ':' then its posterior; then
    # the bin in canonical order, a word met twice or a zero, then the sum
    ("posterior-before-later-cell", ["CONV c", "NET u 1", "BIN a:x b0.5"],
     "line {no}: bad posterior 'x'", 2, ParseError, None),
    ("cell-before-later-posterior", ["CONV c", "NET u 1", "BIN a0.5 b:x"],
     "line {no}: bad cell 'a0.5'", 2, ParseError, None),
    ("fraction-digits-before-later-posterior", ["CONV c", "NET u 1", "BIN a:0.1234567891 b:x"],
     "line {no}: posterior '0.1234567891' has more than 9 fraction digits", 2,
     ParseError, None),
    ("above-one-before-later-fraction-digits", ["CONV c", "NET u 1", "BIN a:1.5 b:0.1234567891"],
     "line {no}: posterior 1.5 outside [0, 1]", 2, ValidationError, None),
    ("duplicate-before-zero", ["CONV c", "NET u 1", "BIN a:0.5 b:0 a:0.4"],
     "line {no}: duplicate word id 0 in bin", 2, ValidationError, None),
    ("zero-before-duplicate", ["CONV c", "NET u 1", "BIN a:0 a:0"],
     "line {no}: posterior 0.0 outside (0, 1]", 2, ValidationError, None),
    ("zero-before-sum", ["CONV c", "NET u 1", "BIN a:0.7 b:0.7 c:0"],
     "line {no}: posterior 0.0 outside (0, 1]", 2, ValidationError, None),
    ("no-utterances", ["CONV c"], "line 1: conversation has no utterances", None,
     ParseError, None),
    ("no-word-in-vocabulary", ["CONV c", "NET u 1", "BIN zz:1"],
     "conversation 'c' has no word in the vocabulary", None, ValidationError, ["a"]),
]
# cases whose error comes after the utterances: padding bins before it would change it
NOT_DEEP = {"header", "header-short", "empty", "no-utterances", "no-word-in-vocabulary"}
# more bin lines than a parser would plausibly hold in one chunk
DEEP_BINS = 5000


def _lay_out(lines, layout):
    """The file's lines under ``layout`` and the map from a case's line index
    to its line number."""
    if layout == "blank":
        spaced = []
        for i, line in enumerate(lines):
            spaced += ["  \t" if i % 2 else "", line]
        return spaced + [""], lambda i: 2 * i + 2
    if layout == "deep":
        pad = ["NET pad %d" % DEEP_BINS] + ["BIN a:1"] * DEEP_BINS
        return lines[:1] + pad + lines[1:], lambda i: i + 1 + (len(pad) if i else 0)
    return lines, lambda i: i + 1


class TestParseErrors:
    """Every parse error keeps its message and line number, wherever it sits."""

    @pytest.mark.parametrize(
        "layout,name,lines,message,at,exc,closed",
        [
            pytest.param(layout, *case, id=f"{case[0]}-{layout}")
            for case in PARSE_ERRORS
            for layout in ("plain", "blank", "deep", "crlf-str", "crlf-file")
            if not (layout == "deep" and case[0] in NOT_DEEP)
        ],
    )
    def test_message_and_line(self, tmp_path, layout, name, lines, message, at, exc, closed):
        laid, number = _lay_out(lines, layout)
        eol = "\r\n" if layout.startswith("crlf") else "\n"
        text = eol.join(laid) + (eol if laid else "")
        vocab = Vocabulary(closed or ["a"])
        want = message.format(no=None if at is None else number(at))
        with pytest.raises(exc) as info:
            if layout == "crlf-file":
                path = tmp_path / "c.cnet"
                path.write_bytes(text.encode("utf-8"))
                load_conversation(path, vocab, closed=closed is not None)
            else:
                parse_conversation(text, vocab, closed=closed is not None)
        assert str(info.value) == want


def outcome(parse, *args):
    try:
        return parse(*args), None
    except (ParseError, ValidationError) as exc:
        return None, (type(exc), str(exc))


# "a:b", "x:" and "q:q:1" hold ':' and are read by the last one; "zz" and
# the ones after it are outside the closed vocabulary.  Words without ':'
# come twice, so that most cells hold one ':'.  "a.b", "1.5" and "w12"
# hold what posteriors hold; "café" and "日本" are not ASCII; the words
# longer than 8 bytes share their first 8.
CNET_WORDS = [
    "a", "b", "c", "<unk>", "café", "understand", "zz", "BIN", "NET", "a.b", "1.5", "w12",
    "日本", "understan", "understanding", "understandingly", "understandingness",
] * 2 + ["a:b", "x:", "q:q:1"]
CLOSED_WORDS = ["a", "b", "c", "café", "understand", "a:b"]
# ties, leading and trailing zeros, whole parts of many digits, nine
# fraction digits; "0.7" with "0.3001" sums just past the slack
CNET_POSTERIORS = [
    "0.25", "0.250", "00.1", "0.1", "0.05", "0.123456789", "0.3", "0.3000001", "0.3001",
    "0.7", "0000000000000.5", "00000000000000.05",
]
# each makes most bins it lands in bad, so about one cell in sixteen draws one
RARE_POSTERIORS = [
    "0", "1", "1.5", "1.", ".5", "0.1234567890", "1e-3", "+0.5", "0_5", "000000000001",
    "000000000002.5",
]
# whitespace str.split() cuts at besides ' ' and '\t', ASCII and not
ODD_SPACES = ["\x0b", "\x0c", "\x1c", "\r", "\xa0", "\u3000"]


@st.composite
def cnet_texts(draw):
    def blanks():
        return draw(st.lists(st.sampled_from(["", " ", "\t "]), max_size=2))

    # one or two blanks, so that odd whitespace also sits beside a word
    sep = st.lists(st.sampled_from([" "] * 60 + ["\t"] * 20 + ODD_SPACES),
                   min_size=1, max_size=2).map("".join)
    out = blanks() + ["CONV c"]
    for n in range(draw(st.integers(1, 3))):
        nbins = draw(st.integers(1, 5))
        out += blanks() + [f"NET u{n} {nbins}"]
        for _ in range(nbins):
            k = draw(st.integers(1, 4))
            repeats = draw(st.integers(0, 3)) == 0
            words = draw(st.lists(
                st.sampled_from(CNET_WORDS), min_size=k, max_size=k, unique=not repeats
            ))
            posts = draw(st.lists(st.sampled_from(CNET_POSTERIORS * 14 + RARE_POSTERIORS),
                                  min_size=k, max_size=k))
            head = draw(st.sampled_from(["BIN"] * 30 + ["BINX"]))
            line = head + "".join(draw(sep) + f"{w}:{p}" for w, p in zip(words, posts))
            lead = draw(st.sampled_from(["", "", "", "", "", " ", "\x0b"]))
            trail = draw(st.sampled_from(["", "", "", " ", "\r", "\x1c", " \xa0"]))
            out += blanks() + [lead + line + trail]
    return "\n".join(out + blanks()) + "\n"


class TestParseMatchesReference:
    """The block parser gives bitwise the arrays of a line-by-line parse."""

    @given(
        cnet_texts(),
        st.sampled_from(["open", "closed", "closed-unk"]),
        st.sampled_from([1, 16, 48, modelfile.BLOCK_BYTES]),
    )
    # cells meeting at <unk> merge, and their sum is capped at 1
    @example("CONV c\nNET u 2\nBIN a:0.5 zz:0.1 NET:0.2\nBIN zz:0.7 <unk>:0.7\n", "closed-unk", 1)
    # posteriors with no '.' and with long whole parts, and words outside
    # ASCII, all in bulk
    @example("CONV c\nNET u 3\nBIN a:1\nBIN b:000000000001\n"
             "BIN café:0.5 日本:0.25 a.b:00000000000.125\n", "open", modelfile.BLOCK_BYTES)
    # whitespace beside a word: outside ASCII (the first bin) and ASCII (the
    # second)
    @example("CONV c\nNET u 2\nBIN \xa0a:0.5 \u3000b:0.25\nBIN \x1ca:0.5\x0bb:0.25\x0c\n", "open", 1)
    # words of 9 bytes and more that share their first 8
    @example("CONV c\nNET u 2\nBIN understand:0.5\n"
             "BIN understanding:0.5 understan:0.25 understandingness:0.125\n", "open", 1)
    # a word ending in a NUL byte is another word
    @example("CONV c\nNET u 2\nBIN a:0.5\nBIN a\x00:0.25\n", "open", modelfile.BLOCK_BYTES)
    # a byte that is no digit in the last fraction place
    @example("CONV c\nNET u 1\nBIN a:0.00000001e\n", "open", 1)
    # CONV and NET ids holding ':' and '.', in the block beside the cells
    # whose posteriors the byte scans for ':' and '.' read
    @example("CONV c:1.5\nNET u:0.5 2\nBIN a:1\nBIN b:00.5 a.b:0.25\nNET v.1:2 1\nBIN a:01\n",
             "open", modelfile.BLOCK_BYTES)
    # a line of the wrong kind is quoted as written, trailing space and all
    @example("CONV c\nNET u0 1\nBINX a:0.25 \n", "open", modelfile.BLOCK_BYTES)
    @settings(max_examples=300, deadline=None)
    def test_arrays_and_errors(self, text, mode, block):
        closed = mode != "open"
        base = CLOSED_WORDS + (["<unk>"] if mode == "closed-unk" else []) if closed else ["a"]
        ref_vocab, vocab = Vocabulary(base), Vocabulary(base)
        want, want_error = outcome(reference_parse, text, ref_vocab, closed)
        with mock.patch.object(modelfile, "BLOCK_BYTES", block):
            conv, error = outcome(parse_conversation, text, vocab, closed)
        assert error == want_error
        if error:
            return
        assert_matches_reference(conv, vocab, want, ref_vocab)

    def test_long_closed_file_in_bulk(self):
        """A closed-vocabulary file of more than two blocks, with words outside
        ASCII and outside words merging at <unk>."""
        rng = np.random.default_rng(12)
        words = ["a", "b", "café", "<unk>", "日本", "zz", "w.1"]
        posteriors = ["0.25", "0.1", "0.05", "0.123456789", "0000000000.2", "0.2"]
        nbins = 4196
        lines = ["CONV c", f"NET u {nbins}"]
        for _ in range(nbins):
            k = int(rng.integers(1, 5))
            cells = zip(rng.choice(words, size=k, replace=False), rng.choice(posteriors, size=k))
            lines.append("BIN " + " ".join(f"{w}:{p}" for w, p in cells))
        text = "\n".join(lines) + "\n"
        base = ["a", "b", "café", "<unk>"]
        ref_vocab, vocab = Vocabulary(base), Vocabulary(base)
        want = reference_parse(text, ref_vocab, True)
        with mock.patch.object(modelfile, "BLOCK_BYTES", len(text) // 4):
            conv = parse_conversation(text, vocab, closed=True)
        assert conv.oov_cells > 1000
        assert_matches_reference(conv, vocab, want, ref_vocab)

    @pytest.mark.parametrize("mode", ["open", "closed-unk"])
    def test_wide_space_and_colon_words_in_bulk(self, mode):
        """Whitespace outside ASCII between and around cells, and words
        holding ':'."""
        rng = np.random.default_rng(13)
        words = ["a", "a:b", "x:", "q:q:1", ":c", "café", "zz", "<unk>"]
        seps = [" ", "\xa0", "\u3000", "\t\u3000", "\x85", "\u2028 "]
        nbins = 2148
        lines = ["CONV c", f"NET u {nbins}"]
        for _ in range(nbins):
            k = int(rng.integers(1, 5))
            cells = zip(rng.choice(words, size=k, replace=False),
                        rng.choice(["0.25", "0.1"], size=k))
            line = "BIN" + "".join(f"{rng.choice(seps)}{w}:{p}" for w, p in cells)
            lines.append(line + rng.choice(["", "\xa0"]))
        text = "\n".join(lines) + "\n"
        closed = mode != "open"
        base = ["a", "a:b", ":c", "<unk>"] if closed else []
        ref_vocab, vocab = Vocabulary(base), Vocabulary(base)
        want = reference_parse(text, ref_vocab, closed)
        with mock.patch.object(modelfile, "BLOCK_BYTES", len(text) // 2):
            conv = parse_conversation(text, vocab, closed)
        assert_matches_reference(conv, vocab, want, ref_vocab)

    def test_bulk_path_reads_canonical_files(self):
        """A file as save_conversation writes it reads back to the same text."""
        vocab = Vocabulary(f"w{i}" for i in range(20))
        rng = np.random.default_rng(3)
        nets = []
        for u in range(3):
            bins = []
            for _ in range(30):
                k = int(rng.integers(1, 6))
                post = rng.dirichlet(np.ones(k)) * 0.999
                wids = rng.choice(20, size=k, replace=False)
                bins.append(Bin([(int(w), float(p)) for w, p in zip(wids, post)]))
            nets.append(ConfusionNetwork(f"u{u}", tuple(bins)))
        text = serialize_conversation(Conversation("c", nets), vocab)
        conv = parse_conversation(text, vocab, closed=True)
        assert serialize_conversation(conv, vocab) == text


# bytes that are no digit, next to digits: '/' and ':' on either side of
# '0'..'9', '.', the UTF-8 bytes 0x80 to 0xFF of the characters up to U+00FF
# and of wider ones, and Arabic-Indic digits, which str.isdigit() takes
POSTERIOR_ODD = ["/", ":", "."] + [
    chr(c) for c in range(0x80, 0x100) if not chr(c).isspace()
] + ["\u0660", "\u0665", "\u0669", "日", "\U0001f600"]


@st.composite
def posterior_tokens(draw):
    """A posterior around the 8-byte fraction read: whole parts the format
    takes and some it rejects, 0 to 12 fraction digits, and in one token
    of four one or two bytes that are no digit."""
    whole = draw(st.sampled_from(["0"] * 5 + ["1", "00", "01", "10", ""]))
    size = draw(st.sampled_from(list(range(1, 10)) * 3 + [0, 10, 11, 12]))
    token = whole + draw(st.sampled_from([".", ".", ".", ""])) + draw(
        st.text(alphabet="0123456789", min_size=size, max_size=size))
    if draw(st.integers(0, 3)) == 0:
        for at, odd in draw(st.lists(st.tuples(st.integers(0, 14), st.sampled_from(POSTERIOR_ODD)),
                                     min_size=1, max_size=2)):
            token = token[:at] + odd + token[at:]
    return token


# posteriors the format takes: 1 to 9 fraction digits below 1, and 1 with
# or without fraction zeros, each with a whole part of one digit or two
VALID_POSTERIORS = st.one_of(
    st.tuples(st.sampled_from(["0", "00"]), st.text(alphabet="0123456789", min_size=1, max_size=9)
              ).filter(lambda t: t[1].strip("0")).map(".".join),
    st.tuples(st.sampled_from(["1", "01"]), st.integers(0, 9)).map(
        lambda t: t[0] + ("." + "0" * t[1] if t[1] else "")),
)


class TestPosteriorRead:
    """The first 8 fraction digits of a posterior are read as one
    little-endian word, wherever the posterior sits in a block."""

    @given(st.binary(min_size=8, max_size=8), st.integers(-1, 9))
    @settings(max_examples=500, deadline=None)
    @example(b"9" * 8, 8)
    @example(b"12\xff\xff\xff\xff\xff\xff", 2)  # the bytes past the digits could carry
    @example(b"/:09\x80\xb0\xb9\xff", 8)
    def test_eight_digits(self, raw, count):
        data = b" " + raw + b" " * 8
        value, bad = corpus._eight_digits(modelfile.unaligned_u64(data), np.array([1]),
                                          np.array([count]))
        digits = raw[: max(min(count, 8), 0)]
        if all(48 <= b <= 57 for b in digits):
            assert (int(value[0]), int(bad[0])) == (int(digits.ljust(8, b"0")), 0)
        else:
            assert bad[0] != 0

    @given(st.one_of(*(st.lists(st.tuples(tokens, st.integers(0, 3)), min_size=1, max_size=6)
                       for tokens in (VALID_POSTERIORS, posterior_tokens()))),
           st.sampled_from([16, 48, modelfile.BLOCK_BYTES]), st.booleans())
    @example([("0.12345678", 0), ("1", 2), ("0.123456789", 1)], modelfile.BLOCK_BYTES, False)
    @example([("0.5", 0), ("01.5", 0), ("0.1\u0660", 1)], 16, True)
    @settings(max_examples=400, deadline=None)
    def test_values_and_errors(self, cases, block, newline):
        """Each token is a bin of its own, after bins of cells that read
        alone; the last token is the file's last cell, right before the
        block's padding when the file has no line break after it.  A valid
        token reads bitwise as float() reads it, and the first bad one
        raises the error of the line-by-line parse."""
        bins = []
        for i, (token, before) in enumerate(cases):
            bins += [f"x{i}:0.125 y:0.25"] * before + [f"w{i}:{token}"]
        text = f"CONV c\nNET u {len(bins)}\n" + "\n".join("BIN " + b for b in bins)
        text += "\n" if newline else ""
        ref_vocab, vocab = Vocabulary(), Vocabulary()
        want, want_error = outcome(reference_parse, text, ref_vocab, False)
        with mock.patch.object(modelfile, "BLOCK_BYTES", block):
            conv, error = outcome(parse_conversation, text, vocab, False)
        assert error == want_error
        if error is None:
            assert_matches_reference(conv, vocab, want, ref_vocab)

    def test_both_reads_reached(self):
        """A posterior whose '.' follows its first byte, or of one byte, is
        read without looking for its '.'; any other layout looks for it in
        a scan of the block.  Both read the fraction a word at a time."""
        with mock.patch.object(corpus, "_dots", wraps=corpus._dots) as dots, \
                mock.patch.object(corpus, "_eight_digits", wraps=corpus._eight_digits) as eight:
            conv = parse_conversation("CONV c\nNET u 3\nBIN a:0.5\nBIN b:1\nBIN a:0.25\n",
                                      Vocabulary())
            assert (dots.call_count, eight.call_count) == (0, 1)
            assert conv.posts.tolist() == [0.5, 1.0, 0.25]
            conv = parse_conversation("CONV c\nNET u 1\nBIN a:00.5 b:0.125\n", Vocabulary())
            assert (dots.call_count, eight.call_count) == (1, 2)
            assert conv.posts.tolist() == [0.5, 0.125]

    @given(cnet_texts(), st.sampled_from([1, 48, modelfile.BLOCK_BYTES]))
    @settings(max_examples=100, deadline=None)
    def test_open_vocabulary_when_every_word_shares_a_slot(self, text, block):
        """With every word hashed to one slot, the words are matched
        exactly: open mode interns the words in the order they first occur,
        as the line-by-line parse does."""
        ref_vocab, vocab = Vocabulary(["a"]), Vocabulary(["a"])
        want, want_error = outcome(reference_parse, text, ref_vocab, False)
        with mock.patch.object(modelfile, "BLOCK_BYTES", block), \
                mock.patch.object(modelfile, "_MIX", np.zeros(4, dtype=np.uint64)):
            conv, error = outcome(parse_conversation, text, vocab, False)
        assert error == want_error
        if error is None:
            assert_matches_reference(conv, vocab, want, ref_vocab)


class TestParseMemory:
    """Blocks are cut by bytes, so a block of wide bins holds no more cells
    than one of narrow bins."""

    @pytest.mark.parametrize("nbins", [1000, 4000])
    def test_scratch_memory_is_bounded(self, tmp_path, nbins):
        """A CNET of width-40 bins (1.85 MB at 4000 bins) parses within a
        fixed 8 MB of what it keeps, from its text and from its file."""
        conv, tm, _ = wide_instance(5, nbins)
        text = serialize_conversation(conv, tm.vocab)
        path = tmp_path / "c.cnet"
        path.write_text(text, encoding="utf-8")
        for parse, source in ((parse_conversation, text), (load_conversation, path)):
            parsed, scratch = traced_peak(parse, source, tm.vocab, True)
            assert parsed.words.size == 40 * nbins
            assert scratch < 8e6

    @pytest.mark.parametrize("nbins", [1000, 4000])
    def test_text_encoded_a_slice_at_a_time(self, tmp_path, nbins):
        """A text is encoded a block's worth at a time, so its parse takes
        no more scratch than the parse of its file, give or take a block:
        at 4000 bins 3.27 MB each, where encoding the whole text first took
        5.11 MB."""
        conv, tm, _ = wide_instance(5, nbins)
        text = serialize_conversation(conv, tm.vocab)
        path = tmp_path / "c.cnet"
        path.write_text(text, encoding="utf-8")
        _, from_text = traced_peak(parse_conversation, text, tm.vocab, True)
        _, from_file = traced_peak(load_conversation, path, tm.vocab, True)
        assert from_text <= from_file + modelfile.BLOCK_BYTES


class TestPinnedParse:
    """sha256 of the arrays parsed from one 5000-bin conversation of the A3
    spec, recorded under numpy 2.4.6 with the earlier, regex-based chunk
    reader.
    Open mode interns the words in the order they first occur, so its ids
    are not the order the cells were written in; the closed vocabulary
    lacks ten words, whose cells merge at <unk>."""

    DIGESTS = {
        "closed-unk": "3ffd134379a9bc2c9f7a01bbf6cb1957eab1c0f36fed6d36406dbcb1287a1174",
        "open": "73a30f8cf8ff40e034e5ed277357f2eb09c99c4254ab2564656db6c5964d933c",
    }

    @staticmethod
    def digest(conv, vocab):
        h = hashlib.sha256()
        for a in (conv.words, conv.posts, conv.bin_ptr, conv.utt_ptr):
            h.update(a.astype(a.dtype.newbyteorder("<")).tobytes())
        h.update(f"{conv.oov_cells}\n".encode())
        h.update("\n".join(vocab.words).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("mode", sorted(DIGESTS))
    def test_digests(self, mode):
        spec = SynthSpec(topics=3, vocab_size=50, lambda_true=None, topic_sharpness=0.1,
                         channel_noise=0.4, bins=5000, bin_width=10, seed=11)
        conv, truth = sample_conversation(spec, 0)
        text = serialize_conversation(conv, truth.vocab)
        if mode == "open":
            vocab = Vocabulary()
        else:
            vocab = Vocabulary(truth.vocab.words[:40] + ("<unk>",))
        parsed = parse_conversation(text, vocab, closed=mode != "open")
        assert self.digest(parsed, vocab) == self.DIGESTS[mode]

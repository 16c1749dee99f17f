from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnadapt import modelfile
from cnadapt.channel import estimate_channel, load_channel, save_channel
from cnadapt.corpus import Bin, ConfusionNetwork, Conversation, Vocabulary
from cnadapt.errors import ParseError, ValidationError
from helpers import (EDGE_WORDS, PROB_FORMS, channel_from_rows, iter_bins, make_conversation,
                     reference_load_channel, write_prob)


def conv_of_bins(cells_per_bin, cid="c"):
    bins = tuple(Bin(cells) for cells in cells_per_bin)
    return Conversation(cid, (ConfusionNetwork("u", bins),))


class TestEstimate:
    def test_two_bin_fixture(self):
        # bins {a,b} and {a,c} with ids a=0, b=1, c=2
        conv = conv_of_bins([[(0, 0.6), (1, 0.4)], [(0, 0.7), (2, 0.3)]])
        cm = estimate_channel([conv])
        assert cm.rows[0] == pytest.approx({0: 0.5, 1: 0.25, 2: 0.25})
        assert cm.rows[1] == pytest.approx({0: 0.5, 1: 0.5})
        assert cm.rows[2] == pytest.approx({0: 0.5, 2: 0.5})

    def test_singleton_bins_identity(self):
        conv = conv_of_bins([[(3, 1.0)], [(5, 0.9)], [(3, 0.8)]])
        cm = estimate_channel([conv])
        assert cm.rows == {3: {3: 1.0}, 5: {5: 1.0}}

    def test_row_sums_random(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            conv = make_conversation(np.random.default_rng(seed), V=25, M=60)
            cm = estimate_channel([conv])
            for w, row in cm.rows.items():
                assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
                assert all(p > 0 for p in row.values())

    def test_counts_ignore_posterior_values(self):
        conv1 = conv_of_bins([[(0, 0.6), (1, 0.4)], [(0, 0.7), (2, 0.3)]])
        conv2 = conv_of_bins([[(0, 0.9), (1, 0.05)], [(0, 0.5), (2, 0.45)]])
        cm1 = estimate_channel([conv1])
        cm2 = estimate_channel([conv2])
        assert cm1.rows == cm2.rows

    def test_pruning_applied_before_counting(self):
        # 0.03 < 5% of 0.8, so word 2 never co-occurs
        conv = conv_of_bins([[(0, 0.8), (1, 0.05), (2, 0.03)]])
        cm = estimate_channel([conv], rel_floor=0.05, max_words=10)
        assert 2 not in cm.rows
        assert set(cm.rows[0]) == {0, 1}

    def test_count_symmetry_but_not_prob(self):
        rng = np.random.default_rng(9)
        conv = make_conversation(rng, V=15, M=80)
        counts = {}
        for b in iter_bins(conv):
            wids = b.word_ids()[:10]
            for w in wids:
                for v in wids:
                    counts[(w, v)] = counts.get((w, v), 0) + 1
        for (w, v), c in counts.items():
            assert counts[(v, w)] == c
        cm = estimate_channel([conv])
        asym = any(
            abs(cm.prob(v, w) - cm.prob(w, v)) > 1e-12
            for (w, v) in counts
            if w != v
        )
        assert asym

    def test_order_invariance(self):
        rng = np.random.default_rng(10)
        convs = [make_conversation(np.random.default_rng(s), V=12, M=20, cid=f"c{s}")
                 for s in range(4)]
        cm1 = estimate_channel(convs)
        cm2 = estimate_channel(list(reversed(convs)))
        assert cm1.rows == cm2.rows

    def test_empty_input(self):
        with pytest.raises(ValidationError):
            estimate_channel([])


class TestLookup:
    def test_stored_value(self):
        conv = conv_of_bins([[(0, 0.6), (1, 0.4)], [(0, 0.7), (2, 0.3)]])
        cm = estimate_channel([conv])
        assert cm.prob(1, 0) == pytest.approx(0.25)

    def test_identity_backoff(self):
        cm = channel_from_rows({0: {0: 1.0}})
        assert cm.prob(99, 99) == 1.0
        assert cm.prob(0, 99) == 0.0

    def test_missing_v_in_present_row(self):
        cm = channel_from_rows({0: {0: 0.5, 1: 0.5}})
        assert cm.prob(2, 0) == 0.0


class TestChannelFile:
    def test_round_trip(self, tmp_path):
        vocab = Vocabulary(["a", "b", "c"])
        conv = conv_of_bins([[(0, 0.6), (1, 0.4)], [(0, 0.7), (2, 0.3)]])
        cm = estimate_channel([conv])
        path = tmp_path / "ch.model"
        save_channel(cm, vocab, path)
        text = path.read_text()
        assert text.startswith("CHANNEL 7\n")
        assert "a a 0.5\n" in text
        cm2 = load_channel(path, vocab)
        for w, row in cm.rows.items():
            assert cm2.rows[w] == pytest.approx(row)

    def test_loader_validates_sums(self, tmp_path):
        path = tmp_path / "ch.model"
        path.write_text("CHANNEL 2\na a 0.5\na b 0.2\n")
        with pytest.raises(ValidationError):
            load_channel(path, Vocabulary())

    def test_loader_validates_header(self, tmp_path):
        path = tmp_path / "ch.model"
        path.write_text("CHANNEL 3\na a 0.5\na b 0.5\n")
        with pytest.raises(ParseError):
            load_channel(path, Vocabulary())

    def test_loader_drops_words_outside_vocab(self, tmp_path):
        vocab = Vocabulary(["a", "b"])
        path = tmp_path / "ch.model"
        path.write_text(
            "CHANNEL 6\na a 0.6\na zz 0.2\na b 0.2\nb zz 1\nzz a 0.5\nzz zz 0.5\n"
        )
        cm = load_channel(path, vocab)
        assert len(vocab) == 2
        assert set(cm.rows) == {0}
        assert cm.rows[0] == pytest.approx({0: 0.75, 1: 0.25})

    def test_loader_validates_sums_of_outside_rows(self, tmp_path):
        path = tmp_path / "ch.model"
        path.write_text("CHANNEL 2\nzz a 0.5\nzz b 0.2\n")
        with pytest.raises(ValidationError, match="zz"):
            load_channel(path, Vocabulary(["a", "b"]))


def long_channel_file(bad_line, replacement):
    """9000 one-entry rows over words w0000..w8999, with line ``bad_line`` replaced."""
    lines = ["CHANNEL 9000"] + [f"w{i:04d} w{i:04d} 1" for i in range(9000)]
    lines[bad_line - 1] = replacement
    return "\n".join(lines) + "\n"


LONG_VOCAB = [f"w{i:04d}" for i in range(9000)]

# (file text, exception, message): every error the loader reports, with its
# line; the vocabulary is {a, b} unless the case is one of the long files
CHANNEL_ERRORS = [
    ("", ParseError, "line 1: empty channel file"),
    ("CHANNEL\n", ParseError, "line 1: expected 'CHANNEL <rows>', got 'CHANNEL'"),
    ("CHANNEL two\na a 1\n", ParseError, "line 1: expected 'CHANNEL <rows>', got 'CHANNEL two'"),
    ("CHANNEL 3\na a 0.5\na b 0.5\n", ParseError, "line 1: header declares 3 rows, found 2"),
    ("CHANNEL 1\na a 0.5\na b 0.5\n", ParseError, "line 1: header declares 1 rows, found 2"),
    ("CHANNEL 2\na a 0.5\na b\n", ParseError, "line 3: expected '<w> <v> <prob>', got 'a b'"),
    # one field too many and one too few: the file still holds three per line
    ("CHANNEL 2\na a 0.5 a\nb 0.5\n", ParseError,
     "line 2: expected '<w> <v> <prob>', got 'a a 0.5 a'"),
    ("CHANNEL 2\na a 0.5\n\n", ParseError, "line 3: expected '<w> <v> <prob>', got ''"),
    ("CHANNEL 2\na a half\na b 0.5\n", ParseError, "line 2: bad probability 'half'"),
    ("CHANNEL 2\na a 1\na b 0\n", ValidationError, "line 3: non-positive probability 0"),
    ("CHANNEL 2\na a 1.5\na b -0.5\n", ValidationError, "line 3: non-positive probability -0.5"),
    # the first bad line wins
    ("CHANNEL 3\na a 0\na b x\nb\n", ValidationError, "line 2: non-positive probability 0"),
    ("CHANNEL 3\na a 1\nb b x\nb a 0\n", ParseError, "line 3: bad probability 'x'"),
    ("CHANNEL 3\na a 0.5\nb b 1\nb a x\n", ParseError, "line 4: bad probability 'x'"),
    ("CHANNEL 2\na a 0.5\na b 0.25\n", ValidationError, "channel row 'a' sums to 0.75"),
    # rows are checked in the order their spoken word first appears
    ("CHANNEL 3\nb b 0.5\na a 0.5\nb a 0.25\n", ValidationError, "channel row 'b' sums to 0.75"),
    ("CHANNEL 4\na a 0.25\nb b 1\nzz a 0.5\na b 0.5\n", ValidationError,
     "channel row 'a' sums to 0.75"),
    # a row outside the vocabulary, and a row summed before outside words drop
    ("CHANNEL 2\nzz a 0.5\nzz b 0.25\n", ValidationError, "channel row 'zz' sums to 0.75"),
    ("CHANNEL 2\na zz 0.5\na a 0.25\n", ValidationError, "channel row 'a' sums to 0.75"),
    ("CHANNEL 3\nb b 1\nyy a 0.5\nyy zz 0.25\n", ValidationError, "channel row 'yy' sums to 0.75"),
    # past the first few thousand lines
    (long_channel_file(9001, "w8999 w8999 x"), ParseError, "line 9001: bad probability 'x'"),
    (long_channel_file(8194, "w8192 w8192"), ParseError,
     "line 8194: expected '<w> <v> <prob>', got 'w8192 w8192'"),
    (long_channel_file(8500, "w8498 w8498 -1"), ValidationError,
     "line 8500: non-positive probability -1"),
    (long_channel_file(8700, "w8698 w8698 0.5"), ValidationError,
     "channel row 'w8698' sums to 0.5"),
]


class TestLoaderErrors:
    @pytest.mark.parametrize("text,exc,message", CHANNEL_ERRORS,
                             ids=[m for _, _, m in CHANNEL_ERRORS])
    def test_message_and_line(self, tmp_path, text, exc, message):
        path = tmp_path / "ch.model"
        path.write_text(text, encoding="utf-8")
        vocab = Vocabulary(LONG_VOCAB if text.startswith("CHANNEL 9000") else ["a", "b"])
        with pytest.raises(exc) as info:
            load_channel(path, vocab)
        assert str(info.value) == message

    def test_other_breaks_are_whitespace(self, tmp_path):
        # only "\n", "\r\n" and "\r" end a line; \v, \f, \x1c-\x1e, \x85,
        # U+2028 and U+2029 are whitespace inside one
        path = tmp_path / "ch.model"
        path.write_text("CHANNEL 3\r\na a 0.5\x0ca b 0.5\x85b b 1", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_channel(path, Vocabulary(["a", "b"]))
        assert str(info.value) == "line 1: header declares 3 rows, found 1"
        path.write_text("CHANNEL 3\ra\x0ca\x850.5\r\na\u2028b 0.5\nb\x1cb 1\u2029",
                        encoding="utf-8")
        cm = load_channel(path, Vocabulary(["a", "b"]))
        assert cm.rows == {0: {0: 0.5, 1: 0.5}, 1: {1: 1.0}}


WORDS = st.text(alphabet="abcxyzé", min_size=1, max_size=3)


@st.composite
def channel_files(draw, words=WORDS, forms=("{!r}", "{:.12g}", "{:.17e}")):
    """A vocabulary whose ids are not in string order, words outside it, and
    the entries of every row shuffled together, as a channel file's text;
    each row's probabilities are written in one of ``forms``."""
    names = draw(st.lists(words, min_size=2, max_size=12, unique=True))
    n_known = draw(st.integers(1, len(names)))
    known, others = names[:n_known], ["o" + w for w in names[n_known:]]
    words = known + others
    entries = []
    for w in draw(st.lists(st.sampled_from(words), min_size=1, unique=True)):
        observed = draw(st.lists(st.sampled_from(words), min_size=1, unique=True))
        weights = draw(st.lists(st.integers(1, 10**6), min_size=len(observed),
                                max_size=len(observed)))
        form = draw(st.sampled_from(forms))
        total = sum(weights)
        entries += [(w, v, write_prob(c / total, form)) for v, c in zip(observed, weights)]
    entries = draw(st.permutations(entries))
    text = f"CHANNEL {len(entries)}\n" + "".join(f"{w} {v} {p}\n" for w, v, p in entries)
    return text, known


class TestLoaderExactness:
    @given(channel_files())
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_line_by_line_reference(self, tmp_path_factory, case):
        text, known = case
        path = tmp_path_factory.mktemp("ch") / "ch.model"
        path.write_text(text, encoding="utf-8")
        vocab = Vocabulary(known)
        cm = load_channel(path, vocab)
        assert len(vocab) == len(known)
        assert cm.rows == reference_load_channel(text, Vocabulary(known))

    @given(channel_files(EDGE_WORDS, PROB_FORMS))
    @settings(max_examples=150, deadline=None)
    def test_edge_words_and_numbers_equal_reference(self, tmp_path_factory, case):
        text, known = case
        path = tmp_path_factory.mktemp("ch") / "ch.model"
        path.write_bytes(text.encode("utf-8"))
        cm = load_channel(path, Vocabulary(known))
        assert cm.rows == reference_load_channel(text, Vocabulary(known))

    # reads of a few bytes end inside a line, inside a token and
    # between the "\r" and "\n" of a line end
    @pytest.mark.parametrize("block_bytes", [1, 2, 7, 8192])
    @given(case=channel_files(), end=st.sampled_from(["\n", "\r\n", "\r"]))
    @settings(max_examples=80, deadline=None)
    def test_chunk_boundaries_do_not_matter(self, tmp_path_factory, block_bytes, case, end):
        text, known = case
        path = tmp_path_factory.mktemp("ch") / "ch.model"
        path.write_bytes(text.replace("\n", end).encode("utf-8"))
        with mock.patch.object(modelfile, "BLOCK_BYTES", block_bytes):
            cm = load_channel(path, Vocabulary(known))
        assert cm.rows == reference_load_channel(text, Vocabulary(known))

    def test_arrays_hold_sorted_rows(self, tmp_path):
        path = tmp_path / "ch.model"
        path.write_text("CHANNEL 5\nb a 0.5\na b 0.25\nb b 0.5\na a 0.5\na c 0.25\n")
        cm = load_channel(path, Vocabulary(["c", "b", "a"]))
        assert cm.ptr.tolist() == [0, 0, 2, 5]
        assert cm.obs.tolist() == [1, 2, 0, 1, 2]
        assert cm.probs.tolist() == [0.5, 0.5, 0.25, 0.25, 0.5]


class TestLoaderRejects:
    """Files the loader rejects although a line-by-line read once took them."""

    @pytest.mark.parametrize("text,line", [
        ("CHANNEL 2\na a nan\na b 0.5\n", 2),
        ("CHANNEL 3\na a 1\nb b 0.5\nb a NaN\n", 4),
        (long_channel_file(8999, "w8997 w8997 nan"), 8999),
    ], ids=["first-row", "later-row", "past-first-chunk"])
    def test_nan_probability(self, tmp_path, text, line):
        path = tmp_path / "ch.model"
        path.write_text(text, encoding="utf-8")
        vocab = Vocabulary(LONG_VOCAB if text.startswith("CHANNEL 9000") else ["a", "b"])
        with pytest.raises(ValidationError,
                           match=rf"^line {line}: probability \S+ is not a number$"):
            load_channel(path, vocab)

    @pytest.mark.parametrize("text,message", [
        # the last entry once won, so this row summed to 1
        ("CHANNEL 3\na a 0.5\na a 0.5\na b 0.5\n", "line 3: duplicate entry 'a' 'a'"),
        ("CHANNEL 4\na b 0.5\nb b 1\na a 0.5\na b 0.5\n", "line 5: duplicate entry 'a' 'b'"),
        # the first line that repeats an earlier one is named
        ("CHANNEL 5\nb b 1\na a 0.5\na b 0.5\na b 0.5\nb b 1\n",
         "line 5: duplicate entry 'a' 'b'"),
        ("CHANNEL 4\nzz a 1\nzz zz 0.5\na a 1\nzz zz 0.5\n", "line 5: duplicate entry 'zz' 'zz'"),
        (long_channel_file(9001, "w0001 w0001 1"), "line 9001: duplicate entry 'w0001' 'w0001'"),
    ], ids=["adjacent", "apart", "first-repeat", "outside", "past-first-chunk"])
    def test_duplicate_entry(self, tmp_path, text, message):
        path = tmp_path / "ch.model"
        path.write_text(text, encoding="utf-8")
        vocab = Vocabulary(LONG_VOCAB if text.startswith("CHANNEL 9000") else ["a", "b"])
        with pytest.raises(ParseError) as info:
            load_channel(path, vocab)
        assert str(info.value) == message

    @pytest.mark.parametrize("header", ["CHANNEL \u0661", "CHANNEL \uff11"],
                             ids=["arabic", "fullwidth"])
    def test_row_count_takes_ascii_digits_only(self, tmp_path, header):
        # \d once read each of these as 1 row
        path = tmp_path / "ch.model"
        path.write_text(header + "\na a 1\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_channel(path, Vocabulary(["a"]))
        assert str(info.value) == f"line 1: expected 'CHANNEL <rows>', got {header!r}"

"""The byte reader the model loaders share: numbers against float(), in
blocks of few tokens and of many repeats, word keys against dict lookups,
and the memory a load needs; and the line writer the model files and the
unigram share."""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnadapt import modelfile
from cnadapt.channel import ChannelModel, load_channel, save_channel
from cnadapt.corpus import Vocabulary
from cnadapt.modelfile import Block, WordKeys, write_lines
from cnadapt.topics import load_topic_model, save_topic_model
from helpers import EDGE_WORDS, make_topic_model, traced_peak

# edges of the number form: 15 to 17 significant digits, 2**53, powers of
# ten at and past 22, the optional parts of the form, the tokens only a str
# reads, a NUL the padded cast would drop and a token wider than PAD
WIDE = "0." + "0" * 37 + "1"  # 40 bytes
EDGE_NUMBERS = [
    "1", "1.", ".5", "00.5", "+0.5", "1_0", "1E+05", "1e-10", "inf", "NaN", "-0.0",
    "123456789012345", "1234567890123456", "12345678901234567",
    "0.123456789012345", "0.1234567890123456", "0.12345678901234567",
    "9007199254740991", "9007199254740992", "9007199254740993", "900719925474099.3",
    "1e22", "1e23", "1e-22", "1e-23", "4.5e22", "4.5e-23", "0.1e-21", "1234e-25",
    # past the float range, which float() reads as inf and 0.0
    "1e400", "-1e400", "1e-400",
    "0.000000000000000000001", "1e-000", "1e0001", "1e", "e5", ".", "..5", "1.2.3",
    "1e5.5", "1e+-5", "0x10", "١", "1__0", "1.5E-7", "7.58394403183e-08",
    # digits of an integer between 2**53 and 2**54, which one IEEE divide
    # would round twice
    "138049845.79974445", "13804984579974445e-8",
    # 20 digits, whose integer 2**64 + 5 would wrap around a uint64
    "184467440737095.51621",
    "0.5\x00", WIDE,
    # a short token that ends the block after the wide one, where a window
    # of its width would pass the padding
    "2",
]
FORMATS = ["{!r}", "{:.12g}", "{:.15g}", "{:.16g}", "{:.17g}", "{:.17e}", "{:.15e}", "{:E}"]
NUMBERS = st.one_of(
    st.sampled_from(EDGE_NUMBERS),
    st.from_regex(r"\A[+-]?[0-9]{0,20}(\.[0-9]{0,20})?([eE][+-]?[0-9]{1,4})?\Z").filter(bool),
    st.tuples(st.floats(allow_nan=False), st.sampled_from(FORMATS)).map(
        lambda t: t[1].format(t[0])),
    st.tuples(st.floats(1e-30, 1.0), st.sampled_from(FORMATS)).map(lambda t: t[1].format(t[0])),
)


def block_of(lines):
    return Block("".join(line + "\n" for line in lines).encode("utf-8"), 2)


# the forms the model writers use, which the bytes cast reads alone
EXACT = st.one_of(
    st.from_regex(r"\A[0-9]{1,8}\.[0-9]{0,7}\Z"),
    st.from_regex(r"\A[0-9]{0,8}\.[0-9]{1,7}([eE][+-]?[0-9])?\Z"),
    st.from_regex(r"\A[1-9][0-9]{0,5}[eE][+-]?1?[0-9]\Z"),
    st.tuples(st.floats(1e-9, 1.0), st.sampled_from(["{:.12g}", "{:E}"])).map(
        lambda t: t[1].format(t[0])),
    st.floats(0.01, 1.0).map("{:.15g}".format),
)


class TestFloats:
    @given(st.lists(NUMBERS, min_size=1, max_size=30))
    @example(EDGE_NUMBERS)
    @example([WIDE])  # the wide token last in its block
    @settings(max_examples=300, deadline=None)
    def test_bitwise_float(self, tokens):
        """Each token float() reads is read bitwise as float() reads it; a
        token float() rejects makes its block read as None."""
        want = {}
        for t in tokens:
            try:
                want[t] = float(t)
            except ValueError:
                want[t] = None
        good = [t for t in tokens if want[t] is not None]
        if good:
            block = block_of(f"w {t}" for t in good)
            assert block.fields(2)
            got = block.floats(np.arange(1, 2 * len(good), 2))
            assert got.view(np.uint64).tolist() == np.array(
                [want[t] for t in good]).view(np.uint64).tolist()
        for t in tokens:
            if want[t] is None:
                assert block_of([f"w {t}"]).floats(np.array([1])) is None

    @given(st.lists(EXACT, min_size=1, max_size=30))
    @example(["0.6", "1e-10", "7.58394403183e-08", "0.0444444444444", "1E+05", ".5", "1.",
              "123456789012345", "0.1234567890123456", "1e22", "1e-22", "4.5e-07"])
    @settings(max_examples=200, deadline=None)
    def test_exact_case_needs_no_float(self, tokens):
        """The forms the model writers use (``{:.12g}``) are read by the
        bytes cast alone; the str path is the fallback, not the reader."""
        block = block_of(f"w {t}" for t in tokens)
        calls = []
        text = Block.text
        with mock.patch.object(Block, "text", autospec=True,
                               side_effect=lambda *a: calls.append(a) or text(*a)):
            got = block.floats(np.arange(1, 2 * len(tokens), 2))
        want = np.array([float(t) for t in tokens])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert calls == []


def read_as_float(tokens):
    """The numbers of ``tokens``, one per line after a word, as
    ``Block.floats`` reads them."""
    return block_of(f"w {t}" for t in tokens).floats(np.arange(1, 2 * len(tokens), 2))


def assert_bitwise(got, tokens):
    want = np.array([float(t) for t in tokens])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


# tokens of 24, 25 and 33 bytes: three and four words of eight bytes, and one
# wider than PAD
LONG_NUMBERS = ["0." + "0" * 21 + "5", "0." + "0" * 22 + "5", "0." + "0" * 30 + "5"]


class TestRepeatedFloats:
    """Blocks of many tokens, most of them repeats, as the model files hold:
    each distinct token is cast once and every token is read bitwise as
    ``float()`` reads it."""

    @given(st.lists(NUMBERS, min_size=1, max_size=40), st.integers(200, 5000),
           st.integers(0, 2**32 - 1))
    @example(EDGE_NUMBERS, 3000, 0)
    @example(LONG_NUMBERS + ["0.5", "0.25"], 1000, 1)
    @settings(max_examples=60, deadline=None)
    def test_repeats_read_bitwise(self, pool, n, seed):
        good = []
        for t in pool:
            try:
                float(t)
                good.append(t)
            except ValueError:
                pass
        if good:
            tokens = [good[i] for i in np.random.default_rng(seed).choice(len(good), n)]
            assert_bitwise(read_as_float(tokens), tokens)

    @pytest.mark.parametrize("distinct", [
        ["{:.12g}".format(v) for v in (np.arange(1, 20001) / 20011).tolist()],
        # all alike in their first word, then in their first two
        ["{:.12g}".format(0.5 + k * 1e-11) for k in range(1, 20001)],
        [f"1.00000000000000e{s}{k}" for s in "+-" for k in range(1, 309)],
    ], ids=["12g", "word-0-alike", "words-0-1-alike"])
    def test_distinct_tokens_collide(self, distinct):
        """Thousands of distinct numbers and their repeats: slots are shared
        by tokens of other bytes, which each stand for themselves."""
        assert len(set(distinct)) == len(distinct)
        rng = np.random.default_rng(11)
        tokens = distinct + [distinct[i] for i in rng.choice(len(distinct), 5000)]
        rng.shuffle(tokens)
        assert_bitwise(read_as_float(tokens), tokens)

    @pytest.mark.parametrize("bad", ["1e", "0x10", "nan(1)", "1.2.3"])
    def test_repeated_bad_token(self, bad):
        """A bad token repeated among good ones makes the block None,
        whichever of its copies holds a slot."""
        tokens = ["0.5", "0.25", bad] * 400 + [bad, "0.125"]
        assert read_as_float(tokens) is None

    def test_repeated_nul(self):
        """A NUL byte, which ``float()`` rejects, makes the block None."""
        assert read_as_float(["0.5", "0.5\x00", "0.25", "1e-10"] * 500) is None

    def test_repeated_digits_outside_ascii(self):
        """Digits outside ASCII, which only a str reads, are read as
        ``float()`` reads them."""
        tokens = ["0.5", "١", "0.25", "1e-10"] * 500
        assert_bitwise(read_as_float(tokens), tokens)

    @pytest.mark.parametrize("token", LONG_NUMBERS)
    def test_long_tokens(self, token):
        tokens = [token, "0.5", token, "0.125", "1"] * 300
        assert_bitwise(read_as_float(tokens), tokens)

    def test_channel_casts_each_distinct_probability_once(self, tmp_path):
        """A 20,000-entry channel whose probabilities take three values casts
        at most three tokens per block."""
        words = [f"w{i:05d}" for i in range(12000)]
        lines, w = [], 0
        while len(lines) < 20000:
            k = (1, 2, 4)[w % 3]
            lines += [f"{words[w]} {words[(w + j) % len(words)]} {1 / k}" for j in range(k)]
            w += 1
        path = tmp_path / "ch.model"
        path.write_text(f"CHANNEL {len(lines)}\n" + "\n".join(lines) + "\n")
        sizes = []
        cast = modelfile._cast
        with mock.patch.object(modelfile, "_cast",
                               side_effect=lambda s: sizes.append(s.size) or cast(s)):
            cm = load_channel(path, Vocabulary(words))
        assert len(sizes) > 1 and max(sizes) <= 3, sizes
        assert sorted(set(cm.probs.tolist())) == [0.25, 0.5, 1.0]
        assert cm.probs.size == len(lines)


class TestWordKeys:
    @given(st.lists(EDGE_WORDS, unique=True, max_size=20),
           st.lists(EDGE_WORDS, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_find_and_distinct_match_a_dict(self, vocab, words):
        block = block_of([" ".join(words)])
        keys = block.words(np.arange(len(words)))
        index = {w: i for i, w in enumerate(vocab)}
        assert keys.find(WordKeys.of_words(vocab).index()).tolist() == [
            index.get(w, -1) for w in words]
        word, first = keys.distinct()
        assert [words[i] for i in first[word]] == words
        assert len(first) == len(set(words))
        assert block.text(np.arange(len(words))) == words

    @given(st.lists(EDGE_WORDS, min_size=1, max_size=40), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_distinct_in_first_occurrence_order(self, words, one_slot):
        """One number per distinct word, numbered in the order the words
        first occur, also when every word is hashed to one slot and all
        but the first word's are matched exactly."""
        keys = block_of([" ".join(words)]).words(np.arange(len(words)))
        mix = np.zeros(4, dtype=np.uint64) if one_slot else modelfile._MIX
        with mock.patch.object(modelfile, "_MIX", mix):
            word, first = keys.distinct()
        assert [words[i] for i in first] == list(dict.fromkeys(words))
        assert [words[i] for i in first[word]] == words

    @given(st.lists(EDGE_WORDS, min_size=1, max_size=20, unique=True), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equal_compares_word_for_word(self, vocab, data):
        at = data.draw(st.lists(st.integers(0, len(vocab) - 1), min_size=1, max_size=30))
        words = [vocab[i] for i in at]
        swap = data.draw(st.none() | st.integers(0, len(at) - 1))
        if swap is not None:
            words[swap] = data.draw(EDGE_WORDS.filter(lambda w: w != words[swap]))
        keys = block_of([" ".join(words)]).words(np.arange(len(words)))
        same = keys.equal(WordKeys.of_words(vocab), np.array(at))
        assert same.tolist() == [i != swap for i in range(len(at))]


class TestLoadMemory:
    """The loaders read a file a block at a time and keep one copy of each
    array they return, so the scratch memory of a load of many blocks
    stays within a fixed bound above what it keeps.  These four loads
    measured 3.6, 6.6, 3.6 and 8.1 MB; with blocks of 1 MB instead of
    256 KB they took 13, 20, 13 and 19 MB.  When the topic rows were
    copied twice to be floored and normalized, and the channel made a sort
    key and a divided copy of its probabilities, the last two took 12.8
    and 12.1 MB."""

    def test_topic_model(self, tmp_path):
        """10 topics over 20,000 words: 200,010 lines, 4.9 MB."""
        path = tmp_path / "m.topics"
        save_topic_model(make_topic_model(np.random.default_rng(3), 10, 20000), path)
        tm, scratch = traced_peak(load_topic_model, path)
        assert tm.probs.shape == (10, 20000)
        assert scratch < 8e6

    def test_channel(self, tmp_path):
        """199,966 entries over 20,000 words: 3.4 MB."""
        tm = make_topic_model(np.random.default_rng(5), 1, 20000)
        words = tm.vocab.words
        obs = np.random.default_rng(4).choice(20000, (20000, 10))
        lines = []
        for w, row in zip(words, obs.tolist()):
            seen = sorted(set(row))
            lines += [f"{w} {words[o]} {1 / len(seen)!r}" for o in seen]
        path = tmp_path / "ch.model"
        path.write_text(f"CHANNEL {len(lines)}\n" + "\n".join(lines) + "\n")
        cm, scratch = traced_peak(load_channel, path, tm.vocab)
        assert cm.obs.size == len(lines) == 199966
        assert scratch < 12e6

    def test_topic_model_held_once(self, tmp_path):
        """40 topics over 20,000 words: 6.4 MB of rows, many blocks' worth.
        The rows are floored and normalized where they were read, so no
        second T x V array is made."""
        path = tmp_path / "m.topics"
        save_topic_model(make_topic_model(np.random.default_rng(6), 40, 20000), path)
        tm, scratch = traced_peak(load_topic_model, path)
        assert tm.probs.shape == (40, 20000)
        assert scratch < tm.probs.nbytes

    def test_channel_held_once(self, tmp_path):
        """10 entries for each of 50,000 words, as save_channel writes them:
        the sizes of the directory benchmark's channel.  The entries are
        checked for order without a key array and divided by their row
        totals in place, so the load's scratch stays below the arrays it
        keeps."""
        V, k = 50000, 10
        rng = np.random.default_rng(7)
        spoken = np.repeat(np.arange(V), k)
        obs = np.sort((spoken.reshape(V, k) + rng.choice(V, k, replace=False)) % V)
        probs = rng.random((V, k))
        probs /= probs.sum(axis=1, keepdims=True)
        vocab = Vocabulary(f"w{i:05d}" for i in range(V))
        path = tmp_path / "ch.model"
        save_channel(ChannelModel(spoken, obs.ravel(), probs.ravel(), V), vocab, path)
        cm, scratch = traced_peak(load_channel, path, vocab)
        kept = cm.ptr.nbytes + cm.obs.nbytes + cm.probs.nbytes
        assert np.array_equal(cm.obs, obs.ravel())
        assert scratch < kept


class TestWriteLines:
    @pytest.mark.parametrize("rows", [1, 3, 7, modelfile.WRITE_LINES])
    def test_rows_at_a_time_do_not_matter(self, rows):
        """Every row is written once, in order, as ``fmt.format`` of its
        Python values, whatever the number of rows written at a time."""
        words = ("a", "café", "日本", "b", "c", "d", "e")
        probs = np.array([1 / 3, 0.1, 1.0, 0.0, 1e-300, 5e-324, 123456789.125])
        names = np.array(words[::-1], dtype=object)
        fh = io.StringIO()
        with mock.patch.object(modelfile, "WRITE_LINES", rows):
            write_lines(fh, "{} {} {:.12g}\n", words, names, probs)
        assert fh.getvalue() == "".join(
            f"{w} {v} {p:.12g}\n" for w, v, p in zip(words, words[::-1], probs))

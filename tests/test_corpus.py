import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnadapt.corpus import (
    Bin,
    ConfusionNetwork,
    Conversation,
    Vocabulary,
    expected_counts,
    format_posterior,
    parse_conversation,
    prune_bin,
    serialize_conversation,
)
from cnadapt.errors import ParseError, ValidationError


def make_bin(vocab, cells):
    return Bin([(vocab.add(w), p) for w, p in cells])


class TestParse:
    def test_basic(self):
        vocab = Vocabulary()
        conv = parse_conversation("CONV c1\nNET u1 1\nBIN a:0.6 b:0.4\n", vocab)
        assert conv.cid == "c1"
        assert len(conv.networks) == 1
        assert conv.networks[0].uid == "u1"
        assert conv.total_bins == 1
        assert conv.networks[0].bins[0].cells == (
            (vocab.id("a"), 0.6),
            (vocab.id("b"), 0.4),
        )

    def test_posterior_above_one(self):
        with pytest.raises(ValidationError, match="outside"):
            parse_conversation("CONV c1\nNET u1 1\nBIN a:1.2\n", Vocabulary())

    def test_posterior_zero_rejected(self):
        with pytest.raises(ValidationError):
            parse_conversation("CONV c1\nNET u1 1\nBIN a:0\n", Vocabulary())

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_conversation("CONV c1\nNET u1 1\nBOGUS a:0.5\n", Vocabulary())

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
        assert [vocab.id(vocab.word(i)) for i in range(len(vocab))] == [0, 1]
        assert vocab.add("x") == 0
        assert len(vocab) == 2
        assert vocab.add("z") == 2


class TestBin:
    def test_canonical_order_and_one_best(self):
        b = Bin([(3, 0.2), (1, 0.5), (2, 0.2)])
        assert b.cells == ((1, 0.5), (2, 0.2), (3, 0.2))
        assert b.one_best() == (1, 0.5)

    def test_tie_break_is_word_id(self):
        b = Bin([(9, 0.5), (4, 0.5)])
        assert b.one_best() == (4, 0.5)


class TestPrune:
    def test_relative_floor(self):
        vocab = Vocabulary()
        b = make_bin(vocab, [("a", 0.8), ("c", 0.05), ("b", 0.03)])
        pruned = prune_bin(b, rel_floor=0.05, max_words=10)
        assert pruned.cells == (
            (vocab.id("a"), 0.8),
            (vocab.id("c"), 0.05),
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


class TestExpectedCounts:
    def test_hand_example(self):
        vocab = Vocabulary()
        conv = Conversation(
            "c1",
            (
                ConfusionNetwork(
                    "u1",
                    (
                        make_bin(vocab, [("a", 0.6), ("b", 0.4)]),
                        make_bin(vocab, [("a", 0.7), ("c", 0.3)]),
                    ),
                ),
            ),
        )
        tf = expected_counts(conv)
        assert tf[vocab.id("a")] == pytest.approx(1.3)
        assert tf[vocab.id("b")] == pytest.approx(0.4)
        assert tf[vocab.id("c")] == pytest.approx(0.3)

    def test_singleton(self):
        conv = Conversation("c", (ConfusionNetwork("u", (Bin([(0, 1.0)]),)),))
        assert expected_counts(conv) == {0: 1.0}

    def test_total_matches_posterior_mass(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            bins = []
            for _ in range(int(rng.integers(1, 30))):
                wids = rng.choice(30, size=k, replace=False)
                post = rng.dirichlet(np.ones(k)) * rng.uniform(0.3, 1.0)
                bins.append(Bin([(int(w), float(p)) for w, p in zip(wids, post)]))
            conv = Conversation("c", (ConfusionNetwork("u", tuple(bins)),))
            total_tf = sum(expected_counts(conv).values())
            total_mass = sum(p for b in bins for _, p in b.cells)
            assert total_tf == pytest.approx(total_mass, abs=1e-12)


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
        bins = [b.cells for b in conv.iter_bins()]
        assert bins[0] == ((0, 0.5), (1, pytest.approx(0.5)))
        assert bins[1] == ((1, 1.0),)
        assert bins[2] == ((1, 1.0),)

    def test_without_unk_cells_bins_and_utterances_drop(self):
        vocab = Vocabulary(["a", "b"])
        conv = parse_conversation(self.TEXT, vocab, closed=True)
        assert len(vocab) == 2
        assert conv.oov_cells == 4
        assert [net.uid for net in conv.networks] == ["u1"]
        assert [b.cells for b in conv.iter_bins()] == [((0, 0.5),)]

    def test_nothing_left_is_an_input_error(self):
        with pytest.raises(ValidationError, match="no word"):
            parse_conversation("CONV c\nNET u 1\nBIN zz:1\n", Vocabulary(["a"]), closed=True)

    def test_open_vocabulary_interns(self):
        vocab = Vocabulary(["a"])
        conv = parse_conversation("CONV c\nNET u 1\nBIN zz:1\n", vocab)
        assert "zz" in vocab
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

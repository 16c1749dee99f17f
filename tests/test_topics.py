from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import EDGE_WORDS, PROB_FORMS, reference_load_topic_model, write_prob
from cnadapt.adapt import adapted_unigram
from cnadapt import modelfile
from cnadapt.corpus import Vocabulary
from cnadapt.errors import ParseError, TrainingError, ValidationError
from cnadapt.topics import (
    PROB_FLOOR,
    UNK_WORD,
    MixtureWeights,
    TopicModel,
    floor_and_normalize,
    load_topic_model,
    mu_to_lambda,
    save_topic_model,
    train_topic_model,
)


class TestTraining:
    def test_witten_bell_hand_example(self):
        vocab = Vocabulary(["a", "b", "c", "d"])
        tm = train_topic_model([("t", ["a", "a", "b"])], vocab)
        # 4 declared words plus the automatic unknown-word entry
        row = tm.probs[0]
        expect = oracles.witten_bell({0: 2, 1: 1}, len(vocab))
        assert np.allclose(row, expect / expect.sum(), atol=1e-9)
        assert row[vocab.get("a")] == pytest.approx(0.4, rel=1e-9)
        assert row[vocab.get("b")] == pytest.approx(0.2, rel=1e-9)
        assert row[vocab.get("c")] == pytest.approx(2 / 15, rel=1e-9)
        assert row[vocab.get(UNK_WORD)] == pytest.approx(2 / 15, rel=1e-9)

    def test_witten_bell_without_unk_dilution(self):
        # exact spec numbers hold when the vocabulary is just {a,b,c,d}
        expect = oracles.witten_bell({0: 2, 1: 1}, 4)
        assert np.allclose(expect, [0.4, 0.2, 0.2, 0.2], atol=1e-12)

    def test_no_unseen_words(self):
        vocab = Vocabulary()
        tm = train_topic_model(
            [("t", ["a", "a", "a"] + [UNK_WORD])], vocab
        )
        # every vocab word seen: plain relative frequencies
        assert tm.probs[0][vocab.get("a")] == pytest.approx(0.75, rel=1e-9)

    def test_single_word_topic(self):
        vocab = Vocabulary(["a"])
        tm = train_topic_model([("t", ["a", "a", "a"])], vocab)
        row = tm.probs[0]
        assert row[vocab.get("a")] > 0.5
        assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rows_sum_to_one_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            vocab = Vocabulary(f"w{i}" for i in range(20))
            corpus = []
            for t in range(int(rng.integers(1, 5))):
                toks = [f"w{rng.integers(0, 25)}" for _ in range(int(rng.integers(1, 60)))]
                corpus.append((f"t{t}", toks))
            tm = train_topic_model(corpus, vocab)
            assert np.allclose(tm.probs.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(tm.probs >= PROB_FLOOR)

    def test_rows_equal_per_word_reference(self):
        """Bitwise the rows of ``oracles.witten_bell``, word by word, over
        pooled labels, words first seen in training and topics with no
        unseen word."""
        rng = np.random.default_rng(5)
        for _ in range(60):
            vocab = Vocabulary(f"w{i}" for i in range(int(rng.integers(0, 6))))
            corpus = [(f"t{rng.integers(0, 4)}",
                       [f"w{i}" for i in rng.integers(0, 12, int(rng.integers(1, 40)))])
                      for _ in range(int(rng.integers(1, 7)))]
            if rng.random() < 0.3:
                corpus.append(("all", [f"w{i}" for i in range(12)] + [UNK_WORD]))
            tm = train_topic_model(corpus, vocab)
            counts = {}
            for label, tokens in corpus:
                c = counts.setdefault(label, {})
                for tok in tokens:
                    c[vocab.get(tok)] = c.get(vocab.get(tok), 0) + 1
            assert tm.labels == list(counts)
            want = np.array([oracles.witten_bell(c, len(vocab)) for c in counts.values()])
            assert tm.probs.tobytes() == floor_and_normalize(want).tobytes()

    def test_empty_topic_fails(self):
        with pytest.raises(TrainingError):
            train_topic_model([("t", [])], Vocabulary())
        with pytest.raises(TrainingError):
            train_topic_model([], Vocabulary())

    def test_pooling_repeated_labels(self):
        vocab = Vocabulary()
        tm1 = train_topic_model([("t", ["a"]), ("t", ["b"])], vocab)
        vocab2 = Vocabulary()
        tm2 = train_topic_model([("t", ["a", "b"])], vocab2)
        assert np.allclose(tm1.probs, tm2.probs)


class TestFloorAndNormalize:
    def test_in_place(self):
        """The rows are floored and normalized where they are, bitwise as a
        clamp, a division by the row sums and a second clamp compute them."""
        rows = np.random.default_rng(9).dirichlet(np.full(300, 0.05), size=4)
        rows[0, :3] = [0.0, 1e-12, 0.5]
        expect = np.maximum(rows, PROB_FLOOR)
        expect = np.maximum(expect / expect.sum(axis=1, keepdims=True), PROB_FLOOR)
        assert floor_and_normalize(rows) is rows
        assert rows.tobytes() == expect.tobytes()


class TestMixture:
    def make_tm(self):
        vocab = Vocabulary(["a", "b"])
        return vocab, TopicModel(["t1", "t2"], vocab, np.array([[0.9, 0.1], [0.2, 0.8]]))

    def test_hand_example(self):
        vocab, tm = self.make_tm()
        lw = MixtureWeights(np.array([0.5, 0.5]))
        assert adapted_unigram(tm, lw)[vocab.get("a")] == pytest.approx(0.55, abs=1e-12)

    def test_one_hot_recovers_row(self):
        vocab, tm = self.make_tm()
        lw = MixtureWeights(np.array([0.0, 1.0]))
        assert adapted_unigram(tm, lw)[vocab.get("a")] == pytest.approx(0.2, abs=1e-12)

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(0)
        vocab, tm = self.make_tm()
        for _ in range(20):
            lam = rng.dirichlet(np.ones(2))
            q = adapted_unigram(tm, MixtureWeights(lam))
            assert q.sum() == pytest.approx(1.0, abs=1e-9)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(1)
        _, tm = self.make_tm()
        l1 = rng.dirichlet(np.ones(2))
        l2 = rng.dirichlet(np.ones(2))
        mid = adapted_unigram(tm, MixtureWeights((l1 + l2) / 2))
        avg = (
            adapted_unigram(tm, MixtureWeights(l1))
            + adapted_unigram(tm, MixtureWeights(l2))
        ) / 2
        assert np.allclose(mid, avg, atol=1e-12)


class TestTopicModelChecks:
    """The checks ``TopicModel`` makes of the arrays it is given."""

    @pytest.mark.parametrize("probs, message", [
        ([[0.5, 0.5, 0.0]], "probs shape \\(1, 3\\) does not match 1 topics x 2 words"),
        ([0.5, 0.5], "does not match"),
        ([[1.0, 0.0]], "topic probabilities below floor"),
        ([[0.5, 0.4]], "topic rows do not sum to 1"),
    ], ids=["shape", "one-dimensional", "below-floor", "row-sum"])
    def test_rejected(self, probs, message):
        with pytest.raises(ValidationError, match=message):
            TopicModel(["t"], Vocabulary(["a", "b"]), np.array(probs))


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(mu_to_lambda([0.0, 0.0, 0.0]), np.full(3, 1 / 3), atol=1e-15)

    def test_hand_example(self):
        assert np.allclose(mu_to_lambda([np.log(2), 0.0]), [2 / 3, 1 / 3], atol=1e-12)

    def test_shift_invariance_and_positivity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mu = rng.normal(size=4) * 5
            lam = mu_to_lambda(mu)
            assert np.allclose(lam, mu_to_lambda(mu + 17.3), atol=1e-12)
            assert np.all(lam > 0)
            assert lam.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_weight_allowed(self):
        lw = MixtureWeights(np.array([0.0, 1.0]))
        assert lw.lam.tolist() == [0.0, 1.0]

    def test_invalid_weights(self):
        with pytest.raises(ValidationError):
            MixtureWeights(np.array([0.7, 0.7]))
        with pytest.raises(ValidationError):
            MixtureWeights(np.array([-0.1, 1.1]))


class TestModelFile:
    def test_round_trip(self, tmp_path):
        vocab = Vocabulary()
        tm = train_topic_model(
            [("news", ["a", "b", "a"]), ("sport", ["c", "c", "b"])], vocab
        )
        path = tmp_path / "m.topics"
        save_topic_model(tm, path)
        tm2 = load_topic_model(path)
        assert tm2.labels == tm.labels
        assert tm2.vocab.words == tm.vocab.words
        assert np.allclose(tm2.probs, tm.probs, rtol=1e-10)

    def test_loader_validates_row_sums(self, tmp_path):
        path = tmp_path / "bad.topics"
        path.write_text("TOPICS 1 2\nTOPIC t\na 0.9\nb 0.3\n")
        with pytest.raises(ValidationError):
            load_topic_model(path)

    def test_loader_validates_structure(self, tmp_path):
        path = tmp_path / "bad.topics"
        path.write_text("TOPICS 1 2\nTOPIC t\na 0.5\n")
        with pytest.raises(ParseError):
            load_topic_model(path)

    def test_save_is_deterministic(self, tmp_path):
        vocab = Vocabulary()
        tm = train_topic_model([("t", ["a", "b", "b"])], vocab)
        p1, p2 = tmp_path / "m1", tmp_path / "m2"
        save_topic_model(tm, p1)
        save_topic_model(tm, p2)
        assert p1.read_bytes() == p2.read_bytes()


def long_topics_file(bad_line, replacement):
    """Two topics over 5000 words (10003 lines) with line ``bad_line`` replaced."""
    words = [f"w{i:04d}" for i in range(5000)]
    lines = ["TOPICS 2 5000"]
    for label in ("s", "t"):
        lines.append(f"TOPIC {label}")
        lines += [f"{w} 0.0002" for w in words]
    lines[bad_line - 1] = replacement
    return "\n".join(lines) + "\n"


# (file text, exception, message): every error the loader reports, with its line
TOPIC_ERRORS = [
    ("", ParseError, "line 1: empty topic model file"),
    ("TOPIC 1 2\n", ParseError, "line 1: expected 'TOPICS <T> <V>', got 'TOPIC 1 2'"),
    ("TOPICS 1\n", ParseError, "line 1: expected 'TOPICS <T> <V>', got 'TOPICS 1'"),
    ("TOPICS one 2\nTOPIC t\na 0.5\nb 0.5\n", ParseError,
     "line 1: bad counts in header 'TOPICS one 2'"),
    ("TOPICS 1 2\nTOPIC t\na 0.5\n", ParseError, "line 3: expected 4 lines, found 3"),
    ("TOPICS 1 2\nTOPIC t\na 0.5\nb 0.5\nc 0\n", ParseError,
     "line 5: expected 4 lines, found 5"),
    # the line count is checked before any line
    ("TOPICS 1 2\nTOPC t\na x\n", ParseError, "line 3: expected 4 lines, found 3"),
    ("TOPICS 1 2\nTOPC t\na 0.5\nb 0.5\n", ParseError,
     "line 2: expected 'TOPIC <label>', got 'TOPC t'"),
    ("TOPICS 1 2\nTOPIC t u\na 0.5\nb 0.5\n", ParseError,
     "line 2: expected 'TOPIC <label>', got 'TOPIC t u'"),
    ("TOPICS 2 1\nTOPIC s\na 1\nTOPIK t\na 1\n", ParseError,
     "line 4: expected 'TOPIC <label>', got 'TOPIK t'"),
    ("TOPICS 1 2\nTOPIC t\na 0.5 x\nb 0.5\n", ParseError,
     "line 3: expected '<word> <prob>', got 'a 0.5 x'"),
    # one field too many and one too few: the file still holds two per line
    ("TOPICS 1 3\nTOPIC t\na 0.5 b\n0.25\nc 0.25\n", ParseError,
     "line 3: expected '<word> <prob>', got 'a 0.5 b'"),
    ("TOPICS 1 2\nTOPIC t\n\nb 0.5\n", ParseError, "line 3: expected '<word> <prob>', got ''"),
    ("TOPICS 1 2\nTOPIC t\na 0.5\na 0.5\n", ParseError, "line 4: duplicate word 'a'"),
    ("TOPICS 2 2\nTOPIC s\na 0.5\nb 0.5\nTOPIC t\nb 0.5\na 0.5\n", ParseError,
     "line 6: word 'b' out of order in topic 't'"),
    ("TOPICS 2 2\nTOPIC s\na 0.5\nb 0.5\nTOPIC t\na 0.5\nc 0.5\n", ParseError,
     "line 7: word 'c' out of order in topic 't'"),
    ("TOPICS 1 2\nTOPIC t\na 0.5\nb half\n", ParseError, "line 4: bad probability 'half'"),
    # the first bad line wins, and on one line the word is checked first
    ("TOPICS 1 3\nTOPIC t\na x\nb 0.5 y\nb 0.5\n", ParseError, "line 3: bad probability 'x'"),
    ("TOPICS 1 2\nTOPIC t\na 0.5\na x\n", ParseError, "line 4: duplicate word 'a'"),
    ("TOPICS 1 2\nTOPIC t\na 0.9\nb 0.3\n", ValidationError,
     "topic rows do not sum to 1: [1.2]"),
    ("TOPICS 1 2\nTOPIC t\na 1.5\nb -0.5\n", ValidationError,
     "topic rows do not sum to 1: [1.]"),
    ("TOPICS 2 2\nTOPIC s\na 0.5\nb 0.5\nTOPIC t\na 0.5\nb 0.4\n", ValidationError,
     "topic rows do not sum to 1: [1.  0.9]"),
    # a later topic block, past the first few thousand lines
    (long_topics_file(9003, "w4000 0.0002"), ParseError,
     "line 9003: word 'w4000' out of order in topic 't'"),
    (long_topics_file(9500, "w4496 x"), ParseError, "line 9500: bad probability 'x'"),
    (long_topics_file(8193, "w3189"), ParseError, "line 8193: expected '<word> <prob>', got 'w3189'"),
    (long_topics_file(5003, "TOPIC"), ParseError, "line 5003: expected 'TOPIC <label>', got 'TOPIC'"),
    (long_topics_file(10003, "w4999 0.5"), ValidationError, "topic rows do not sum to 1"),
]


class TestLoaderErrors:
    @pytest.mark.parametrize("text,exc,message", TOPIC_ERRORS,
                             ids=[m for _, _, m in TOPIC_ERRORS])
    def test_message_and_line(self, tmp_path, text, exc, message):
        path = tmp_path / "m.topics"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(exc) as info:
            load_topic_model(path)
        if exc is ValidationError and message.endswith("to 1"):
            assert str(info.value).startswith(message + ": [1.")
        else:
            assert str(info.value) == message

    def test_other_breaks_are_whitespace(self, tmp_path):
        # only "\n", "\r\n" and "\r" end a line; \v, \f, \x1c-\x1e, \x85,
        # U+2028 and U+2029 are whitespace inside one
        path = tmp_path / "m.topics"
        path.write_text("TOPICS 1 3\r\nTOPIC t\na 0.5\x0bb 0.25\u2028c 0.25", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_topic_model(path)
        assert str(info.value) == "line 3: expected 5 lines, found 3"
        path.write_text("TOPICS 1 2\rTOPIC\x1et\na\x0b0.5\r\nb\u20290.5\u2028",
                        encoding="utf-8")
        tm = load_topic_model(path)
        assert (tm.labels, tm.vocab.words) == (["t"], ("a", "b"))
        assert tm.probs[0].tolist() == [0.5, 0.5]


@st.composite
def topic_files(draw, words=st.text(alphabet="abcxyzé", min_size=1, max_size=3),
                forms=("{!r}", "{:.12g}", "{:.17e}")):
    """Topic rows over words whose ids are not in string order, each written
    in one of ``forms``, and the rows as each token reads with float()."""
    words = draw(st.lists(words, min_size=1, max_size=10, unique=True))
    T = draw(st.integers(1, 4))
    lines = [f"TOPICS {T} {len(words)}"]
    rows = []
    for t in range(T):
        weights = draw(st.lists(st.floats(1e-12, 1.0), min_size=len(words),
                                max_size=len(words)))
        form = draw(st.sampled_from(forms))
        total = sum(weights)
        toks = [write_prob(x / total, form) for x in weights]
        lines.append(f"TOPIC t{t}")
        lines += [f"{w} {p}" for w, p in zip(words, toks)]
        rows.append([float(p) for p in toks])
    return "\n".join(lines) + "\n", words, np.array(rows)


class TestLoaderExactness:
    @given(topic_files())
    @settings(max_examples=100, deadline=None)
    def test_probs_equal_per_token_float(self, tmp_path_factory, case):
        text, words, rows = case
        path = tmp_path_factory.mktemp("tm") / "m.topics"
        path.write_text(text, encoding="utf-8")
        tm = load_topic_model(path)
        assert tm.vocab.words == tuple(words)
        assert np.array_equal(tm.probs, floor_and_normalize(rows))

    @given(topic_files(EDGE_WORDS, PROB_FORMS))
    @settings(max_examples=100, deadline=None)
    def test_edge_words_and_numbers_equal_reference(self, tmp_path_factory, case):
        text, words, rows = case
        path = tmp_path_factory.mktemp("tm") / "m.topics"
        path.write_bytes(text.encode("utf-8"))
        tm = load_topic_model(path)
        labels, ref_words, ref_probs = reference_load_topic_model(text)
        assert (tm.labels, tm.vocab.words) == (labels, tuple(words)) == (labels, ref_words)
        assert tm.probs.tobytes() == ref_probs.tobytes()

    # reads of a few bytes end inside a line, inside a token and
    # between the "\r" and "\n" of a line end
    @pytest.mark.parametrize("block_bytes", [1, 3, 7, 8192])
    @given(case=topic_files(), end=st.sampled_from(["\n", "\r\n", "\r"]))
    @settings(max_examples=60, deadline=None)
    def test_chunk_boundaries_do_not_matter(self, tmp_path_factory, block_bytes, case, end):
        text, words, rows = case
        path = tmp_path_factory.mktemp("tm") / "m.topics"
        path.write_bytes(text.replace("\n", end).encode("utf-8"))
        with mock.patch.object(modelfile, "BLOCK_BYTES", block_bytes):
            tm = load_topic_model(path)
        assert tm.vocab.words == tuple(words)
        assert np.array_equal(tm.probs, floor_and_normalize(rows))


class TestLoaderRejects:
    """Files the loader rejects although a line-by-line read once took them."""

    @pytest.mark.parametrize("text,line", [
        ("TOPICS 1 2\nTOPIC t\na nan\nb 0.5\n", 3),
        ("TOPICS 2 2\nTOPIC s\na 0.5\nb 0.5\nTOPIC t\na 1\nb NaN\n", 7),
        (long_topics_file(9100, "w4096 -nan"), 9100),
    ], ids=["first-topic", "later-topic", "past-first-chunk"])
    def test_nan_probability(self, tmp_path, text, line):
        path = tmp_path / "m.topics"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=rf"^line {line}: probability \S+ is not a number$"):
            load_topic_model(path)

    @pytest.mark.parametrize("text", ["TOPICS -1 -2\nTOPIC t\n", "TOPICS 0 -3\n",
                                      "TOPICS 2 -1\n"], ids=["-1 -2", "0 -3", "2 -1"])
    def test_negative_counts(self, tmp_path, text):
        path = tmp_path / "m.topics"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="^line 1: bad counts in header"):
            load_topic_model(path)

    @pytest.mark.parametrize("header", ["TOPICS \u0661 +2", "TOPICS +1 2", "TOPICS 1 \uff12",
                                        "TOPICS 1 0_2"], ids=["arabic-plus", "plus",
                                                              "fullwidth", "underscore"])
    def test_counts_take_ascii_digits_only(self, tmp_path, header):
        # int() once read each of these as 1 topic over 2 words
        path = tmp_path / "m.topics"
        path.write_text(header + "\nTOPIC t\na 0.5\nb 0.5\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_topic_model(path)
        assert str(info.value) == f"line 1: bad counts in header {header!r}"

    def test_nul_inside_a_word_is_part_of_it(self, tmp_path):
        path = tmp_path / "m.topics"
        path.write_text("TOPICS 1 2\nTOPIC t\na\x00b 0.5\n\x00 0.5\n", encoding="utf-8")
        assert load_topic_model(path).vocab.words == ("a\x00b", "\x00")

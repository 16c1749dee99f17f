import numpy as np
import pytest

import oracles
from cnadapt.adapt import adapted_unigram
from cnadapt.corpus import Vocabulary
from cnadapt.errors import ParseError, TrainingError, ValidationError
from cnadapt.topics import (
    PROB_FLOOR,
    UNK_WORD,
    MixtureWeights,
    TopicModel,
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
        assert row[vocab.id("a")] == pytest.approx(0.4, rel=1e-9)
        assert row[vocab.id("b")] == pytest.approx(0.2, rel=1e-9)
        assert row[vocab.id("c")] == pytest.approx(2 / 15, rel=1e-9)
        assert row[vocab.id(UNK_WORD)] == pytest.approx(2 / 15, rel=1e-9)

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
        assert tm.probs[0][vocab.id("a")] == pytest.approx(0.75, rel=1e-9)

    def test_single_word_topic(self):
        vocab = Vocabulary(["a"])
        tm = train_topic_model([("t", ["a", "a", "a"])], vocab)
        row = tm.probs[0]
        assert row[vocab.id("a")] > 0.5
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


class TestMixture:
    def make_tm(self):
        vocab = Vocabulary(["a", "b"])
        return vocab, TopicModel(["t1", "t2"], vocab, np.array([[0.9, 0.1], [0.2, 0.8]]))

    def test_hand_example(self):
        vocab, tm = self.make_tm()
        lw = MixtureWeights(np.array([0.5, 0.5]))
        assert adapted_unigram(tm, lw)[vocab.id("a")] == pytest.approx(0.55, abs=1e-12)

    def test_one_hot_recovers_row(self):
        vocab, tm = self.make_tm()
        lw = MixtureWeights(np.array([0.0, 1.0]))
        assert adapted_unigram(tm, lw)[vocab.id("a")] == pytest.approx(0.2, abs=1e-12)

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

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnadapt.corpus import Vocabulary
from cnadapt.errors import EvaluationError, ValidationError
from cnadapt.metrics import (
    ReferenceCorpus,
    constrained_perplexity,
    load_reference,
    perplexity,
)


class TestPerplexity:
    def test_uniform_model(self):
        probs = np.full(4, 0.25)
        corpus = ReferenceCorpus.from_tokens([0, 1, 2, 3, 1, 2])
        assert perplexity(probs, corpus) == pytest.approx(4.0, abs=1e-12)

    def test_empty_corpus(self):
        with pytest.raises(EvaluationError, match="empty reference corpus"):
            perplexity(np.array([0.5, 0.5]), ReferenceCorpus.from_tokens([]))

    def test_two_word_corpus(self):
        probs = np.array([0.5, 0.5])
        corpus = ReferenceCorpus.from_tokens([0, 1])
        assert perplexity(probs, corpus) == pytest.approx(2.0, abs=1e-12)

    def test_token_order_invariant(self):
        probs = np.array([0.7, 0.2, 0.1])
        a = ReferenceCorpus.from_tokens([0, 1, 2, 0])
        b = ReferenceCorpus.from_tokens([0, 0, 2, 1])
        assert perplexity(probs, a) == perplexity(probs, b)

    def test_zero_probability_named(self):
        vocab = Vocabulary(["a", "b"])
        probs = np.array([1.0, 0.0])
        corpus = ReferenceCorpus.from_tokens([0, 1])
        with pytest.raises(EvaluationError, match="token b"):
            perplexity(probs, corpus, vocab)

    def test_first_zero_in_reference_order_named(self):
        vocab = Vocabulary(["a", "b", "c"])
        corpus = ReferenceCorpus.from_tokens([0, 2, 1, 2])
        with pytest.raises(EvaluationError, match="token c$"):
            perplexity(np.array([1.0, 0.0, 0.0]), corpus, vocab)

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 100, 5000])
    def test_matches_token_loop(self, size):
        """Bitwise the sum of one log10 after another, in reference order."""
        rng = np.random.default_rng(size)
        probs = rng.dirichlet(np.full(40, 0.3))
        tokens = rng.integers(0, 40, size=size).tolist()
        corpus = ReferenceCorpus.from_tokens(tokens)

        def loop(kept):
            total = 0.0
            for w in kept:
                total += np.log10(probs[w])
            return 10.0 ** (-total / len(kept))

        assert perplexity(probs, corpus) == loop(tokens)
        for thr in (1, 2, 5):
            kept = [w for w in tokens if corpus.counts[w] <= thr]
            if kept:
                assert constrained_perplexity(probs, corpus, thr) == loop(kept)


class TestConstrained:
    def test_threshold_one(self):
        # corpus "a a b": only b qualifies at thr=1
        probs = np.array([0.75, 0.25])
        corpus = ReferenceCorpus.from_tokens([0, 0, 1])
        got = constrained_perplexity(probs, corpus, 1)
        assert got == pytest.approx(1 / 0.25, abs=1e-12)

    def test_vacuous_threshold_equals_unconstrained(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(6))
        tokens = list(rng.integers(0, 6, size=40))
        corpus = ReferenceCorpus.from_tokens(tokens)
        max_count = max(corpus.counts.values())
        assert constrained_perplexity(probs, corpus, max_count) == pytest.approx(
            perplexity(probs, corpus), abs=1e-12
        )
        assert constrained_perplexity(probs, corpus, max_count + 7) == pytest.approx(
            perplexity(probs, corpus), abs=1e-12
        )

    def test_all_counts_below_threshold(self):
        probs = np.array([0.5, 0.3, 0.2])
        corpus = ReferenceCorpus.from_tokens([0, 1, 2, 0, 1, 2])
        assert constrained_perplexity(probs, corpus, 3) == pytest.approx(
            perplexity(probs, corpus), abs=1e-12
        )

    def test_no_qualifying_tokens(self):
        probs = np.array([1.0])
        corpus = ReferenceCorpus.from_tokens([0, 0, 0])
        with pytest.raises(EvaluationError):
            constrained_perplexity(probs, corpus, 1)

    def test_bad_threshold(self):
        probs = np.array([1.0])
        corpus = ReferenceCorpus.from_tokens([0])
        with pytest.raises(ValidationError):
            constrained_perplexity(probs, corpus, 0)

    def test_dominating_improvement_lowers_both_metrics(self):
        # raise every scored token's probability by pulling mass off a
        # vocabulary word absent from the corpus: both metrics must drop
        corpus = ReferenceCorpus.from_tokens([0, 0, 0, 1, 2])
        base = np.array([0.5, 0.2, 0.2, 0.1])
        improved = np.array([0.55, 0.22, 0.22, 0.01])
        assert perplexity(improved, corpus) < perplexity(base, corpus)
        assert constrained_perplexity(improved, corpus, 1) < constrained_perplexity(
            base, corpus, 1
        )
        # improvement localized to counted tokens also drops the constrained form
        counted_only = np.array([0.5, 0.25, 0.24, 0.01])
        assert constrained_perplexity(counted_only, corpus, 1) < constrained_perplexity(
            base, corpus, 1
        )


class TestCorpusType:
    def test_counts_come_from_tokens(self):
        assert ReferenceCorpus((0, 1, 0)).counts == {0: 2, 1: 1}

    def test_load_reference_maps_oov(self, tmp_path):
        vocab = Vocabulary(["a", "b", "<unk>"])
        ref = tmp_path / "ref.txt"
        ref.write_text("a b zzz\nb a\n")
        corpus = load_reference(ref, vocab)
        assert corpus.counts[vocab.get("<unk>")] == 1
        assert len(corpus.tokens) == 5

    def test_load_reference_without_unk_fails(self, tmp_path):
        vocab = Vocabulary(["a"])
        ref = tmp_path / "ref.txt"
        ref.write_text("a zzz\n")
        with pytest.raises(EvaluationError, match="zzz"):
            load_reference(ref, vocab)

    def test_empty_reference(self, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("\n\n")
        with pytest.raises(EvaluationError):
            load_reference(ref, Vocabulary(["a"]))


REF_WORDS = ["a", "b", "zz", "<unk>", "\xe9t\xe9", "\u65e5\u672c", "a:b", "A"]
# str.split() cuts at all of these, ASCII and not; "\r" and "\r\n" also end lines
REF_SPACES = [" ", "\t", "\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\xa0",
              "\u2028", "\u3000"]


@st.composite
def references(draw):
    """(vocabulary words, reference text): some words in the vocabulary and
    some not, with and without <unk>, any whitespace, possibly no token."""
    words = draw(st.lists(st.sampled_from(REF_WORDS), unique=True, max_size=5))
    spaces = st.lists(st.sampled_from(REF_SPACES), min_size=1, max_size=2).map("".join)
    tokens = draw(st.lists(st.sampled_from(REF_WORDS), max_size=12))
    text = draw(st.sampled_from(["", " ", "\n"]))
    for tok in tokens:
        text += tok + draw(spaces)
    return words, text


class TestLoadReferenceRule:
    """``load_reference`` against a lookup of one reference token after another."""

    @given(references())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_token_lookup(self, tmp_path_factory, case):
        words, text = case
        path = tmp_path_factory.mktemp("ref") / "ref.txt"
        path.write_bytes(text.encode("utf-8"))
        vocab = Vocabulary(words)
        index = dict(zip(words, range(len(words))))
        want, uncovered = [], None
        for tok in text.split():
            wid = index.get(tok, index.get("<unk>"))
            if wid is None:
                uncovered = tok
                break
            want.append(wid)
        if uncovered is not None:
            with pytest.raises(EvaluationError, match=f"token {re.escape(repr(uncovered))} "):
                load_reference(path, vocab)
        elif not want:
            with pytest.raises(EvaluationError, match="has no tokens"):
                load_reference(path, vocab)
        else:
            corpus = load_reference(path, vocab)
            assert corpus.tokens.dtype == np.int64
            assert corpus.tokens.tolist() == want
            assert corpus.counts == dict(Counter(want))

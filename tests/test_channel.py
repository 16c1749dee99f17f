import numpy as np
import pytest

from cnadapt.channel import (
    ChannelModel,
    estimate_channel,
    load_channel,
    save_channel,
)
from cnadapt.corpus import Bin, ConfusionNetwork, Conversation, Vocabulary
from cnadapt.errors import ParseError, ValidationError
from helpers import make_conversation


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
        for b in conv.iter_bins():
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
        cm = ChannelModel({0: {0: 1.0}})
        assert cm.prob(99, 99) == 1.0
        assert cm.prob(0, 99) == 0.0

    def test_missing_v_in_present_row(self):
        cm = ChannelModel({0: {0: 0.5, 1: 0.5}})
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

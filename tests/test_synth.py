import numpy as np
import pytest

from cnadapt.corpus import serialize_conversation
from cnadapt.errors import ValidationError
from cnadapt.synth import (
    SynthSpec,
    load_truth_lambda,
    observed_marginal,
    sample_conversation,
    sample_conversations,
    save_truth,
)


def spec(**kw):
    base = dict(
        topics=3,
        vocab_size=30,
        lambda_true=None,
        topic_sharpness=0.1,
        channel_noise=0.3,
        bins=200,
        bin_width=5,
        seed=123,
    )
    base.update(kw)
    return SynthSpec(**base)


class TestSampling:
    def test_noiseless_is_singleton_truth(self):
        conv, truth = sample_conversation(spec(channel_noise=0.0, bins=100))
        refs = truth.refs
        for b, ref in zip(conv.iter_bins(), refs):
            assert len(b) == 1
            assert b.cells[0] == (ref, 1.0)

    def test_one_hot_lambda_matches_topic_row(self):
        lam = np.array([0.0, 1.0, 0.0])
        conv, truth = sample_conversation(
            spec(lambda_true=lam, bins=20000, channel_noise=0.0)
        )
        counts = np.bincount(truth.refs, minlength=30)
        emp = counts / counts.sum()
        tv = 0.5 * np.abs(emp - truth.topics.probs[1]).sum()
        assert tv < 0.02

    def test_observed_word_is_one_best(self):
        conv, truth = sample_conversation(spec(bins=500))
        # the sidecar's spoken words are bin members; the observed 1-best
        # is whatever the channel emitted
        for b in conv.iter_bins():
            total = sum(p for _, p in b.cells)
            assert total <= 1.0 + 1e-6
            assert b.one_best()[1] == max(p for _, p in b.cells)

    def test_bin_width_respected(self):
        conv, _ = sample_conversation(spec(bins=300, bin_width=4))
        assert max(len(b) for b in conv.iter_bins()) <= 4

    def test_empirical_observed_marginal(self):
        conv, truth = sample_conversation(spec(bins=50000))
        counts = np.zeros(30)
        for b in conv.iter_bins():
            counts[b.one_best()[0]] += 1
        emp = counts / counts.sum()
        tv = 0.5 * np.abs(emp - observed_marginal(truth)).sum()
        assert tv <= 0.02

    def test_truth_channel_rows_sum_to_one(self):
        _, truth = sample_conversation(spec())
        for w, row in truth.channel.rows.items():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)

    def test_shared_structures_stable_across_conversations(self):
        _, t0 = sample_conversation(spec(), 0)
        _, t1 = sample_conversation(spec(), 1)
        assert np.array_equal(t0.topics.probs, t1.topics.probs)
        assert t0.channel.rows == t1.channel.rows
        assert not np.array_equal(t0.lam, t1.lam)


class TestDeterminism:
    def test_byte_identical_reruns(self):
        conv1, truth1 = sample_conversation(spec())
        conv2, truth2 = sample_conversation(spec())
        assert serialize_conversation(conv1, truth1.vocab) == serialize_conversation(
            conv2, truth2.vocab
        )
        assert np.array_equal(truth1.lam, truth2.lam)

    def test_batch_matches_one_at_a_time(self):
        batch = list(sample_conversations(spec(), 3))
        assert len(batch) == 3
        for index, (conv, truth) in enumerate(batch):
            conv1, truth1 = sample_conversation(spec(), index)
            assert serialize_conversation(conv, truth.vocab) == serialize_conversation(
                conv1, truth1.vocab
            )
            assert np.array_equal(truth.lam, truth1.lam)
            assert truth.refs == truth1.refs

    def test_different_index_differs(self):
        conv0, t0 = sample_conversation(spec(), 0)
        conv1, t1 = sample_conversation(spec(), 1)
        assert serialize_conversation(conv0, t0.vocab) != serialize_conversation(
            conv1, t1.vocab
        )

    def test_different_seed_differs(self):
        conv0, t0 = sample_conversation(spec(seed=1))
        conv1, t1 = sample_conversation(spec(seed=2))
        assert serialize_conversation(conv0, t0.vocab) != serialize_conversation(
            conv1, t1.vocab
        )


class TestTruthSidecar:
    def test_round_trip_lambda(self, tmp_path):
        conv, truth = sample_conversation(spec(bins=40))
        path = tmp_path / "c.truth"
        save_truth(truth, conv, path)
        lam = load_truth_lambda(path)
        assert np.allclose(lam, truth.lam, atol=1e-12)
        text = path.read_text()
        assert text.startswith("TRUTH ")
        assert f"REFS {conv.total_bins}\n" in text
        # the channel is written once per directory, as channel.model
        assert not any(line.startswith("CHANNEL") for line in text.splitlines())


class TestSpecValidation:
    def test_bad_noise(self):
        with pytest.raises(ValidationError):
            spec(channel_noise=1.0)

    def test_bad_lambda(self):
        with pytest.raises(ValidationError):
            spec(lambda_true=np.array([0.5, 0.5]))

    def test_bad_width(self):
        with pytest.raises(ValidationError):
            spec(bin_width=0)

import hashlib
import json

import numpy as np
import pytest

from cnadapt.cli import main
from cnadapt.corpus import serialize_conversation
from cnadapt.errors import ValidationError
from cnadapt.synth import (
    SynthSpec,
    sample_conversation,
    sample_conversations,
    save_truth,
)
from helpers import iter_bins, load_truth_lambda


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


def observed_marginal(truth):
    """Distribution of the observed word implied by mixture and channel."""
    q_star = truth.lam @ truth.topics.probs
    cm = truth.channel
    p = np.zeros(len(truth.vocab))
    np.add.at(p, cm.obs, q_star[cm.spoken()] * cm.probs)
    return p


class TestSampling:
    def test_noiseless_is_singleton_truth(self):
        conv, truth = sample_conversation(spec(channel_noise=0.0, bins=100))
        refs = truth.refs
        for b, ref in zip(iter_bins(conv), refs):
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
        for b in iter_bins(conv):
            total = sum(p for _, p in b.cells)
            assert total <= 1.0 + 1e-6
            assert b.one_best()[1] == max(p for _, p in b.cells)

    def test_bin_width_respected(self):
        conv, _ = sample_conversation(spec(bins=300, bin_width=4))
        assert max(len(b) for b in iter_bins(conv)) <= 4

    def test_empirical_observed_marginal(self):
        conv, truth = sample_conversation(spec(bins=50000))
        counts = np.zeros(30)
        for b in iter_bins(conv):
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


# the spec shapes whose output is pinned below
PINNED_SPECS = {
    "short-cohort": dict(topics=3, vocab_size=50, lambda_true=None, topic_sharpness=0.1,
                         channel_noise=0.4, bins=300, bin_width=20, seed=31),
    "noiseless": dict(topics=3, vocab_size=50, lambda_true=None, topic_sharpness=0.1,
                      channel_noise=0.0, bins=200, bin_width=10, seed=32),
    "width-1": dict(topics=2, vocab_size=30, lambda_true=None, topic_sharpness=0.2,
                    channel_noise=0.3, bins=200, bin_width=1, seed=33),
    # a confused bin's two cells tie before the observed word's bump
    "tie": dict(topics=2, vocab_size=30, lambda_true=None, topic_sharpness=0.2,
                channel_noise=1 / 6, bins=200, bin_width=2, seed=34),
}
PINNED_CONVERSATIONS = 2


class TestPinnedOutput:
    """sha256 of every file ``cnadapt synth`` writes (the manifest aside),
    recorded under numpy 2.4.6.  The generator's random streams and its
    arithmetic are part of its output: ``perfbench/gen.py`` draws the
    benchmark's inputs through it, so a change that moves these digests
    also changes what the benchmark measures.
    """

    DIGESTS = {
        "noiseless": {
            "channel.model":
                "bf0a8b3c98e898a3da4f616ae5931b62267633c237ba531639f3dd643c1a1a64",
            "synth000.cnet":
                "f38ca163800bce8d13f7ebcd7a9ab6ee330fb20a22d8d187b6a1e2665472a5d9",
            "synth000.truth":
                "3ae5a455debf0fb904ac5d300b612f26f2131c0fa90a79cdd49c6c518c7753d6",
            "synth001.cnet":
                "3d3cb191de79ef850baf03232e6049182072d4f23d77f348911d7d1e74fe9fe3",
            "synth001.truth":
                "bfbf183de6ac17a39e0cec448a4cc8b95fff03ff6db41667f8bbeda1cd4f3131",
            "topics.model":
                "8fe16470d961124d11cc6761682344057e1d31c5942be4e5b50639c016f15dae",
        },
        "short-cohort": {
            "channel.model":
                "be1b6a5227948837101b35dde8ed83699c4f4752313fb14b444b9bc70963e19a",
            "synth000.cnet":
                "b8bfec4b1f79820505f5a5321dd41dcdd1793f4afe2da7ef8ee21045c5299340",
            "synth000.truth":
                "210f60d02075667cac528e6cab021a3cf663240d84907463589be58d91296949",
            "synth001.cnet":
                "6c2d739ddc3c676294cb17ddc9ad75a096525fa139b441b5395653fe08827064",
            "synth001.truth":
                "540847711fea587afe634e5396070cee6dae82cea75532e886dffface541c4d0",
            "topics.model":
                "124d7dd38495970d1a0c1157b8cac12792e7c0fb45cc6ae0fdfa786b828a20b1",
        },
        "tie": {
            "channel.model":
                "6715ba5e7ef19364363ee4573d8f943f78bc2b8d7b0e1000204966e8d1aebc8e",
            "synth000.cnet":
                "303a50e9b69e1c4c6dd1c3c32668a4c44f8e4f53d5a1bbe5917a8a753fbd772b",
            "synth000.truth":
                "1c46de4708ee2348c65f4beb5e7a89bf44ab9b21e7da46ec16d0ba6d6d57ff7e",
            "synth001.cnet":
                "b33c219cad694a162feb993561298b8eb6d4736c748e012940c2fa6278d99af0",
            "synth001.truth":
                "2ab130b8a61a71fa8dcce6747c1ccf77a3bd10d0d9dce844bdc2bb853b3b666a",
            "topics.model":
                "77fb341473639d9ce8c16f59666894d93931e5c41867735a9867805f8ff8391b",
        },
        "width-1": {
            "channel.model":
                "633f305ab364b306e544be5d67313be62f7d339e213784dfc217d10fefbbd8c1",
            "synth000.cnet":
                "95dba77a29ebac65efb0bbdf911e6076f31a7a5875deecb1732c9d3b745a50fe",
            "synth000.truth":
                "6e62b8702a6d6237db421724db2db80e1d14ed245ae86b882c04e7b2a4b8ec96",
            "synth001.cnet":
                "5fadad9ea05134651e662aa9253e107a691af4baa94a066f383f778e16b13141",
            "synth001.truth":
                "f67e5774643996baf319b43aa719a4cccc2a0bf14efbffea84275f920e0f642f",
            "topics.model":
                "161a33985026164e5744e794e515c252e0b1b9e7639859ae1bcefeae77b74ac8",
        },
    }

    @pytest.mark.parametrize("name", sorted(PINNED_SPECS))
    def test_synth_cli_digests(self, tmp_path, name):
        doc = dict(PINNED_SPECS[name], conversations=PINNED_CONVERSATIONS)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["synth", str(path), str(out)]) == 0
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.name != "manifest.json"
        }
        assert digests == self.DIGESTS[name]

    # the sampled arrays themselves: a last-bit change in a posterior does
    # not reach the 9-digit CNET text
    ARRAY_DIGESTS = {
        "noiseless": "1fa677ff073e4aca72ecee67d8c7fe6e93bf9519c80283efb0c5bc081bfb046c",
        "short-cohort": "e701d262afdef2358188d3dc87af41179cf10af6710447fd1bdf55be937f0329",
        "tie": "a480ca507160c09db627e01dc09342d7bd482ac9e2956e090848798cbdcb6063",
        "width-1": "1749c360846560575a62abe02c1acca5d48e20619ebe7cb40662a1db0f1486e4",
    }

    @pytest.mark.parametrize("name", sorted(PINNED_SPECS))
    def test_sampled_array_digests(self, name):
        h = hashlib.sha256()
        for conv, _ in sample_conversations(SynthSpec(**PINNED_SPECS[name]),
                                            PINNED_CONVERSATIONS):
            for a in (conv.words, conv.posts, conv.bin_ptr, conv.utt_ptr):
                h.update(a.astype(a.dtype.newbyteorder("<")).tobytes())
        assert h.hexdigest() == self.ARRAY_DIGESTS[name]


class TestBinProperties:
    @pytest.mark.parametrize("name", sorted(PINNED_SPECS))
    def test_every_bin(self, name):
        for conv, truth in sample_conversations(SynthSpec(**PINNED_SPECS[name]),
                                                PINNED_CONVERSATIONS):
            ptr = conv.bin_ptr.tolist()
            words, posts = conv.words.tolist(), conv.posts.tolist()
            for spoken, lo, hi in zip(truth.refs, ptr, ptr[1:]):
                cells = list(zip(words[lo:hi], posts[lo:hi]))
                support = set(truth.channel.row(spoken)[0].tolist())
                assert {w for w, _ in cells} <= support
                # the observed word leads, strictly above every other cell
                assert all(p < cells[0][1] for _, p in cells[1:])
                assert cells == sorted(cells, key=lambda c: (-c[1], c[0]))
                assert sum(posts[lo:hi]) <= 1.0 + 1e-6

import numpy as np
import pytest

import oracles
from cnadapt.adapt import EstimatorConfig, fit
from cnadapt.channel import estimate_channel
from cnadapt.corpus import (
    Bin,
    ConfusionNetwork,
    Conversation,
    Vocabulary,
    parse_conversation,
)
from cnadapt.errors import EstimationError, ValidationError
from cnadapt.topics import TopicModel
from helpers import bins_as_lists, iter_bins, loglik_self, make_instance, non_decreasing


@pytest.fixture
def two_topic():
    vocab = Vocabulary(["a", "b"])
    tm = TopicModel(["t1", "t2"], vocab, np.array([[0.9, 0.1], [0.2, 0.8]]))
    conv = Conversation(
        "c1", (ConfusionNetwork("u1", (Bin([(0, 1.0)]), Bin([(1, 1.0)]))),)
    )
    return conv, tm


class TestObjectives:
    def test_loglik_1best_hand(self, two_topic):
        conv, tm = two_topic
        got = loglik_self(conv, tm, [0.5, 0.5])
        assert got == pytest.approx(np.log(0.55) + np.log(0.45), abs=1e-12)

    def test_loglik_certain_word_is_zero(self):
        vocab = Vocabulary(["a"])
        tm = TopicModel(["t"], vocab, np.array([[1.0]]))
        conv = Conversation("c", (ConfusionNetwork("u", (Bin([(0, 1.0)]),)),))
        assert loglik_self(conv, tm, [1.0]) == pytest.approx(0.0, abs=1e-9)

    def test_bin_order_invariance(self, two_topic):
        conv, tm = two_topic
        flipped = Conversation(
            "c1", (ConfusionNetwork("u1", (Bin([(1, 1.0)]), Bin([(0, 1.0)]))),)
        )
        lam = [0.3, 0.7]
        assert loglik_self(conv, tm, lam) == pytest.approx(
            loglik_self(flipped, tm, lam)
        )

    def test_tf_objective_formula(self, two_topic):
        _, tm0 = two_topic
        vocab = Vocabulary(["a", "b", "c"])
        tm = TopicModel(
            ["t1", "t2"], vocab, np.array([[0.8, 0.1, 0.1], [0.1, 0.4, 0.5]])
        )
        conv = Conversation(
            "c",
            (
                ConfusionNetwork(
                    "u", (Bin([(0, 0.6), (1, 0.4)]), Bin([(0, 0.7), (2, 0.3)]))
                ),
            ),
        )
        lam = np.array([0.5, 0.5])
        q = lam @ tm.probs
        expect = 1.3 * np.log(q[0]) + 0.4 * np.log(q[1]) + 0.3 * np.log(q[2])
        assert loglik_self(conv, tm, lam, use_tf=True) == pytest.approx(expect, abs=1e-12)
        assert loglik_self(conv, tm, lam, use_tf=True) == pytest.approx(
            oracles.loglik_self_tf(bins_as_lists(conv), lam, tm.probs), abs=1e-12
        )


class TestOneStep:
    def test_mle_step(self, two_topic):
        conv, tm = two_topic
        res = fit(conv, tm, EstimatorConfig("self-1best", max_iters=1))
        assert np.allclose(res.weights.lam, [46 / 99, 53 / 99], atol=1e-12)
        assert res.iterations == 1
        assert len(res.loglik_trace) == 2

    def test_map_step(self, two_topic):
        conv, tm = two_topic
        cfg = EstimatorConfig("self-1best", map_strength=-0.2, max_iters=1)
        res = fit(conv, tm, cfg)
        assert np.allclose(res.weights.lam, [361 / 792, 431 / 792], atol=1e-12)

    def test_map_zero_is_mle(self, two_topic):
        conv, tm = two_topic
        r_mle = fit(conv, tm, EstimatorConfig("self-1best", max_iters=25))
        r_map0 = fit(
            conv, tm, EstimatorConfig("self-1best", map_strength=0.0, max_iters=25)
        )
        assert r_mle.loglik_trace == r_map0.loglik_trace
        assert np.array_equal(r_mle.weights.lam, r_map0.weights.lam)


class TestTfDegeneracy:
    def test_singleton_posterior_one_equals_1best(self):
        rng = np.random.default_rng(14)
        conv, tm, _ = make_instance(20, T=3, V=15, M=60, max_width=1)
        bins = tuple(Bin([(b.cells[0][0], 1.0)]) for b in iter_bins(conv))
        conv1 = Conversation("c", (ConfusionNetwork("u", bins),))
        cfg1 = EstimatorConfig("self-1best", max_iters=30)
        cfg2 = EstimatorConfig("self-tf", max_iters=30)
        r1 = fit(conv1, tm, cfg1)
        r2 = fit(conv1, tm, cfg2)
        assert r1.loglik_trace == r2.loglik_trace
        assert np.array_equal(r1.weights.lam, r2.weights.lam)


@pytest.mark.parametrize("variant", ["self-1best", "self-tf"])
@pytest.mark.parametrize("map_strength", [0.0, -0.05, 0.1])
class TestEmProperties:
    def test_trace_monotone_simplex_preserved(self, variant, map_strength):
        for seed in range(25):
            conv, tm, _ = make_instance(seed, T=3, V=20, M=60)
            cfg = EstimatorConfig(variant, map_strength=map_strength, max_iters=40)
            res = fit(conv, tm, cfg)
            assert non_decreasing(res.loglik_trace)
            assert res.weights.lam.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(res.weights.lam >= 0)

    def test_objective_matches_oracle(self, variant, map_strength):
        conv, tm, _ = make_instance(77, T=3, V=20, M=60)
        cfg = EstimatorConfig(variant, map_strength=map_strength, max_iters=30)
        res = fit(conv, tm, cfg)
        lam = res.weights.lam
        bins = bins_as_lists(conv)
        if variant == "self-1best":
            ll = oracles.loglik_self_1best(bins, lam, tm.probs)
        else:
            ll = oracles.loglik_self_tf(bins, lam, tm.probs)
        assert res.loglik_trace[-1] == pytest.approx(
            oracles.penalized(ll, lam, map_strength), rel=1e-12
        )


class TestConvergence:
    def test_converges_and_stops(self):
        conv, tm, _ = make_instance(5, T=2, V=20, M=80)
        cfg = EstimatorConfig("self-tf", rel_tol=1e-10, max_iters=500)
        res = fit(conv, tm, cfg)
        assert res.converged
        assert res.iterations < 500

    def test_gradient_vanishes_at_fixed_point(self):
        conv, tm, _ = make_instance(6, T=3, V=20, M=80)
        cfg = EstimatorConfig("self-tf", rel_tol=1e-13, max_iters=5000)
        res = fit(conv, tm, cfg)
        bins = bins_as_lists(conv)

        def obj(mu):
            return oracles.loglik_self_tf(bins, oracles.softmax(mu), tm.probs)

        with np.errstate(divide="ignore"):
            mu = np.log(res.weights.lam)
        grad = oracles.fd_gradient(obj, mu)
        assert np.max(np.abs(grad)) < 1e-4


class TestInitialization:
    def test_fit_requires_channel_for_conf(self, two_topic):
        conv, tm = two_topic
        with pytest.raises(ValidationError, match="channel"):
            fit(conv, tm, EstimatorConfig("conf-1best"))


class TestErrors:
    @pytest.mark.parametrize("variant", ["self-tf", "conf-tf"])
    def test_word_outside_model_rejected(self, two_topic, variant):
        # an open-vocabulary parse interns the unknown word past the model's end
        _, tm = two_topic
        conv = parse_conversation("CONV c\nNET u 1\nBIN a:0.6 zzz:0.3\n", tm.vocab)
        cm = estimate_channel([conv])
        with pytest.raises(ValidationError, match="word id 2 is outside"):
            fit(conv, tm, EstimatorConfig(variant), cm)

    def test_all_topics_clamped(self, two_topic):
        conv, tm = two_topic
        cfg = EstimatorConfig("self-1best", map_strength=-1.5, max_iters=10)
        with pytest.raises(EstimationError, match="map_strength"):
            fit(conv, tm, cfg)

    def test_bad_config(self):
        with pytest.raises(ValidationError):
            EstimatorConfig("bogus")
        with pytest.raises(ValidationError):
            EstimatorConfig("self-tf", max_iters=0)
        with pytest.raises(ValidationError):
            EstimatorConfig("self-tf", rel_tol=0.0)

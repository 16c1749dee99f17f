import numpy as np
import pytest

import oracles
from cnadapt.adapt import (
    EstimatorConfig,
    _ConfKernel,
    fit,
)
from helpers import bins_as_lists, conf_em_step, make_instance, non_decreasing


class TestUpdateForms:
    def test_step_at_zero_equals_mle(self):
        conv, tm, cm = make_instance(2, T=3, V=15, M=40)
        lam = np.array([0.2, 0.5, 0.3])
        mle, _ = conf_em_step(conv, tm, cm, lam, map_strength=0.0)
        map0, _ = conf_em_step(conv, tm, cm, lam, map_strength=0.0)
        assert np.array_equal(mle, map0)

    def test_small_strength_limits_to_mle(self):
        conv, tm, cm = make_instance(2, T=3, V=15, M=40)
        lam = np.array([0.2, 0.5, 0.3])
        mle, _ = conf_em_step(conv, tm, cm, lam, map_strength=0.0)
        for m in (1e-9, -1e-9):
            near, _ = conf_em_step(conv, tm, cm, lam, map_strength=m)
            assert np.allclose(near, mle, atol=1e-8)

    def test_dispatch_through_fit(self):
        conv, tm, cm = make_instance(3, T=2, V=15, M=30)
        cfg = EstimatorConfig("conf-tf", map_strength=0.1, max_iters=20)
        res = fit(conv, tm, cfg, cm)
        assert res.iterations >= 1


@pytest.mark.parametrize("variant", ["conf-1best", "conf-tf"])
@pytest.mark.parametrize("map_strength", [-0.05, 0.1])
class TestMapProperties:
    def test_penalized_trace_monotone(self, variant, map_strength):
        for seed in range(15):
            conv, tm, cm = make_instance(seed, T=3, V=20, M=60)
            cfg = EstimatorConfig(variant, map_strength=map_strength, max_iters=40)
            res = fit(conv, tm, cfg, cm)
            assert non_decreasing(res.loglik_trace)
            assert res.weights.lam.sum() == pytest.approx(1.0, abs=1e-9)

    def test_final_objective_matches_oracle(self, variant, map_strength):
        conv, tm, cm = make_instance(70, T=3, V=20, M=60)
        use_tf = variant == "conf-tf"
        cfg = EstimatorConfig(variant, map_strength=map_strength, max_iters=40)
        res = fit(conv, tm, cfg, cm)
        lam = res.weights.lam
        ll = oracles.loglik_conf(bins_as_lists(conv), lam, tm.probs, cm.prob, use_tf)
        assert res.loglik_trace[-1] == pytest.approx(
            oracles.penalized(ll, lam, map_strength), rel=1e-12
        )

    def test_reaches_grid_optimum(self, variant, map_strength):
        use_tf = variant == "conf-tf"
        for seed in (51, 52):
            conv, tm, cm = make_instance(seed, T=2, V=20, M=60)
            cfg = EstimatorConfig(
                variant, map_strength=map_strength, max_iters=5000, rel_tol=1e-13
            )
            res = fit(conv, tm, cfg, cm)
            bins = bins_as_lists(conv)

            def objective(lam):
                return oracles.penalized(
                    oracles.loglik_conf(bins, lam, tm.probs, cm.prob, use_tf),
                    lam,
                    map_strength,
                )

            best, _ = oracles.grid_best_t2(objective)
            assert objective(res.weights.lam) >= best - 1e-6


class TestSparseClamp:
    def test_weak_topic_clamps_to_zero(self):
        # strong sparsity prior wipes out topics with no support
        conv, tm, cm = make_instance(9, T=3, V=20, M=60)
        cfg = EstimatorConfig("conf-1best", map_strength=-0.05, max_iters=100)
        res = fit(conv, tm, cfg, cm)
        assert np.all(res.weights.lam >= 0)
        assert res.weights.lam.sum() == pytest.approx(1.0, abs=1e-9)

    def test_extreme_sparsity_converges_to_vertex(self):
        # prior corrections sum to zero across topics, so at least one
        # update numerator stays positive: the fit lands on a vertex
        # instead of failing
        conv, tm, cm = make_instance(4, T=2, V=10, M=3, max_width=2)
        cfg = EstimatorConfig("conf-1best", map_strength=-50.0, max_iters=50)
        res = fit(conv, tm, cfg, cm)
        assert sorted(res.weights.lam) == [0.0, 1.0]
        assert non_decreasing(res.loglik_trace)


class TestDriverKeepsClamps:
    @pytest.mark.parametrize("variant, map_strength, seed",
                             [("conf-1best", -0.1, 38), ("conf-tf", -0.05, 28)])
    def test_clamped_topic_stays_zero(self, monkeypatch, variant, map_strength, seed):
        # a topic clamped to 0 is log 0 in softmax space: the extrapolation
        # leaves it out, so no later point, extrapolated or not, revives it
        conv, tm, cm = make_instance(seed, T=3, V=20, M=60)
        points = []
        stats = _ConfKernel.stats

        def recorded(self, lam):
            points.append(lam.copy())
            return stats(self, lam)

        monkeypatch.setattr(_ConfKernel, "stats", recorded)
        cfg = EstimatorConfig(variant, map_strength=map_strength, max_iters=100)
        res = fit(conv, tm, cfg, cm)
        first = next(i for i, lam in enumerate(points) if (lam == 0.0).any())
        zero = points[first] == 0.0
        assert len(points) - first > 2
        for lam in points[first:]:
            assert np.all(lam[zero] == 0.0)
        assert np.array_equal(res.weights.lam == 0.0, zero)
        assert non_decreasing(res.loglik_trace)

import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cnadapt import adapt
from cnadapt.adapt import (
    EstimatorConfig,
    _channel_lookup,
    _ConfKernel,
    _conf_update,
    _run_em,
    _step_converged,
    fit,
    loglik_conf,
)
from cnadapt.channel import ChannelModel, save_channel
from cnadapt.cli import main
from cnadapt.corpus import Bin, ConfusionNetwork, Conversation, Vocabulary, save_conversation
from cnadapt.errors import EstimationError
from cnadapt.topics import TopicModel, save_topic_model
from helpers import (
    bins_as_lists,
    channel_from_rows,
    conf_em_step,
    conf_lower_bound,
    iter_bins,
    make_channel,
    make_instance,
    make_topic_model,
    non_decreasing,
    traced_peak,
    wide_instance,
)


@pytest.fixture
def hand_case():
    vocab = Vocabulary(["a", "b"])
    tm = TopicModel(["t"], vocab, np.array([[0.55, 0.45]]))
    cm = channel_from_rows({0: {0: 0.8, 1: 0.2}, 1: {0: 0.3, 1: 0.7}})
    conv = Conversation(
        "c", (ConfusionNetwork("u", (Bin([(0, 0.6), (1, 0.4)]),)),)
    )
    return conv, tm, cm


def identity_channel(V):
    return channel_from_rows({w: {w: 1.0} for w in range(V)})


def reference_posteriors(conv, tm, lam, cm, use_tf=False):
    """Per bin, {word: its reference weight at ``lam``}: the posterior that
    it was spoken given the 1-best word, or with ``use_tf`` its
    posterior-weighted sum over the bin's observed words.

    Read from the kernel's N one bin at a time: with one-hot topic rows (one
    topic per word) and weights proportional to each word's mixture
    probability, N[w] is word w's reference weight.
    """
    q = np.asarray(lam, dtype=np.float64) @ tm.probs
    onehot = SimpleNamespace(probs=np.eye(q.size))
    out = []
    for lo, hi in zip(conv.bin_ptr[:-1], conv.bin_ptr[1:]):
        one = Conversation.from_arrays("c", ("u",), np.array([0, 1]), np.array([0, hi - lo]),
                                       conv.words[lo:hi], conv.posts[lo:hi])
        N = _ConfKernel(one, onehot, cm, use_tf).stats(q / q.sum())[0]
        out.append({int(w): float(N[w]) for w in one.words})
    return out


def single_bin(b):
    return Conversation("c", (ConfusionNetwork("u", (b,)),))


class TestReferencePosterior:
    def test_hand_example(self, hand_case):
        conv, tm, cm = hand_case
        (r,) = reference_posteriors(conv, tm, [1.0], cm)
        assert r[0] == pytest.approx(88 / 115, abs=1e-12)
        assert r[1] == pytest.approx(27 / 115, abs=1e-12)
        assert sum(r.values()) == pytest.approx(1.0, abs=1e-12)

    def test_identity_channel_point_mass(self):
        conv, tm, _ = make_instance(3, T=2, V=10, M=10, max_width=4)
        cm = identity_channel(10)
        posts = reference_posteriors(conv, tm, [0.5, 0.5], cm)
        for b, r in zip(iter_bins(conv), posts):
            obs = b.one_best()[0]
            assert r[obs] == pytest.approx(1.0)
            assert all(v == 0.0 for w, v in r.items() if w != obs)

    def test_uniform_channel_proportional_to_mixture(self):
        vocab = Vocabulary(["a", "b", "c"])
        tm = TopicModel(["t"], vocab, np.array([[0.5, 0.3, 0.2]]))
        cm = channel_from_rows(
            {w: {v: 1 / 3 for v in range(3)} for w in range(3)}
        )
        b = Bin([(0, 0.5), (1, 0.3), (2, 0.2)])
        (r,) = reference_posteriors(single_bin(b), tm, [1.0], cm)
        assert r[0] == pytest.approx(0.5, abs=1e-12)
        assert r[1] == pytest.approx(0.3, abs=1e-12)

    def test_zero_denominator_fallback(self):
        vocab = Vocabulary(["a", "b"])
        tm = TopicModel(["t"], vocab, np.array([[0.5, 0.5]]))
        # channel never emits "a" from any bin word
        cm = channel_from_rows({0: {1: 1.0}, 1: {1: 1.0}})
        b = Bin([(0, 0.6), (1, 0.4)])
        (r,) = reference_posteriors(single_bin(b), tm, [1.0], cm)
        assert r == {0: 1.0, 1: 0.0}


class TestLoglikConf:
    def test_hand_example(self, hand_case):
        conv, tm, cm = hand_case
        got = loglik_conf(conv, tm, [1.0], cm, use_tf=False)
        assert got == pytest.approx(np.log(0.575), abs=1e-12)

    def test_singleton_identity_zero(self):
        conv, tm, _ = make_instance(4, T=2, V=10, M=25, max_width=1)
        cm = identity_channel(10)
        lam = [0.4, 0.6]
        assert loglik_conf(conv, tm, lam, cm, False) == pytest.approx(0.0, abs=1e-9)
        # expected-count form weights each zero log by the bin mass
        assert loglik_conf(conv, tm, lam, cm, True) == pytest.approx(0.0, abs=1e-9)

    def test_tf_concentrated_equals_1best(self):
        conv, tm, cm = make_instance(5, T=3, V=15, M=40, max_width=4)
        bins = []
        for b in iter_bins(conv):
            cells = [(b.cells[0][0], 1.0 - 1e-9 * (len(b.cells) - 1))]
            cells += [(w, 1e-9) for w, _ in b.cells[1:]]
            bins.append(Bin(cells))
        conv2 = Conversation("c", (ConfusionNetwork("u", tuple(bins)),))
        lam = [0.2, 0.3, 0.5]
        assert loglik_conf(conv2, tm, lam, cm, True) == pytest.approx(
            loglik_conf(conv2, tm, lam, cm, False), rel=1e-6
        )

    @pytest.mark.parametrize("use_tf", [False, True])
    def test_matches_oracle(self, use_tf):
        for seed in (0, 1, 2):
            conv, tm, cm = make_instance(seed, T=3, V=20, M=50)
            lam = np.random.default_rng(seed).dirichlet(np.ones(3))
            got = loglik_conf(conv, tm, lam, cm, use_tf)
            want = oracles.loglik_conf(
                bins_as_lists(conv), lam, tm.probs, cm.prob, use_tf
            )
            assert got == pytest.approx(want, rel=1e-10)


# (use_tf, ragged): ragged is None for the make_instance input, else
# ragged_instance's (seed, dead_bin); the make_instance ids are the bare flag
CONF_INPUTS = [
    pytest.param(use_tf, ragged, id=str(use_tf) + (
        "" if ragged is None else f"-ragged{ragged[0]}" + "-dead" * ragged[1]
    ))
    for use_tf in (False, True)
    for ragged in [None] + [(seed, dead) for seed in range(3) for dead in (False, True)]
]


class TestFitConf:
    def test_identity_singleton_noop(self):
        conv, tm, _ = make_instance(7, T=2, V=10, M=20, max_width=1)
        cm = identity_channel(10)
        cfg = EstimatorConfig("conf-1best", max_iters=50)
        res = fit(conv, tm, cfg, cm)
        assert np.allclose(res.weights.lam, [0.5, 0.5], atol=1e-12)
        assert res.loglik_trace[0] == pytest.approx(0.0, abs=1e-12)
        assert res.converged
        assert res.iterations == 1

    @pytest.mark.parametrize("use_tf, ragged", CONF_INPUTS)
    def test_update_improves_surrogate(self, use_tf, ragged):
        if ragged is None:
            conv, tm, cm = make_instance(11, T=3, V=20, M=200)
        else:
            conv, tm, cm = ragged_instance(*ragged)
        lam = np.full(3, 1 / 3)
        for _ in range(8):
            new_lam, delta = conf_em_step(conv, tm, cm, lam, use_tf=use_tf)
            with np.errstate(divide="ignore"):
                mu = np.log(lam)
            g = conf_lower_bound(conv, tm, cm, mu, delta, use_tf)
            assert g >= -1e-9
            lam = new_lam

    @pytest.mark.parametrize("use_tf, ragged", CONF_INPUTS)
    def test_lower_bound_below_q_difference(self, use_tf, ragged):
        rng = np.random.default_rng(21)
        if ragged is None:
            conv, tm, cm = make_instance(13, T=3, V=15, M=30)
        else:
            conv, tm, cm = ragged_instance(*ragged)
        bins = bins_as_lists(conv)
        for _ in range(25):
            mu = rng.normal(size=3)
            delta = rng.normal(size=3) * 0.5
            bound = conf_lower_bound(conv, tm, cm, mu, delta, use_tf)
            qdiff = oracles.q_difference_conf(bins, mu, delta, tm.probs, cm.prob, use_tf)
            assert bound <= qdiff + 1e-9

    @pytest.mark.parametrize("variant", ["conf-1best", "conf-tf"])
    def test_trace_monotone(self, variant):
        for seed in range(20):
            conv, tm, cm = make_instance(seed, T=3, V=20, M=60)
            cfg = EstimatorConfig(variant, max_iters=40)
            res = fit(conv, tm, cfg, cm)
            assert non_decreasing(res.loglik_trace)
            assert res.weights.lam.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("variant", ["conf-1best", "conf-tf"])
    def test_reaches_grid_optimum(self, variant):
        use_tf = variant == "conf-tf"
        for seed in (31, 32, 33):
            conv, tm, cm = make_instance(seed, T=2, V=20, M=50)
            cfg = EstimatorConfig(variant, max_iters=3000, rel_tol=1e-13)
            res = fit(conv, tm, cfg, cm)
            bins = bins_as_lists(conv)
            best, _ = oracles.grid_best_t2(
                lambda lam: oracles.loglik_conf(bins, lam, tm.probs, cm.prob, use_tf)
            )
            final = oracles.loglik_conf(bins, res.weights.lam, tm.probs, cm.prob, use_tf)
            assert final >= best - 1e-6

    def test_fixed_point_gradient(self):
        conv, tm, cm = make_instance(41, T=3, V=20, M=60)
        cfg = EstimatorConfig("conf-1best", max_iters=5000, rel_tol=1e-13)
        res = fit(conv, tm, cfg, cm)
        bins = bins_as_lists(conv)

        def obj(mu):
            return oracles.loglik_conf(
                bins, oracles.softmax(mu), tm.probs, cm.prob, False
            )

        grad = oracles.fd_gradient(obj, np.log(res.weights.lam))
        assert np.max(np.abs(grad)) < 1e-4

    def test_zero_channel_mass_fallback_runs(self):
        vocab = Vocabulary(["a", "b"])
        tm = TopicModel(["t1", "t2"], vocab, np.array([[0.9, 0.1], [0.2, 0.8]]))
        cm = channel_from_rows({0: {1: 1.0}, 1: {1: 1.0}})
        conv = Conversation(
            "c", (ConfusionNetwork("u", (Bin([(0, 0.7), (1, 0.3)]),)),)
        )
        cfg = EstimatorConfig("conf-1best", max_iters=5)
        res = fit(conv, tm, cfg, cm)
        assert res.loglik_trace[0] == -np.inf
        assert non_decreasing(res.loglik_trace)


def ragged_instance(seed, dead_bin, T=3, V=60, rowless=15):
    """Bins of every width from 1 to 40 plus random ones, words from
    V - rowless up without a channel row, and with ``dead_bin`` a first bin
    whose 1-best word no word of the bin can emit."""
    rng = np.random.default_rng(seed)
    tm = make_topic_model(rng, T, V)
    rows = {w: r for w, r in make_channel(rng, V).rows.items() if w < V - rowless}
    rows[0] = {1: 1.0}
    rows[1] = {1: 0.5, 2: 0.5}
    # word 0 (which cannot emit itself) appears in the dead bin only
    widths = rng.permutation(np.concatenate([np.arange(1, 41), rng.integers(1, 41, 40)]))
    bins = [Bin([(0, 0.6), (1, 0.3)])] if dead_bin else []
    for k in widths:
        wids = rng.choice(np.arange(1, V), size=k, replace=False)
        post = rng.dirichlet(np.ones(k)) * rng.uniform(0.5, 1.0)
        bins.append(Bin([(int(w), float(p)) for w, p in zip(wids, post)]))
    conv = Conversation("c", (ConfusionNetwork("u", tuple(bins)),))
    return conv, tm, channel_from_rows(rows)


class TestRaggedKernel:
    """Width classes with padding, identity fallback and a dead observation."""

    def test_instance_has_the_shapes(self):
        conv, tm, cm = ragged_instance(0, dead_bin=True)
        widths = {len(b) for b in iter_bins(conv)}
        assert widths == set(range(1, 41))
        words = {w for b in iter_bins(conv) for w in b.word_ids()}
        assert any(w not in cm.rows for w in words)
        first = next(iter_bins(conv))
        assert all(cm.prob(0, w) == 0.0 for w in first.word_ids())

    @pytest.mark.parametrize("use_tf", [False, True])
    def test_loglik_matches_oracle(self, use_tf):
        for seed in (0, 1, 2):
            conv, tm, cm = ragged_instance(seed, dead_bin=False)
            lam = np.random.default_rng(seed).dirichlet(np.ones(3))
            want = oracles.loglik_conf(bins_as_lists(conv), lam, tm.probs, cm.prob, use_tf)
            assert np.isfinite(want)
            assert loglik_conf(conv, tm, lam, cm, use_tf) == pytest.approx(want, rel=1e-10)
            conv, tm, cm = ragged_instance(seed, dead_bin=True)
            assert loglik_conf(conv, tm, lam, cm, use_tf) == -np.inf

    @pytest.mark.parametrize("use_tf", [False, True])
    def test_cell_weights_match_oracle(self, use_tf):
        for seed in (0, 1, 2):
            conv, tm, cm = ragged_instance(seed, dead_bin=True)
            lam = np.random.default_rng(seed).dirichlet(np.ones(3))
            bins = bins_as_lists(conv)
            got = reference_posteriors(conv, tm, lam, cm, use_tf)
            want = oracles.reference_weights(bins, lam, tm.probs, cm.prob, use_tf)
            for g, w in zip(got, want, strict=True):
                assert g.keys() == w.keys()
                assert np.allclose(list(g.values()), [w[k] for k in g], rtol=1e-10, atol=1e-13)
            if not use_tf:
                assert got[0] == {0: 1.0, 1: 0.0}


class TestBlocks:
    """The build walks each width class in blocks of at most BLOCK_ELEMENTS
    elements per array."""

    @pytest.mark.parametrize("use_tf", [False, True])
    @pytest.mark.parametrize("block", [1, 7, 64, 1600])
    def test_block_size_changes_no_value(self, use_tf, block):
        """Blocks of whole bins (1600 elements hold a width-40 bin at T = 3)
        give bitwise the arrays of the default blocks; a bin split into
        ranges of cells adds its partial sums in another order."""
        conv, tm, cm = ragged_instance(0, dead_bin=True)
        whole = _ConfKernel(conv, tm, cm, use_tf)
        sizes = []
        channel_lookup = adapt._channel_lookup

        def spied(*args):
            ws, local, lookup = channel_lookup(*args)

            def counted(key):
                sizes.append(key.size)
                return lookup(key)

            counted.__name__ = lookup.__name__
            return ws, local, counted

        with mock.patch.object(adapt, "BLOCK_ELEMENTS", block), \
                mock.patch.object(adapt, "_channel_lookup", spied):
            got = _ConfKernel(conv, tm, cm, use_tf)
        assert max(sizes) <= block
        for a, b in ((got.R, whole.R), (got.S, whole.S)):
            if block == 1600:
                assert np.array_equal(a, b)
            else:
                assert np.allclose(a, b, rtol=1e-13, atol=0.0)
        lam = np.array([0.2, 0.5, 0.3])
        assert got.stats(lam)[2] == whole.stats(lam)[2] == -np.inf

    @pytest.mark.parametrize("nbins", [1000, 4000])
    def test_scratch_memory_is_bounded(self, nbins):
        """4000 bins of 40 distinct words are 6.4M channel pairs; the build's
        peak stays within a fixed 16 MB of what the kernel keeps (R alone is
        12.8 MB at 4000 bins), over the binary search of U = 2000 words."""
        conv, tm, cm = wide_instance(5, nbins)
        kernel, scratch = traced_peak(_ConfKernel, conv, tm, cm, True)
        assert kernel.lookup == "search"
        assert scratch < 16e6


@st.composite
def lookup_cases(draw):
    """A conversation over some of V words and a channel with rowless words
    (among them every id from ``n`` up), entries to words outside the
    conversation and to ids past V, and often a word that nothing emits."""
    V = draw(st.integers(1, 12))
    n = draw(st.integers(0, V))
    entries = []
    for w in range(n):
        obs = draw(st.lists(st.integers(0, V + 2), max_size=5, unique=True))
        entries += [(w, v, draw(st.floats(0.01, 1.0))) for v in sorted(obs)]
    spoken, obs, probs = zip(*entries) if entries else ((), (), ())
    cm = ChannelModel(np.array(spoken, dtype=np.int64), np.array(obs, dtype=np.int64),
                      np.array(probs, dtype=np.float64), n)
    widths = draw(st.lists(st.integers(1, V), min_size=1, max_size=8))
    bins = [draw(st.permutations(range(V)))[:k] for k in widths]
    words = np.array([w for b in bins for w in b], dtype=np.int64)
    posts = np.concatenate([np.full(k, 1.0 / k) for k in widths])
    conv = Conversation.from_arrays("c", ("u",), np.array([0, len(widths)]),
                                    np.concatenate([[0], np.cumsum(widths)]), words, posts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return conv, make_topic_model(rng, draw(st.integers(1, 4)), V), cm


class TestChannelLookup:
    """The dense table and the binary search are two ways to the same values."""

    @settings(max_examples=150, deadline=None)
    @given(lookup_cases())
    def test_table_and_search_agree(self, case):
        conv, tm, cm = case
        V = tm.probs.shape[1]
        ws, local, search = _channel_lookup(cm, conv.words, V, 0)
        U = ws.size
        ws2, local2, table = _channel_lookup(cm, conv.words, V, U * U)
        assert (search.__name__, table.__name__) == ("search", "table")
        assert np.array_equal(ws, np.unique(conv.words))
        assert np.array_equal(ws, ws2) and np.array_equal(local, local2)
        assert np.array_equal(ws[local], conv.words)
        # keys from U * U on are padding, which looks up 0
        keys = np.arange(2 * U * U + 1)
        want = [cm.prob(int(ws[k % U]), int(ws[k // U])) if k < U * U else 0.0 for k in keys]
        assert search(keys).tolist() == want
        assert table(keys).tolist() == want

        def kernel(budget, use_tf):
            def forced(cm, words, V, _):
                return _channel_lookup(cm, words, V, budget)

            with mock.patch.object(adapt, "_channel_lookup", forced):
                return _ConfKernel(conv, tm, cm, use_tf)

        for use_tf in (False, True):
            searched, tabled = kernel(0, use_tf), kernel(U * U, use_tf)
            assert (searched.lookup, tabled.lookup) == ("search", "table")
            assert np.array_equal(searched.R, tabled.R)


def plain_em(kernel, T, max_iters, rel_tol):
    """Weights and objective trace of unaccelerated EM, one multiplicative
    update after another, stopped by the relative test of the driver."""
    lam = np.full(T, 1.0 / T)
    N, D, ll = kernel.stats(lam)
    trace = [ll]
    for it in range(1, max_iters + 1):
        u = _conf_update(N, D, lam, 0.0, it)
        lam = u / u.sum()
        N, D, ll = kernel.stats(lam)
        trace.append(ll)
        if _step_converged(trace[-2], trace[-1], rel_tol):
            break
    return lam, trace


class TestEmDriver:
    """The safeguarded SQUAREM cycles of ``adapt._run_em`` on conf-* fits."""

    @pytest.mark.parametrize("variant", ["conf-1best", "conf-tf"])
    def test_one_iteration_is_one_plain_step(self, variant):
        conv, tm, cm = make_instance(12, T=3, V=20, M=60)
        res = fit(conv, tm, EstimatorConfig(variant, max_iters=1), cm)
        want, _ = conf_em_step(conv, tm, cm, np.full(3, 1.0 / 3), use_tf=variant == "conf-tf")
        assert np.array_equal(res.weights.lam, want)
        assert len(res.loglik_trace) == 2
        assert (res.iterations, res.evaluations) == (1, 2)

    @pytest.mark.parametrize("variant", ["conf-1best", "conf-tf"])
    def test_diag_counts_kernel_evaluations(self, tmp_path, monkeypatch, variant):
        conv, tm, cm = make_instance(14, T=3, V=20, M=60)
        save_topic_model(tm, tmp_path / "t.model")
        save_channel(cm, tm.vocab, tmp_path / "ch.model")
        save_conversation(conv, tm.vocab, tmp_path / "c.cnet")
        calls = []
        stats = _ConfKernel.stats

        def counted(self, lam):
            calls.append(lam)
            return stats(self, lam)

        monkeypatch.setattr(_ConfKernel, "stats", counted)
        code = main(["adapt", str(tmp_path / "c.cnet"), str(tmp_path / "t.model"),
                     str(tmp_path / "c.lambda"), "--variant", variant,
                     "--channel", str(tmp_path / "ch.model"), "--tol", "1e-10",
                     "--max-iters", "1000"])
        assert code == 0
        diag = json.loads((tmp_path / "c.lambda.diag.json").read_text())
        assert diag["evaluations"] == len(calls)
        assert diag["evaluations"] >= diag["iterations"] + 1
        assert diag["iterations"] == len(diag["loglik_trace"]) - 1
        assert diag["converged"]

    @pytest.mark.parametrize("variant", ["conf-1best", "conf-tf"])
    def test_fewer_evaluations_than_plain_em(self, variant):
        evaluations = plain_evaluations = 0
        for seed in range(5):
            conv, tm, cm = make_instance(seed, T=3, V=20, M=100)
            res = fit(conv, tm, EstimatorConfig(variant, max_iters=5000, rel_tol=1e-10), cm)
            kernel = _ConfKernel(conv, tm, cm, variant == "conf-tf")
            _, trace = plain_em(kernel, 3, 5000, 1e-10)
            assert res.converged
            assert res.loglik_trace[-1] >= trace[-1] - 1e-9 * abs(trace[-1])
            evaluations += res.evaluations
            plain_evaluations += len(trace)
        assert evaluations < plain_evaluations / 2

    @pytest.mark.parametrize("use_tf", [False, True])
    def test_rejected_extrapolation_falls_back_to_plain_em(self, use_tf):
        conv, tm, cm = make_instance(15, T=3, V=20, M=60)
        kernel = _ConfKernel(conv, tm, cm, use_tf)
        lam0 = np.full(3, 1.0 / 3)
        plain_points = [lam0]
        rejected = []

        def stats(lam):
            N, D, ll = kernel.stats(lam)
            return (N, D), ll

        def update(acc, lam, it):
            # the extrapolated point is the only one no update returned
            if not any(lam is p for p in plain_points):
                rejected.append(it)
                raise EstimationError("extrapolated point")
            u = _conf_update(*acc, lam, 0.0, it)
            plain_points.append(u / u.sum())
            return plain_points[-1]

        res = _run_em(lam0, stats, update, 0.0, 30, 1e-300)
        lam, trace = plain_em(kernel, 3, 30, 1e-300)
        # every cycle falls back to its second EM step, so the fit is plain EM
        assert len(rejected) == 15
        assert res.loglik_trace == trace
        assert np.array_equal(res.weights.lam, lam)
        assert non_decreasing(res.loglik_trace)
        assert (res.iterations, res.converged) == (30, False)
        # the start, then per cycle its plain step, the extrapolated point
        # and the fallback
        assert res.evaluations == 1 + 15 * 3

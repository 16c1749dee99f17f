"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values come from test-local reference implementations
(oracles.py) or exact hand arithmetic, never from the code under test.
"""

import os
import time

import numpy as np

import oracles
from cnadapt.adapt import EstimatorConfig, fit
from cnadapt.channel import estimate_channel
from cnadapt.cli import main
from cnadapt.corpus import Bin, ConfusionNetwork, Conversation
from cnadapt.metrics import ReferenceCorpus, constrained_perplexity, perplexity
from cnadapt.synth import SynthSpec, sample_conversation
from helpers import (
    bins_as_lists,
    conf_lower_bound,
    load_truth_lambda,
    make_conversation,
    make_instance,
    non_decreasing,
)

A1_BUDGET = 60.0
A2_BUDGET = 120.0
A3_BUDGET = 120.0
A4_BUDGET = 300.0

SIZE_CYCLE = [(T, V, M) for T in (2, 5) for V in (20, 100) for M in (50, 500)]


def a3_spec(seed):
    return SynthSpec(
        topics=3, vocab_size=50, lambda_true=None, topic_sharpness=0.1,
        channel_noise=0.4, bins=5000, bin_width=10, seed=seed,
    )


def oracle_objective(variant, map_strength, conv, tm, cm, lam):
    bins = bins_as_lists(conv)
    if variant == "self-1best":
        ll = oracles.loglik_self_1best(bins, lam, tm.probs)
    elif variant == "self-tf":
        ll = oracles.loglik_self_tf(bins, lam, tm.probs)
    else:
        ll = oracles.loglik_conf(bins, lam, tm.probs, cm.prob, variant == "conf-tf")
    return oracles.penalized(ll, lam, map_strength)


def grid_objectives(variant, conv, tm, cm, lams):
    """Objective at every 2-topic grid point, from first principles."""
    Q = tm.probs
    out = np.zeros(lams.shape[0])
    for cells in bins_as_lists(conv):
        wids = [w for w, _ in cells]
        s = np.array([p for _, p in cells])
        Qw = Q[:, wids]
        qmix = lams @ Qw
        if variant.startswith("self"):
            if variant == "self-1best":
                out += np.log(qmix[:, 0])
            else:
                out += np.log(qmix) @ s
            continue
        C = np.array([[cm.prob(v, w) for v in wids] for w in wids])
        den = qmix @ C
        logbin = np.log(qmix.sum(axis=1))
        if variant == "conf-1best":
            out += np.log(den[:, 0]) - logbin
        else:
            out += np.log(den) @ s - s.sum() * logbin
    return out


def test_a1_em_monotonicity():
    start = time.perf_counter()
    variants = [
        ("self-1best", 0.0),
        ("self-1best", -0.05),
        ("self-tf", 0.0),
        ("self-tf", 0.1),
        ("conf-1best", 0.0),
        ("conf-tf", 0.0),
    ]
    for variant, m in variants:
        for seed in range(100):
            T, V, M = SIZE_CYCLE[seed % len(SIZE_CYCLE)]
            conv, tm, cm = make_instance(seed, T=T, V=V, M=M)
            cfg = EstimatorConfig(variant, map_strength=m, max_iters=50)
            res = fit(conv, tm, cfg, cm)
            assert non_decreasing(res.loglik_trace, slack=1e-9), (
                f"{variant} m={m} seed={seed}: trace decreased"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < A1_BUDGET
    print(f"\nACCEPTANCE A1 (EM monotonicity, 6 variants x 100 instances): "
          f"PASS [{elapsed:.1f}s]")


def test_a2_brute_force_equivalence():
    start = time.perf_counter()
    lams = np.stack(
        [np.arange(0.0, 1.0005, 0.001), 1.0 - np.arange(0.0, 1.0005, 0.001)], axis=1
    )
    lams = np.clip(lams, 0.0, 1.0)
    checked = 0
    for seed in range(20):
        conv, tm, cm = make_instance(1000 + seed, T=2, V=20, M=50)
        for variant in ("self-1best", "self-tf", "conf-1best", "conf-tf"):
            base = grid_objectives(variant, conv, tm, cm, lams)
            for m in (0.0, -0.05, 0.1):
                with np.errstate(divide="ignore", invalid="ignore"):
                    grid = base + m * np.log(lams).sum(axis=1) if m else base
                grid_max = np.max(grid[np.isfinite(grid)])
                cfg = EstimatorConfig(
                    variant, map_strength=m, max_iters=5000, rel_tol=1e-13
                )
                res = fit(conv, tm, cfg, cm)
                final = oracle_objective(variant, m, conv, tm, cm, res.weights.lam)
                assert final >= grid_max - 1e-6, (
                    f"{variant} m={m} seed={seed}: EM {final} < grid {grid_max}"
                )
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < A2_BUDGET
    print(f"\nACCEPTANCE A2 (EM >= 0.001-grid optimum on {checked} fits): "
          f"PASS [{elapsed:.1f}s]")


def test_a3_oracle_recovery():
    start = time.perf_counter()
    hits = 0
    errors = []
    for seed in range(20):
        conv, truth = sample_conversation(a3_spec(9000 + seed))
        cfg = EstimatorConfig("conf-tf", max_iters=1000, rel_tol=1e-9)
        lam = fit(conv, truth.topics, cfg, truth.channel).weights.lam
        err = float(np.abs(lam - truth.lam).sum())
        errors.append(err)
        hits += err <= 0.05
    elapsed = time.perf_counter() - start
    assert hits >= 18, f"only {hits}/20 seeds within 0.05: {np.round(errors, 4)}"
    assert elapsed < A3_BUDGET
    print(f"\nACCEPTANCE A3 (oracle recovery {hits}/20 within L1 0.05, "
          f"mean {np.mean(errors):.4f}): PASS [{elapsed:.1f}s]")


def test_a4_confusion_beats_self_training():
    start = time.perf_counter()
    wins = 0
    for seed in range(50):
        conv, truth = sample_conversation(a3_spec(7000 + seed))
        conf = fit(
            conv, truth.topics,
            EstimatorConfig("conf-tf", max_iters=500, rel_tol=1e-8),
            truth.channel,
        ).weights.lam
        self_tf = fit(
            conv, truth.topics, EstimatorConfig("self-tf", max_iters=500, rel_tol=1e-8)
        ).weights.lam
        e_conf = np.abs(conf - truth.lam).sum()
        e_self = np.abs(self_tf - truth.lam).sum()
        wins += e_conf <= e_self
    elapsed = time.perf_counter() - start
    assert wins >= 45, f"confusion estimate won on only {wins}/50 seeds"
    assert elapsed < A4_BUDGET
    print(f"\nACCEPTANCE A4 (confusion beats self-training on {wins}/50 seeds): "
          f"PASS [{elapsed:.1f}s]")


def test_a5_lower_bound_validity():
    rng = np.random.default_rng(515)
    checked = 0
    for inst in range(40):
        T = int(rng.integers(2, 6))
        conv, tm, cm = make_instance(3000 + inst, T=T, V=15, M=30)
        bins = bins_as_lists(conv)
        use_tf = inst % 2 == 0
        for _ in range(25):
            mu = rng.normal(size=T) * 2.0
            delta = rng.normal(size=T) * 0.7
            bound = conf_lower_bound(conv, tm, cm, mu, delta, use_tf)
            qdiff = oracles.q_difference_conf(
                bins, mu, delta, tm.probs, cm.prob, use_tf
            )
            assert bound <= qdiff + 1e-9, (
                f"instance {inst}: bound {bound} exceeds Q-difference {qdiff}"
            )
            checked += 1
    assert checked == 1000
    print(f"\nACCEPTANCE A5 (surrogate <= true Q-difference on {checked} triples): PASS")


def test_a6_fixed_point_gradient():
    variants = ["self-1best", "self-tf", "conf-1best", "conf-tf"]
    worst = 0.0
    for i in range(20):
        variant = variants[i % 4]
        conv, tm, cm = make_instance(4000 + i, T=3, V=20, M=100)
        cfg = EstimatorConfig(variant, max_iters=20000, rel_tol=1e-14)
        res = fit(conv, tm, cfg, cm)
        bins = bins_as_lists(conv)

        if variant == "self-1best":
            def obj(mu):
                return oracles.loglik_self_1best(bins, oracles.softmax(mu), tm.probs)
        elif variant == "self-tf":
            def obj(mu):
                return oracles.loglik_self_tf(bins, oracles.softmax(mu), tm.probs)
        else:
            use_tf = variant == "conf-tf"
            def obj(mu, use_tf=use_tf):
                return oracles.loglik_conf(
                    bins, oracles.softmax(mu), tm.probs, cm.prob, use_tf
                )

        with np.errstate(divide="ignore"):
            mu_hat = np.log(res.weights.lam)
        grad = oracles.fd_gradient(obj, mu_hat, h=1e-6)
        worst = max(worst, float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad)) < 1e-4, f"{variant} instance {i}: grad {grad}"
    print(f"\nACCEPTANCE A6 (fixed-point FD gradient < 1e-4, worst {worst:.2e}): PASS")


def test_a7_metric_exactness():
    probs = np.full(4, 0.25)
    corpus = ReferenceCorpus.from_tokens([0, 1, 2, 3, 2, 1])
    assert abs(perplexity(probs, corpus) - 4.0) <= 1e-12
    max_count = max(corpus.counts.values())
    assert constrained_perplexity(probs, corpus, max_count) == perplexity(probs, corpus)
    rng = np.random.default_rng(7)
    model = rng.dirichlet(np.ones(6))
    tokens = list(rng.integers(0, 6, size=200))
    corpus2 = ReferenceCorpus.from_tokens(tokens)
    assert constrained_perplexity(
        model, corpus2, max(corpus2.counts.values())
    ) == perplexity(model, corpus2)
    print("\nACCEPTANCE A7 (uniform PPL exactly 4; vacuous thr equals "
          "unconstrained): PASS")


def test_a8_channel_estimator():
    conv = Conversation(
        "c",
        (
            ConfusionNetwork(
                "u", (Bin([(0, 0.6), (1, 0.4)]), Bin([(0, 0.7), (2, 0.3)]))
            ),
        ),
    )
    cm = estimate_channel([conv])
    assert cm.rows[0] == {0: 0.5, 1: 0.25, 2: 0.25}
    assert cm.rows[1] == {0: 0.5, 1: 0.5}
    assert cm.rows[2] == {0: 0.5, 2: 0.5}
    for seed in range(10):
        rng = np.random.default_rng(seed)
        random_conv = make_conversation(rng, V=30, M=80)
        cm2 = estimate_channel([random_conv])
        for w, row in cm2.rows.items():
            assert abs(sum(row.values()) - 1.0) <= 1e-9
    print("\nACCEPTANCE A8 (channel matches hand-derived table exactly; "
          "row sums within 1e-9): PASS")


def test_a9_cli_determinism(tmp_path, capsys):
    def collect(directory):
        found = {}
        for root, _, files in os.walk(directory):
            for name in sorted(files):
                if name.endswith("manifest.json"):
                    continue
                p = os.path.join(root, name)
                rel = os.path.relpath(p, directory)
                with open(p, "rb") as fh:
                    found[rel] = fh.read()
        return found

    def pipeline(workdir):
        workdir.mkdir()
        spec = workdir / "spec.json"
        spec.write_text(
            '{"topics": 2, "vocab_size": 20, "topic_sharpness": 0.2,'
            ' "channel_noise": 0.3, "bins": 120, "bin_width": 5, "seed": 11,'
            ' "conversations": 2}'
        )
        data = workdir / "data"
        assert main(["synth", str(spec), str(data)]) == 0
        assert main(["channel", str(data / "*.cnet"), str(workdir / "est.channel")]) == 0
        corpus = workdir / "corpus"
        for topic, text in (("red", "a b a c"), ("blue", "d e d f")):
            (corpus / topic).mkdir(parents=True)
            (corpus / topic / "t.txt").write_text(text)
        assert main(["topics-train", str(corpus), str(workdir / "trained.topics")]) == 0
        assert main([
            "adapt", str(data / "synth000.cnet"), str(data / "topics.model"),
            str(workdir / "fit.lambda"), "--variant", "conf-tf",
            "--channel", str(data / "channel.model"),
            "--out-unigram", str(workdir / "fit.unigram"),
        ]) == 0
        ref = workdir / "ref.txt"
        ref.write_text("w00 w01 w02 w03 w04 w05\n")
        assert main([
            "ppl", str(workdir / "fit.unigram"), str(ref),
            "--out", str(workdir / "report.tsv"),
        ]) == 0
        capsys.readouterr()
        return collect(workdir)

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    assert set(first) == set(second)
    for rel in first:
        assert first[rel] == second[rel], f"output {rel} differs between reruns"
    print(f"\nACCEPTANCE A9 (rerun byte-identity across {len(first)} CLI "
          "outputs): PASS")

"""The benchmark's use of the library, run as tier-1.

``perfbench/gen.py`` builds its inputs through the library's object form
(``prune_ragged``), and ``perfbench/checker.py`` checks ``cnadapt adapt``'s
outputs from their definitions, and ``perfbench/worker.py``'s tracer wraps
the layer functions at the names ``cnadapt.cli`` calls them by.  Running
them on one small input set here makes a library change that breaks the
benchmark fail the test suite.

``a3-fit`` (50 words) looks its channel pairs up in the dense table and
``wide-ragged`` (about 1,700 distinct words per conversation) by binary
search, so the two workloads run both sides of ``adapt._channel_lookup``;
the manifest entry's ``lookup`` says which side ran.  The ``wide-ragged``
model pair is also loaded and checked against the loaders' line-by-line
references.
"""

import importlib
import json
import os
import shutil

import numpy as np
import pytest

from cnadapt import adapt, cli, topics
from cnadapt.channel import load_channel
from cnadapt.cli import main
from cnadapt.corpus import Vocabulary, load_conversation
from cnadapt.topics import load_topic_model
from helpers import (
    assert_matches_reference,
    reference_load_channel,
    reference_load_topic_model,
    reference_parse,
)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("variant", ["conf-1best", "conf-tf"])
@pytest.mark.parametrize("workload, lookup", [("a3-fit", "table"), ("wide-ragged", "search")])
def test_fit_passes_checker(tmp_path, monkeypatch, workload, lookup, variant):
    monkeypatch.syspath_prepend(PERFBENCH)
    gen, checker, workloads = map(importlib.import_module, ("gen", "checker", "workloads"))
    models, seed_dir = tmp_path / "models", tmp_path / "seed1"
    assert gen.main([workload, "1", str(models), str(seed_dir)]) == 0
    cnet, out, unigram = seed_dir / "c0.cnet", tmp_path / "c0.lambda", tmp_path / "c0.unigram"
    assert main([
        "adapt", str(cnet), str(models / "topics.model"), str(out),
        "--variant", variant, "--channel", str(models / "channel.model"),
        "--tol", workloads.TOL, "--max-iters", workloads.MAX_ITERS,
        "--out-unigram", str(unigram),
    ]) == 0
    manifest = json.loads((tmp_path / "c0.lambda.manifest.json").read_text())
    assert [e["lookup"] for e in manifest["conversations"]] == [lookup]
    model = checker.Model(str(models / "topics.model"), str(models / "channel.model"))
    lat = checker.Lattice(str(cnet), model)
    truth = json.loads((seed_dir / "truth" / f"{lat.cid}.json").read_text())
    checker.check_fit(lat, model, variant, str(out), str(unigram), truth)


def test_tracer_records_every_layer(tmp_path, monkeypatch):
    """A directory-mode ``cnadapt adapt --out-unigram`` run under the
    worker's tracer records a span of finite length in every layer the
    tracer wraps and in ``adapt.eval``: a layer with no span would put a
    NaN median into a traced run's result line."""
    monkeypatch.syspath_prepend(PERFBENCH)
    gen, worker, workloads = map(importlib.import_module, ("gen", "worker", "workloads"))
    models, seed_dir = tmp_path / "models", tmp_path / "seed1"
    assert gen.main(["a3-fit", "1", str(models), str(seed_dir)]) == 0
    cnets = tmp_path / "d0"
    cnets.mkdir()
    shutil.copy(seed_dir / "c0.cnet", cnets)
    tracer = worker.Tracer(cli, adapt, topics)
    with tracer.active(0):
        assert main([
            "adapt", str(cnets), str(models / "topics.model"), str(tmp_path / "fits"),
            "--variant", "conf-tf", "--channel", str(models / "channel.model"),
            "--tol", workloads.TOL, "--max-iters", workloads.MAX_ITERS, "--out-unigram",
        ]) == 0
    layers = [name for _, _, name in tracer.targets] + ["adapt.eval"]
    assert len(layers) == 7
    for name in layers:
        seconds = [s["end"] - s["start"] for s in tracer.spans if s["name"] == name]
        assert seconds and np.isfinite(seconds).all(), name


def test_model_pair_matches_line_by_line_reference(tmp_path, monkeypatch):
    """The ``wide-ragged`` topic model (10 topics over 2,000 words) and
    channel load bitwise as the line-by-line references read them."""
    monkeypatch.syspath_prepend(PERFBENCH)
    gen = importlib.import_module("gen")
    models = tmp_path / "models"
    assert gen.main(["wide-ragged", "1", str(models), str(tmp_path / "seed1")]) == 0
    text = (models / "topics.model").read_text(encoding="utf-8")
    tm = load_topic_model(models / "topics.model")
    labels, words, probs = reference_load_topic_model(text)
    assert (tm.labels, tm.vocab.words) == (labels, words)
    assert tm.probs.dtype == probs.dtype and tm.probs.tobytes() == probs.tobytes()

    text = (models / "channel.model").read_text(encoding="utf-8")
    cm = load_channel(models / "channel.model", tm.vocab)
    rows = reference_load_channel(text, Vocabulary(words))
    spoken = sorted(rows)
    counts = np.zeros(len(words), dtype=np.int64)
    counts[spoken] = [len(rows[w]) for w in spoken]
    assert cm.ptr.tolist() == [0] + np.cumsum(counts).tolist()
    assert cm.obs.tolist() == [v for w in spoken for v in sorted(rows[w])]
    want = np.array([rows[w][v] for w in spoken for v in sorted(rows[w])])
    assert cm.probs.tobytes() == want.tobytes()
    assert cm.dropped == 0


@pytest.mark.parametrize("workload", ["a3-fit", "wide-ragged"])
def test_cnet_matches_line_by_line_reference(tmp_path, monkeypatch, workload):
    """A conversation of the benchmark's own shape loads bitwise as the
    line-by-line reference parses it, in open mode and closed to the
    model's words: ``a3-fit`` has 10 cells per bin and 9 fraction digits
    per posterior, ``wide-ragged`` bins pruned to 1 to 40 cells."""
    monkeypatch.syspath_prepend(PERFBENCH)
    gen = importlib.import_module("gen")
    models, seed_dir = tmp_path / "models", tmp_path / "seed1"
    assert gen.main([workload, "1", str(models), str(seed_dir)]) == 0
    cnet = seed_dir / "c0.cnet"
    text = cnet.read_text(encoding="utf-8")
    words = load_topic_model(models / "topics.model").vocab.words
    for closed, base in ((False, ()), (True, words)):
        ref_vocab, vocab = Vocabulary(base), Vocabulary(base)
        want = reference_parse(text, ref_vocab, closed)
        assert_matches_reference(load_conversation(cnet, vocab, closed), vocab, want, ref_vocab)

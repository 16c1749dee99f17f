"""The benchmark's use of the library, run as tier-1.

``perfbench/gen.py`` builds its inputs through the library's object form
(``prune_ragged``), and ``perfbench/checker.py`` checks ``cnadapt adapt``'s
outputs from their definitions.  Running both on one small input set here
makes a library change that breaks the benchmark fail the test suite.

``a3-fit`` (50 words) looks its channel pairs up in the dense table and
``wide-ragged`` (about 1,700 distinct words per conversation) by binary
search, so the two workloads run both sides of ``adapt._channel_lookup``;
the manifest entry's ``lookup`` says which side ran.
"""

import importlib
import json
import os

import pytest

from cnadapt.cli import main

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

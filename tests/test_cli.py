import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cnadapt import adapt, cli, modelfile, synth, topics
from cnadapt.cli import main
from cnadapt.corpus import Vocabulary
from cnadapt.errors import EstimationError
from helpers import load_truth_lambda, traced_peak


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_corpus(root):
    (root / "news").mkdir(parents=True)
    (root / "sport").mkdir()
    (root / "news" / "a.txt").write_text("election vote election poll\n")
    (root / "news" / "b.txt").write_text("vote debate\n")
    (root / "sport" / "a.txt").write_text("goal match goal team\n")
    return root


def write_cnets(d):
    d.mkdir(parents=True, exist_ok=True)
    (d / "c1.cnet").write_text("CONV c1\nNET u1 2\nBIN a:0.6 b:0.4\nBIN a:0.7 c:0.3\n")
    return d


def synth_spec(path, **over):
    doc = dict(
        topics=3, vocab_size=50, lambda_true=None, topic_sharpness=0.1,
        channel_noise=0.4, bins=5000, bin_width=10, seed=424, conversations=1,
    )
    doc.update(over)
    path.write_text(json.dumps(doc))
    return path


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that records each call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def read_nonmanifest(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".manifest.json") or name == "manifest.json":
            continue
        p = os.path.join(directory, name)
        if os.path.isfile(p):
            with open(p, "rb") as fh:
                out[name] = fh.read()
    return out


class TestTopicsTrain:
    def test_trains_and_reruns_identically(self, tmp_path, capsys):
        root = write_corpus(tmp_path / "corpus")
        out1, out2 = tmp_path / "m1.topics", tmp_path / "m2.topics"
        code, out, _ = run(["topics-train", str(root), str(out1)], capsys)
        assert code == 0
        assert "2 topics" in out
        from cnadapt.topics import load_topic_model

        tm = load_topic_model(out1)
        assert np.allclose(tm.probs.sum(axis=1), 1.0, atol=1e-9)
        code, _, _ = run(["topics-train", str(root), str(out2)], capsys)
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "m1.topics.manifest.json").exists()

    def test_missing_dir_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            ["topics-train", str(tmp_path / "nope"), str(tmp_path / "m")], capsys
        )
        assert code == 2
        assert "error" in err

    def test_no_topic_folders_exit_2(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "a.txt").write_text("vote\n")  # a file, not a topic folder
        code, stdout, err = run(["topics-train", str(root), str(tmp_path / "m")], capsys)
        assert code == 2
        assert err == f"error: no topic subdirectories under {str(root)!r}\n"
        assert stdout == ""
        assert not (tmp_path / "m").exists()

    def test_empty_topic_folder_exit_2(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        (root / "empty").mkdir(parents=True)
        code, _, _ = run(["topics-train", str(root), str(tmp_path / "m")], capsys)
        assert code == 2

    @pytest.mark.parametrize("name", ["sports news", "news\t", "\u3000news", "a\x85b"])
    def test_label_with_whitespace_exit_2(self, tmp_path, capsys, name):
        # the model file's "TOPIC <label>" line would not load back
        root = write_corpus(tmp_path / "corpus")
        (root / name).mkdir()
        (root / name / "a.txt").write_text("vote\n")
        code, stdout, err = run(["topics-train", str(root), str(tmp_path / "m")], capsys)
        assert code == 2
        assert err == f"error: topic folder name {name!r} holds whitespace\n"
        assert stdout == ""
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_corpus_not_utf8(self, tmp_path, capsys, newline):
        root = write_corpus(tmp_path / "corpus")
        bad = root / "sport" / "b.txt"
        bad.write_bytes(newline.encode().join([b"team", b"goal", b"\xffmatch", b""]))
        code, stdout, err = run(["topics-train", str(root), str(tmp_path / "m")], capsys)
        assert code == 2
        assert err == f"error: {bad}: line 3: not valid UTF-8: invalid start byte (byte 0xff)\n"
        assert stdout == ""
        assert not (tmp_path / "m").exists()


class TestChannel:
    def test_two_bin_fixture(self, tmp_path, capsys):
        d = write_cnets(tmp_path / "cnets")
        out = tmp_path / "ch.model"
        code, _, _ = run(["channel", str(d / "*.cnet"), str(out)], capsys)
        assert code == 0
        assert "a a 0.5\n" in out.read_text()

    def test_empty_glob_exit_2(self, tmp_path, capsys):
        code, _, _ = run(
            ["channel", str(tmp_path / "*.cnet"), str(tmp_path / "ch")], capsys
        )
        assert code == 2

    def test_bad_cnet_in_glob_named(self, tmp_path, capsys):
        d = write_cnets(tmp_path / "cnets")
        bad = d / "c2.cnet"
        bad.write_text("CONV c2\nNET u1 1\nBIN x:zz\n")
        out = tmp_path / "ch.model"
        code, stdout, err = run(["channel", str(d / "*.cnet"), str(out)], capsys)
        assert code == 2
        assert err == f"error: {bad}: line 3: bad posterior 'zz'\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("option, message", [
        (["--rel-floor", "2"], "rel_floor 2.0 outside [0, 1]"),
        (["--max-words", "0"], "max_words 0 < 1"),
    ], ids=["rel-floor", "max-words"])
    def test_bad_pruning_option_exit_2(self, tmp_path, capsys, option, message):
        d = write_cnets(tmp_path / "cnets")
        out = tmp_path / "ch.model"
        code, stdout, err = run(["channel", str(d / "*.cnet"), str(out), *option], capsys)
        assert code == 2
        assert err == f"error: {message}\n"
        assert stdout == ""
        assert not out.exists()

    def test_rerun_determinism(self, tmp_path, capsys):
        d = write_cnets(tmp_path / "cnets")
        o1, o2 = tmp_path / "ch1", tmp_path / "ch2"
        run(["channel", str(d / "*.cnet"), str(o1)], capsys)
        run(["channel", str(d / "*.cnet"), str(o2)], capsys)
        assert o1.read_bytes() == o2.read_bytes()


class TestSynthCmd:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        spec = synth_spec(tmp_path / "spec.json", bins=200)
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        code, out, _ = run(["synth", str(spec), str(d1)], capsys)
        assert code == 0
        for name in ("synth000.cnet", "synth000.truth", "topics.model",
                     "channel.model", "manifest.json"):
            assert (d1 / name).exists()
        run(["synth", str(spec), str(d2)], capsys)
        assert read_nonmanifest(d1) == read_nonmanifest(d2)

    def test_noiseless_singletons(self, tmp_path, capsys):
        spec = synth_spec(tmp_path / "spec.json", bins=50, channel_noise=0.0)
        d = tmp_path / "out"
        run(["synth", str(spec), str(d)], capsys)
        for line in (d / "synth000.cnet").read_text().splitlines():
            if line.startswith("BIN"):
                assert len(line.split()) == 2
                assert line.endswith(":1")

    def test_seed_override_changes_output(self, tmp_path, capsys):
        spec = synth_spec(tmp_path / "spec.json", bins=50)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(["synth", str(spec), str(d1)], capsys)
        run(["synth", str(spec), str(d2), "--seed", "77"], capsys)
        assert (d1 / "synth000.cnet").read_bytes() != (d2 / "synth000.cnet").read_bytes()

    def test_shared_structures_built_once(self, tmp_path, capsys, monkeypatch):
        calls = count_calls(monkeypatch, synth, "_shared_structures")
        spec = synth_spec(tmp_path / "spec.json", bins=50, conversations=3)
        code, _, _ = run(["synth", str(spec), str(tmp_path / "o")], capsys)
        assert code == 0
        assert len(calls) == 1

    def test_bad_spec_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"topics": 3}))
        code, _, _ = run(["synth", str(bad), str(tmp_path / "o")], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "over, extra",
        [
            ({"conversations": 0}, []),
            ({"conversations": -1}, []),
            ({"bins": "x"}, []),
            ({"topics": 2.7}, []),
            ({"lambda_true": [float("nan"), 0.5, 0.5]}, []),
            ({"topic_sharpness": float("nan")}, []),
            ({"seed": -1}, []),
            ({}, ["--seed", "-1"]),
            (b'{"topics": 3, "x": "\xff"}', []),
        ],
        ids=["conversations-0", "conversations-neg", "bins-str", "topics-float",
             "lambda-nan", "sharpness-nan", "seed-neg", "seed-override-neg", "not-utf8"],
    )
    def test_bad_spec_one_line_no_output(self, tmp_path, capsys, over, extra):
        spec = tmp_path / "spec.json"
        if isinstance(over, bytes):
            spec.write_bytes(over)
        else:
            synth_spec(spec, **{"bins": 50, **over})
        out = tmp_path / "o"
        code, _, err = run(["synth", str(spec), str(out)] + extra, capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if isinstance(over, bytes):
            assert err == (f"error: synth spec {spec}: line 1: "
                           "not valid UTF-8: invalid start byte (byte 0xff)\n")
        assert not out.exists()

    def test_outputs_written_together(self, tmp_path, capsys):
        spec = synth_spec(tmp_path / "spec.json", bins=50, conversations=2)
        out = tmp_path / "o"
        (out / "synth001.truth").mkdir(parents=True)
        code, stdout, err = run(["synth", str(spec), str(out)], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(out / "synth001.truth") in err
        assert stdout == ""
        assert os.listdir(out) == ["synth001.truth"]
        assert os.listdir(out / "synth001.truth") == []

    @pytest.mark.parametrize("over, message", [
        ({"channel_noise": "x"}, "synth spec channel_noise must be a number, got 'x'"),
        ({"topic_sharpness": None}, "synth spec topic_sharpness must be a number, got None"),
        ({"lambda_true": "x"}, "synth spec lambda_true must be a list of numbers, got 'x'"),
        ({"lambda_true": [0.5, "a"]},
         "synth spec lambda_true must be a list of numbers, got [0.5, 'a']"),
        ({"topics": 0}, "topics, vocab_size and bins must be >= 1"),
        ({"bins": 0}, "topics, vocab_size and bins must be >= 1"),
    ], ids=["noise-str", "sharpness-null", "lambda-str", "lambda-item-str", "topics-0",
            "bins-0"])
    def test_spec_check_messages(self, tmp_path, capsys, over, message):
        spec = synth_spec(tmp_path / "spec.json", **{"bins": 50, **over})
        out = tmp_path / "o"
        code, stdout, err = run(["synth", str(spec), str(out)], capsys)
        assert code == 2
        assert err == f"error: {message}\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("text", ["5", "null"])
    def test_spec_not_an_object(self, tmp_path, capsys, text):
        (tmp_path / "spec.json").write_text(text)
        out = tmp_path / "o"
        code, _, err = run(["synth", str(tmp_path / "spec.json"), str(out)], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("synthrun")
    spec = synth_spec(tmp / "spec.json")
    d = tmp / "data"
    assert main(["synth", str(spec), str(d)]) == 0
    return d


class TestAdapt:
    def test_conf_tf_recovers_truth(self, synth_run, tmp_path, capsys):
        out = tmp_path / "c.lambda"
        code, _, _ = run(
            [
                "adapt", str(synth_run / "synth000.cnet"),
                str(synth_run / "topics.model"), str(out),
                "--variant", "conf-tf", "--channel", str(synth_run / "channel.model"),
                "--max-iters", "500", "--tol", "1e-9",
            ],
            capsys,
        )
        assert code == 0
        lam_true = load_truth_lambda(synth_run / "synth000.truth")
        lines = out.read_text().splitlines()
        assert lines[0].startswith("LAMBDA synth000 3")
        lam_hat = np.array([float(l.split()[1]) for l in lines[1:]])
        assert np.abs(lam_hat - lam_true).sum() <= 0.05
        diag = json.loads((tmp_path / "c.lambda.diag.json").read_text())
        assert diag["converged"]
        assert diag["bins"] == 5000
        assert diag["oov_cells"] == 0
        assert diag["bins"] <= diag["cells"] <= diag["pairs"]

    def test_diag_counts_hand_sized(self, small_run, tmp_path, capsys):
        cnet = tmp_path / "h.cnet"
        cnet.write_text(
            "CONV h\nNET u1 2\nBIN w00:0.6 w01:0.4\n"
            "BIN w02:0.7 w03:0.2 zzzoov:0.1\nNET u2 1\nBIN w04:1\n"
        )
        out = tmp_path / "h.lambda"
        code, _, _ = run(
            ["adapt", str(cnet), str(small_run / "topics.model"), str(out),
             "--variant", "conf-tf", "--channel", str(small_run / "channel.model")],
            capsys,
        )
        assert code == 0
        diag = json.loads((tmp_path / "h.lambda.diag.json").read_text())
        # the model has no <unk>, so the outside cell is dropped: widths 2, 2, 1
        assert (diag["bins"], diag["cells"], diag["pairs"], diag["oov_cells"]) == (3, 5, 9, 1)

    @pytest.mark.parametrize("directory", [False, True], ids=["file", "directory"])
    @pytest.mark.parametrize("corrupt", ["topic_model", "channel"])
    def test_nan_probability_exit_2(self, small_run, tmp_path, capsys, corrupt, directory):
        models = {"topic_model": small_run / "topics.model",
                  "channel": small_run / "channel.model"}
        lines = models[corrupt].read_text().splitlines()
        lines[2] = lines[2].rpartition(" ")[0] + " nan"
        models[corrupt] = tmp_path / "bad.model"
        models[corrupt].write_text("\n".join(lines) + "\n")
        cnet = small_run if directory else small_run / "synth000.cnet"
        out = tmp_path / ("fit" if directory else "c.lambda")
        code, stdout, err = run(
            ["adapt", str(cnet), str(models["topic_model"]), str(out),
             "--variant", "conf-tf", "--channel", str(models["channel"])],
            capsys,
        )
        assert code == 2
        assert err == f"error: {models[corrupt]}: line 3: probability nan is not a number\n"
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.model"]

    def test_map_zero_equals_mle_files(self, synth_run, tmp_path, capsys):
        a, b = tmp_path / "a.lambda", tmp_path / "b.lambda"
        base = [
            "adapt", str(synth_run / "synth000.cnet"),
            str(synth_run / "topics.model"),
        ]
        tail = ["--variant", "self-tf", "--max-iters", "50"]
        run(base + [str(a)] + tail, capsys)
        run(base + [str(b)] + tail + ["--map-strength", "0"], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_channel_exit_2(self, synth_run, tmp_path, capsys):
        code, _, _ = run(
            [
                "adapt", str(synth_run / "synth000.cnet"),
                str(synth_run / "topics.model"), str(tmp_path / "x.lambda"),
                "--variant", "conf-tf",
            ],
            capsys,
        )
        assert code == 2

    def test_directory_mode_parallel(self, tmp_path, capsys):
        spec = synth_spec(tmp_path / "spec.json", bins=150, conversations=3)
        d = tmp_path / "data"
        run(["synth", str(spec), str(d)], capsys)
        out1, out2 = tmp_path / "fit1", tmp_path / "fit2"

        def argv(out, jobs):
            return [
                "adapt", str(d), str(d / "topics.model"), str(out),
                "--variant", "conf-1best", "--channel", str(d / "channel.model"),
                "--out-unigram", "--jobs", str(jobs),
            ]

        code, _, _ = run(argv(out1, 1), capsys)
        assert code == 0
        code, _, _ = run(argv(out2, 2), capsys)
        assert code == 0
        files1 = read_nonmanifest(out1)
        assert set(files1) >= {
            "synth000.lambda", "synth001.lambda", "synth002.lambda",
            "synth000.unigram",
        }
        assert files1 == read_nonmanifest(out2)

    def test_unigram_format(self, tmp_path):
        probs = np.array([1 / 3, 0.1, 1.0, 0.0, 1e-300, 5e-324, 2.5e-7, 123456789.125])
        vocab = Vocabulary(f"w{i}" for i in range(len(probs)))
        path = tmp_path / "u.unigram"
        cli.write_unigram_file(path, vocab, probs)
        # reference: one line per word, formatting the numpy scalar
        expected = f"UNIGRAM {len(probs)}\n" + "".join(
            f"w{i} {probs[i]:.12g}\n" for i in range(len(probs))
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_unigram_streamed(self, tmp_path):
        """The lines are written a few thousand at a time: at 50,000 words
        the writer's scratch stays under 1 MB, where a list of every line
        and their joined copy took 6.6 MB."""
        V = 50000
        vocab = Vocabulary(f"w{i:05d}" for i in range(V))
        probs = np.random.default_rng(8).dirichlet(np.ones(V))
        path = tmp_path / "u.unigram"
        _, scratch = traced_peak(cli.write_unigram_file, path, vocab, probs)
        assert scratch < 1e6
        assert path.read_text().splitlines()[1:] == [
            f"{w} {p:.12g}" for w, p in zip(vocab.words, probs.tolist())]

    def test_unigram_written_and_normalized(self, synth_run, tmp_path, capsys):
        out = tmp_path / "c.lambda"
        uni = tmp_path / "c.unigram"
        code, _, _ = run(
            [
                "adapt", str(synth_run / "synth000.cnet"),
                str(synth_run / "topics.model"), str(out),
                "--variant", "self-1best", "--out-unigram", str(uni),
            ],
            capsys,
        )
        assert code == 0
        from cnadapt.cli import load_unigram_file

        _, probs = load_unigram_file(uni)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)


class TestParserOncePerProcess:
    """``main`` builds its parser once per process; no flag of one call
    carries over to the next."""

    def test_out_unigram_then_none(self, small_run, tmp_path, capsys):
        argv = ["adapt", str(small_run / "synth000.cnet"), str(small_run / "topics.model")]
        assert cli.build_parser() is cli.build_parser()
        code, _, _ = run([*argv, str(tmp_path / "a.lambda"), "--variant", "conf-tf",
                          "--channel", str(small_run / "channel.model"),
                          "--out-unigram", str(tmp_path / "a.unigram")], capsys)
        assert code == 0
        code, _, _ = run([*argv, str(tmp_path / "b.lambda")], capsys)
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.lambda", "a.lambda.diag.json", "a.lambda.manifest.json", "a.unigram",
            "b.lambda", "b.lambda.diag.json", "b.lambda.manifest.json"]
        manifest = json.loads((tmp_path / "b.lambda.manifest.json").read_text())
        assert manifest["params"]["variant"] == "self-1best"
        assert manifest["inputs"]["channel"] is None

    def test_adapt_then_ppl(self, small_run, tmp_path, capsys):
        uni = tmp_path / "a.unigram"
        code, _, _ = run(["adapt", str(small_run / "synth000.cnet"),
                          str(small_run / "topics.model"), str(tmp_path / "a.lambda"),
                          "--out-unigram", str(uni)], capsys)
        assert code == 0
        ref = tmp_path / "ref.txt"
        ref.write_text(" ".join(cli.load_unigram_file(uni)[0].words[:5]) + "\n")
        code, out, err = run(["ppl", str(uni), str(ref), "--thr", "2"], capsys)
        assert (code, err) == (0, "")
        assert [line.split("\t")[:2] for line in out.splitlines()] == [
            ["ppl", "2"], ["ppl", "inf"]]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.lambda", "a.lambda.diag.json", "a.lambda.manifest.json", "a.unigram", "ref.txt"]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smallrun")
    spec = synth_spec(tmp / "spec.json", bins=120, conversations=2)
    d = tmp / "data"
    assert main(["synth", str(spec), str(d)]) == 0
    return d


class TestChannelDroppedEntries:
    """The ``adapt`` manifest counts the channel entries dropped because they
    name a word outside the topic model's vocabulary; the diag never does."""

    def fit(self, small_run, tmp_path, channel, variant="conf-tf"):
        out = tmp_path / "c.lambda"
        argv = ["adapt", str(small_run / "synth000.cnet"), str(small_run / "topics.model"),
                str(out), "--variant", variant]
        if channel:
            argv += ["--channel", str(channel)]
        assert main(argv) == 0
        diag = json.loads((tmp_path / "c.lambda.diag.json").read_text())
        assert "channel_dropped_entries" not in diag
        return json.loads((tmp_path / "c.lambda.manifest.json").read_text())

    def test_counts_outside_entries(self, small_run, tmp_path, capsys):
        lines = (small_run / "channel.model").read_text().splitlines()
        known = lines[1].split()[0]
        # a row outside the vocabulary (two entries) and one outside word in a
        # known word's row, whose other entry keeps the row
        extra = ["zz zz 0.5", f"zz {known} 0.5", f"{known} yy 0.5", f"{known} {known} 0.5"]
        body = [ln for ln in lines[1:] if ln.split()[0] != known] + extra
        channel = tmp_path / "outside.model"
        channel.write_text(f"CHANNEL {len(body)}\n" + "\n".join(body) + "\n")
        assert self.fit(small_run, tmp_path, channel)["channel_dropped_entries"] == 3

    def test_zero_and_none(self, small_run, tmp_path, capsys):
        assert self.fit(small_run, tmp_path, small_run / "channel.model")[
            "channel_dropped_entries"] == 0
        assert self.fit(small_run, tmp_path, None, "self-tf")["channel_dropped_entries"] is None


def run_probe(probe, argv=(), drop=()):
    """Run the Python source ``probe`` with ``argv`` in a fresh interpreter
    that imports cnadapt from this checkout, without the environment
    variables ``drop``; returns the finished process."""
    src = os.path.dirname(os.path.abspath(cli.__file__)).rpartition(os.sep)[0]
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("variant", adapt.VARIANTS)
def test_adapt_imports_no_numpy_ma(small_run, tmp_path, variant):
    """A fresh ``cnadapt adapt`` process never imports numpy.ma, which the
    first call of np.unique does (about 15 ms of the first fit)."""
    probe = ("import sys\nfrom cnadapt.cli import main\n"
             "code = main(sys.argv[1:])\nprint(code, 'numpy.ma' in sys.modules)\n")
    argv = ["adapt", str(small_run / "synth000.cnet"), str(small_run / "topics.model"),
            str(tmp_path / "c.lambda"), "--variant", variant]
    if variant.startswith("conf-"):
        argv += ["--channel", str(small_run / "channel.model")]
    proc = run_probe(probe, argv)
    assert proc.stdout.split()[-2:] == ["0", "False"], proc.stderr


def test_one_blas_thread_by_default():
    """Imported where no thread count is set, cnadapt sets one BLAS and
    OpenMP thread before numpy loads, so the process runs one thread; a
    count the user set is kept."""
    probe = ("import os\nimport cnadapt.cli\n"
             "status = open('/proc/self/status').read().split('Threads:')[1].split()[0]\n"
             "print(status, os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])\n")
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    proc = run_probe(probe, drop=names)
    assert proc.stdout.split() == ["1", "1", "1"], proc.stderr
    user = run_probe("import os\nos.environ['OMP_NUM_THREADS'] = '3'\n"
                     "import cnadapt\nprint(os.environ.get('OPENBLAS_NUM_THREADS'), "
                     "os.environ['OMP_NUM_THREADS'])\n", drop=names)
    assert user.stdout.split() == ["None", "3"], user.stderr


def test_jobs_1_imports_no_process_pool(small_run, tmp_path):
    """A directory-mode ``--jobs 1`` run never imports the process pool."""
    probe = ("import sys\nfrom cnadapt.cli import main\ncode = main(sys.argv[1:])\n"
             "print(code, 'concurrent.futures.process' in sys.modules)\n")
    argv = ["adapt", str(small_run), str(small_run / "topics.model"), str(tmp_path / "out"),
            "--variant", "conf-1best", "--channel", str(small_run / "channel.model"),
            "--jobs", "1"]
    proc = run_probe(probe, argv)
    assert proc.stdout.split()[-2:] == ["0", "False"], proc.stderr


def test_channel_imports_no_numpy_ma(small_run, tmp_path):
    """A fresh ``cnadapt channel`` process never imports numpy.ma either."""
    probe = ("import sys\nfrom cnadapt.cli import main\n"
             "code = main(sys.argv[1:])\nprint(code, 'numpy.ma' in sys.modules)\n")
    proc = run_probe(probe, ["channel", str(small_run / "*.cnet"), str(tmp_path / "ch.model")])
    assert proc.stdout.split()[-2:] == ["0", "False"], proc.stderr


def test_synth_imports_no_numpy_ma(tmp_path):
    """A fresh ``cnadapt synth`` process never imports numpy.ma either."""
    probe = ("import sys\nfrom cnadapt.cli import main\n"
             "code = main(sys.argv[1:])\nprint(code, 'numpy.ma' in sys.modules)\n")
    spec = synth_spec(tmp_path / "spec.json", bins=120, conversations=2)
    proc = run_probe(probe, ["synth", str(spec), str(tmp_path / "data")])
    assert proc.stdout.split()[-2:] == ["0", "False"], proc.stderr


class TestOutOfMemory:
    """A process that runs out of address space ends in one error line and
    exit 1, and writes no partial output.  Each case runs one child whose
    address space is capped CAP_MB above what it holds once cnadapt is
    imported; the cap limits that child only."""

    CAP_MB = 32
    PROBE = ("import resource, sys\nfrom cnadapt.cli import main\n"
             "held = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
             "cap = held + int(sys.argv[1]) * 2**20\n"
             "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
             "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
             "sys.exit(main(sys.argv[2:]))\n")
    WORDS = [f"w{i}" for i in range(200)]

    def cnet(self, path, bins):
        """A conversation of ``bins`` bins, each holding every word at one
        posterior."""
        cells = " ".join(f"{w}:0.005" for w in self.WORDS)
        path.write_text(f"CONV {path.stem}\nNET u1 {bins}\n" + f"BIN {cells}\n" * bins)

    def run(self, argv):
        proc = run_probe(self.PROBE, [str(self.CAP_MB), *argv])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        return proc

    @pytest.mark.parametrize("exc, line", [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("no room"), "error: out of memory: no room\n"),
    ])
    def test_message(self, monkeypatch, capsys, exc, line):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_channel", fail)
        assert run(["channel", "*.cnet", "ch.model"], capsys) == (1, "", line)

    def test_channel(self, tmp_path):
        # 250 bins of 200 kept cells make 10M pairs, 80 MB in each array that
        # holds them
        self.cnet(tmp_path / "c.cnet", 250)
        proc = self.run(["channel", str(tmp_path / "c.cnet"), str(tmp_path / "ch.model"),
                         "--max-words", "200"])
        assert proc.stderr.startswith("error: out of memory"), proc.stderr
        assert sorted(os.listdir(tmp_path)) == ["c.cnet"]

    def test_adapt_directory(self, tmp_path):
        """A conversation too large to fit becomes its manifest entry with
        exit code 1, and the conversation after it is still adapted."""
        words = self.WORDS
        (tmp_path / "t.model").write_text(
            f"TOPICS 2 {len(words)}\n" + "".join(
                f"TOPIC {t}\n" + "".join(f"{w} {1 / len(words)!r}\n" for w in words)
                for t in ("t1", "t2")))
        (tmp_path / "c.model").write_text(
            f"CHANNEL {len(words)}\n" + "".join(f"{w} {w} 1\n" for w in words))
        cnets = tmp_path / "cnets"
        cnets.mkdir()
        # a million cells, which take about 75 MB to read and fit
        self.cnet(cnets / "a.cnet", 5000)
        self.cnet(cnets / "b.cnet", 3)
        out = tmp_path / "out"
        proc = self.run(["adapt", str(cnets), str(tmp_path / "t.model"), str(out),
                         "--variant", "conf-1best", "--channel", str(tmp_path / "c.model")])
        assert proc.stderr.startswith(f"error: {cnets / 'a.cnet'}: out of memory"), proc.stderr
        assert sorted(os.listdir(out)) == ["b.lambda", "b.lambda.diag.json", "manifest.json"]
        entries = json.loads((out / "manifest.json").read_text())["conversations"]
        assert entries[0]["error"].startswith("out of memory")
        assert entries[0]["exit_code"] == 1
        assert entries[1]["cid"] == "b" and "error" not in entries[1]


def rename_one_cell(src, dst, word="zzzoov"):
    """Copy a CNET, renaming the second cell of its first multi-cell bin."""
    lines = src.read_text().splitlines()
    for i, line in enumerate(lines):
        parts = line.split()
        if parts[0] == "BIN" and len(parts) > 2:
            parts[2] = word + ":" + parts[2].rpartition(":")[2]
            lines[i] = " ".join(parts)
            break
    else:
        raise AssertionError("no multi-cell bin to rename")
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_text("\n".join(lines) + "\n")


def assert_full_unigram(path, vocab_size):
    from cnadapt.cli import load_unigram_file

    vocab, probs = load_unigram_file(path)
    assert len(vocab) == vocab_size
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("variant", ["self-tf", "conf-1best", "conf-tf"])
class TestAdaptOutsideModel:
    """Words outside the topic model never grow its vocabulary."""

    def adapt(self, capsys, data, cnet, out, variant, channel=None, unigram=None):
        argv = ["adapt", str(cnet), str(data / "topics.model"), str(out),
                "--variant", variant,
                "--channel", str(channel or data / "channel.model")]
        if unigram is not None:
            argv += ["--out-unigram"] + ([str(unigram)] if unigram is not True else [])
        return run(argv, capsys)

    def test_cnet_word_outside_model(self, small_run, tmp_path, capsys, variant):
        cnet = tmp_path / "c.cnet"
        rename_one_cell(small_run / "synth000.cnet", cnet)
        out, uni = tmp_path / "c.lambda", tmp_path / "c.unigram"
        code, _, err = self.adapt(capsys, small_run, cnet, out, variant, unigram=uni)
        assert code == 0, err
        assert_full_unigram(uni, 50)
        diag = json.loads((tmp_path / "c.lambda.diag.json").read_text())
        assert diag["oov_cells"] == 1

    def test_channel_word_outside_model(self, small_run, tmp_path, capsys, variant):
        lines = (small_run / "channel.model").read_text().splitlines()
        count = int(lines[0].split()[1])
        channel = tmp_path / "ch.model"
        channel.write_text(
            "\n".join([f"CHANNEL {count + 1}"] + lines[1:] + ["zzzoov zzzoov 1"]) + "\n"
        )
        out, uni = tmp_path / "c.lambda", tmp_path / "c.unigram"
        code, _, err = self.adapt(
            capsys, small_run, small_run / "synth000.cnet", out, variant,
            channel=channel, unigram=uni,
        )
        assert code == 0, err
        assert uni.read_text().startswith("UNIGRAM 50\n")
        assert_full_unigram(uni, 50)

    def test_directory_mode_fits_every_conversation(self, small_run, tmp_path, capsys, variant):
        d = tmp_path / "cnets"
        rename_one_cell(small_run / "synth000.cnet", d / "a.cnet")
        (d / "b.cnet").write_text((small_run / "synth001.cnet").read_text())
        out = tmp_path / "fit"
        code, _, err = self.adapt(capsys, small_run, d, out, variant, unigram=True)
        assert code == 0, err
        for stem in ("a", "b"):
            assert (out / f"{stem}.lambda").exists()
            assert_full_unigram(out / f"{stem}.unigram", 50)
        assert (out / "manifest.json").exists()


class TestAdaptDirectory:
    """Directory mode: one model load per run, and per-conversation failures."""

    def adapt(self, capsys, data, cnets, out, jobs=1, topic_model=None, channel=None):
        return run(
            ["adapt", str(cnets), str(topic_model or data / "topics.model"), str(out),
             "--variant", "conf-tf", "--channel", str(channel or data / "channel.model"),
             "--out-unigram", "--jobs", str(jobs)],
            capsys,
        )

    def test_models_loaded_once(self, small_run, tmp_path, capsys, monkeypatch):
        d = tmp_path / "cnets"
        d.mkdir()
        for name, src in (("a", "synth000"), ("b", "synth001"), ("c", "synth000")):
            (d / f"{name}.cnet").write_text((small_run / f"{src}.cnet").read_text())
        topic_loads = count_calls(monkeypatch, topics, "load_topic_model")
        channel_loads = count_calls(monkeypatch, cli, "load_channel")
        out = tmp_path / "fit"
        code, _, err = self.adapt(capsys, small_run, d, out)
        assert code == 0, err
        assert (len(topic_loads), len(channel_loads)) == (1, 1)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["models_load_s"] >= 0
        assert manifest["topics_load_s"] >= 0 and manifest["channel_load_s"] >= 0
        assert manifest["topics_load_s"] + manifest["channel_load_s"] == pytest.approx(
            manifest["models_load_s"], abs=2e-6)
        entries = manifest["conversations"]
        assert [e["cnet"] for e in entries] == [str(d / f"{n}.cnet") for n in "abc"]
        assert [e["cid"] for e in entries] == ["synth000", "synth001", "synth000"]
        for name, e in zip("abc", entries):
            assert set(e) == {"cnet", "cid", "iterations", "converged", "lookup", "parse_s",
                              "fit_s", "build_s", "em_s", "write_s", "seconds"}
            # 50 distinct words: the channel pairs come from the dense table
            assert e["lookup"] == "table"
            assert e["seconds"] >= 0 and e["build_s"] >= 0 and e["em_s"] >= 0
            # whole microseconds: the set-up and the EM add up to the fit
            assert round(e["build_s"] * 1e6) + round(e["em_s"] * 1e6) == round(e["fit_s"] * 1e6)
            diag = json.loads((out / f"{name}.lambda.diag.json").read_text())
            assert (e["iterations"], e["converged"]) == (diag["iterations"], diag["converged"])
            assert "seconds" not in diag

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bad_conversation_does_not_stop_the_rest(self, small_run, tmp_path, capsys, jobs):
        alone, mixed = tmp_path / "alone", tmp_path / "mixed"
        for d in (alone, mixed):
            d.mkdir()
            (d / "b.cnet").write_text((small_run / "synth001.cnet").read_text())
        bad = mixed / "a.cnet"
        bad.write_text("CONV a\nNET u 1\nBIN zzz:1\n")
        code, _, err = self.adapt(capsys, small_run, alone, tmp_path / "fit_alone")
        assert code == 0, err
        code, out, err = self.adapt(capsys, small_run, mixed, tmp_path / "fit_mixed", jobs)
        assert code == 2
        assert err == f"error: {bad}: conversation 'a' has no word in the vocabulary\n"
        assert out.startswith("synth001: ")
        fitted = read_nonmanifest(tmp_path / "fit_mixed")
        assert set(fitted) == {"b.lambda", "b.lambda.diag.json", "b.unigram"}
        assert fitted == read_nonmanifest(tmp_path / "fit_alone")
        entries = json.loads((tmp_path / "fit_mixed" / "manifest.json").read_text())["conversations"]
        assert entries[0] == {
            "cnet": str(bad), "exit_code": 2,
            "error": "conversation 'a' has no word in the vocabulary",
        }
        assert entries[1]["cid"] == "synth001"

    def test_workers_capped_at_the_conversations(self, small_run, tmp_path, capsys,
                                                 monkeypatch):
        """The pool forks every worker it is asked for before its first task,
        so ``--jobs 64`` over two conversations asks for two.  A stand-in
        pool records the count and runs the work in this process."""
        import concurrent.futures

        asked = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli, "_worker_models", None)
        code, _, err = self.adapt(capsys, small_run, small_run, tmp_path / "fit64", jobs=64)
        assert code == 0, err
        assert asked == [2]
        code, _, err = self.adapt(capsys, small_run, small_run, tmp_path / "fit1")
        assert code == 0, err
        assert asked == [2]
        assert read_nonmanifest(tmp_path / "fit64") == read_nonmanifest(tmp_path / "fit1")

    def test_directory_name_is_no_glob(self, small_run, tmp_path, capsys):
        """A directory named like a glob pattern is read as its own name."""
        d = tmp_path / "run[1]"
        d.mkdir()
        for name in ("synth000", "synth001"):
            (d / f"{name}.cnet").write_text((small_run / f"{name}.cnet").read_text())
        out = tmp_path / "fit"
        code, _, err = self.adapt(capsys, small_run, d, out)
        assert code == 0, err
        assert set(read_nonmanifest(out)) == {
            f"{name}{ext}" for name in ("synth000", "synth001")
            for ext in (".lambda", ".lambda.diag.json", ".unigram")
        }

    def test_conversation_not_utf8(self, small_run, tmp_path, capsys):
        d = tmp_path / "cnets"
        d.mkdir()
        bad = d / "a.cnet"
        bad.write_bytes(b"CONV a\nNET u 1\nBIN w\xe901:1\n")
        (d / "b.cnet").write_text((small_run / "synth001.cnet").read_text())
        out = tmp_path / "fit"
        code, stdout, err = self.adapt(capsys, small_run, d, out)
        message = "line 3: not valid UTF-8: invalid continuation byte (byte 0xe9)"
        assert code == 2
        assert err == f"error: {bad}: {message}\n"
        assert stdout.startswith("synth001: ")
        entries = json.loads((out / "manifest.json").read_text())["conversations"]
        assert entries[0] == {"cnet": str(bad), "exit_code": 2, "error": message}
        assert entries[1]["cid"] == "synth001"
        assert (out / "b.lambda").exists() and not (out / "a.lambda").exists()

    def test_compute_error_exit_1(self, small_run, tmp_path, capsys, monkeypatch):
        d = tmp_path / "cnets"
        d.mkdir()
        for name, src in (("a", "synth000"), ("b", "synth001")):
            (d / f"{name}.cnet").write_text((small_run / f"{src}.cnet").read_text())
        fit = adapt.fit

        def failing_fit(conv, *args):
            if conv.cid == "synth000":
                raise EstimationError("no progress")
            return fit(conv, *args)

        monkeypatch.setattr(adapt, "fit", failing_fit)
        out = tmp_path / "fit"
        code, _, err = self.adapt(capsys, small_run, d, out)
        assert code == 1
        assert err == f"error: {d / 'a.cnet'}: no progress\n"
        assert (out / "b.lambda").exists() and not (out / "a.lambda").exists()
        entries = json.loads((out / "manifest.json").read_text())["conversations"]
        assert entries[0]["exit_code"] == 1

    @pytest.mark.parametrize("corrupt", ["topic_model", "channel"])
    def test_bad_model_writes_nothing(self, small_run, tmp_path, capsys, corrupt):
        bad = tmp_path / "bad.model"
        bad.write_text("TOPICS 3 50\nTOPIC t0\n" if corrupt == "topic_model"
                       else "CHANNEL 2\nw00 w00 1\n")
        out = tmp_path / "fit"
        code, stdout, err = self.adapt(capsys, small_run, small_run, out, **{corrupt: bad})
        assert code == 2
        assert not out.exists()
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestAdaptInputText:
    """Bad text in any input file ends the run with one error line and exit 2."""

    SOURCES = {"cnet": "synth000.cnet", "topic_model": "topics.model",
               "channel": "channel.model"}

    def adapt(self, capsys, data, out, **files):
        paths = {kind: files.get(kind, data / name) for kind, name in self.SOURCES.items()}
        return run(
            ["adapt", str(paths["cnet"]), str(paths["topic_model"]), str(out),
             "--variant", "conf-tf", "--channel", str(paths["channel"])],
            capsys,
        )

    @pytest.mark.parametrize("posterior", ["\u00b2", "\u0660.\u0665"])
    def test_non_ascii_digits(self, small_run, tmp_path, capsys, posterior):
        cnet = tmp_path / "c.cnet"
        cnet.write_text(f"CONV c\nNET u 1\nBIN w01:{posterior}\n", encoding="utf-8")
        code, stdout, err = self.adapt(capsys, small_run, tmp_path / "c.lambda", cnet=cnet)
        assert code == 2
        assert err == f"error: {cnet}: line 3: bad posterior '{posterior}'\n"
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cnet"]

    def test_duplicate_topic_labels(self, small_run, tmp_path, capsys):
        model = tmp_path / "t.model"
        model.write_text("TOPICS 2 2\nTOPIC t\na 0.7\nb 0.3\nTOPIC t\na 0.2\nb 0.8\n")
        code, stdout, err = self.adapt(capsys, small_run, tmp_path / "c.lambda",
                                       topic_model=model)
        assert code == 2
        assert err == f"error: {model}: duplicate topic labels\n"
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.model"]

    @pytest.mark.parametrize("kind", ["cnet", "topic_model", "channel"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\u2028"])
    def test_not_utf8(self, small_run, tmp_path, capsys, kind, newline):
        lines = (small_run / self.SOURCES[kind]).read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        bad = tmp_path / "bad.file"
        bad.write_bytes(newline.encode().join(lines))
        code, stdout, err = self.adapt(capsys, small_run, tmp_path / "c.lambda", **{kind: bad})
        # only "\n", "\r\n" and "\r" end a line, so U+2028 ends none
        line = 1 if newline == "\u2028" else 3
        assert code == 2
        assert err == (
            f"error: {bad}: line {line}: not valid UTF-8: invalid start byte (byte 0xff)\n"
        )
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.file"]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_give_the_same_outputs(small_run, tmp_path, capsys, newline):
    """Inputs whose lines end in "\\r\\n" or "\\r" give byte for byte the
    outputs and report of the same inputs with "\\n"."""
    truth = (small_run / "synth000.truth").read_text().split("\n")
    spoken = [parts[2] for parts in map(str.split, truth) if len(parts) == 3]
    ref = "".join(" ".join(spoken[i : i + 9]) + "\n" for i in range(0, len(spoken), 9))
    results = []
    for nl in ("\n", newline):
        d = tmp_path / ("lf" if nl == "\n" else "other")
        d.mkdir()

        def copy(text, name):
            (d / name).write_bytes(text.replace("\n", nl).encode("utf-8"))

        for name in ("synth000.cnet", "topics.model", "channel.model"):
            copy((small_run / name).read_text(), name)
        code, _, _ = run(["adapt", str(d / "synth000.cnet"), str(d / "topics.model"),
                          str(d / "c.lambda"), "--variant", "conf-tf",
                          "--channel", str(d / "channel.model"),
                          "--out-unigram", str(d / "c.unigram")], capsys)
        assert code == 0
        copy((d / "c.unigram").read_text(), "u.unigram")
        copy(ref, "ref.txt")
        code, report, _ = run(["ppl", str(d / "u.unigram"), str(d / "ref.txt"),
                               "--out", str(d / "rep.tsv")], capsys)
        assert code == 0
        outputs = ("c.lambda", "c.lambda.diag.json", "c.unigram", "rep.tsv")
        results.append([report] + [(d / name).read_bytes() for name in outputs])
    assert results[0] == results[1]


class TestAdaptOptions:
    @pytest.mark.parametrize("option", ["--map-strength", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_exit_2_before_loading(self, small_run, tmp_path, capsys,
                                             monkeypatch, option, value):
        loads = count_calls(monkeypatch, topics, "load_topic_model")
        out = tmp_path / "c.lambda"
        code, _, err = run(
            ["adapt", str(small_run / "synth000.cnet"), str(small_run / "topics.model"),
             str(out), "--variant", "conf-tf", "--channel", str(small_run / "channel.model"),
             f"{option}={value}"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert loads == []
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("case", ["channel", "input", "no-cnets", "unigram-no-path",
                                      "directory-unigram-path"])
    def test_bad_paths_exit_2_before_loading(self, small_run, tmp_path, capsys, monkeypatch,
                                             case):
        """Each path check fails in one line before a model is read or an
        output written; in directory mode every unigram goes to
        <out>/<name>.unigram, so a path given to --out-unigram is an error."""
        loads = count_calls(monkeypatch, topics, "load_topic_model")
        cnet, channel = small_run / "synth000.cnet", small_run / "channel.model"
        out, extra = tmp_path / "out", []
        if case == "channel":
            channel = tmp_path / "missing.model"
            message = f"channel file {str(channel)!r} does not exist"
        elif case == "input":
            cnet = tmp_path / "missing.cnet"
            message = f"input {str(cnet)!r} does not exist"
        elif case == "no-cnets":
            cnet = tmp_path / "cnets"
            cnet.mkdir()
            (cnet / "a.txt").write_text("CONV a\n")
            message = f"no .cnet files under {str(cnet)!r}"
        elif case == "unigram-no-path":
            extra = ["--out-unigram"]
            message = "--out-unigram requires a path when adapting a single file"
        else:
            cnet, extra = small_run, ["--out-unigram", str(tmp_path / "u.unigram")]
            message = "--out-unigram takes no path when adapting a directory"
        before = sorted(os.listdir(tmp_path))
        code, stdout, err = run(
            ["adapt", str(cnet), str(small_run / "topics.model"), str(out),
             "--variant", "conf-tf", "--channel", str(channel), *extra],
            capsys,
        )
        assert code == 2
        assert err == f"error: {message}\n"
        assert stdout == ""
        assert loads == []
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2_before_output(self, small_run, tmp_path, capsys, jobs):
        out = tmp_path / "fit"
        code, stdout, err = run(
            ["adapt", str(small_run), str(small_run / "topics.model"), str(out),
             "--variant", "conf-tf", "--channel", str(small_run / "channel.model"),
             "--jobs", jobs],
            capsys,
        )
        assert code == 2
        assert err == f"error: --jobs {jobs} < 1\n"
        assert stdout == ""
        assert not out.exists()


class TestAdaptEdgeChannels:
    """Two topics over words a and b, and channels with a word no bin word
    can emit or with entries small enough to overflow or underflow the
    conf-* statistics, or a map strength whose product with the topic
    count overflows, run in a fresh process: each ends in its weights or
    in one error line, and numpy prints no warning."""

    TOPICS = "TOPICS 2 2\nTOPIC t1\na 0.7\nb 0.3\nTOPIC t2\na 0.2\nb 0.8\n"
    PROBE = "import sys\nfrom cnadapt.cli import main\nsys.exit(main(sys.argv[1:]))\n"

    def adapt(self, tmp_path, variant, channel, bins, *options):
        (tmp_path / "t.model").write_text(self.TOPICS)
        rows = channel.split("/")
        (tmp_path / "c.model").write_text(f"CHANNEL {len(rows)}\n" + "\n".join(rows) + "\n")
        (tmp_path / "c.cnet").write_text(f"CONV c\nNET u {len(bins)}\n"
                                         + "".join(f"BIN {b}\n" for b in bins))
        return run_probe(self.PROBE, [
            "adapt", str(tmp_path / "c.cnet"), str(tmp_path / "t.model"),
            str(tmp_path / "c.lambda"), "--variant", variant,
            "--channel", str(tmp_path / "c.model"), *options])

    @pytest.mark.parametrize("variant, message", [
        ("self-1best", "all topics clamped to zero"),
        ("self-tf", "all topics clamped to zero"),
        ("conf-1best", "degenerate update at iteration 1"),
        ("conf-tf", "degenerate update at iteration 1"),
    ])
    def test_map_strength_overflow_is_one_error_line(self, tmp_path, variant, message):
        # T * m overflows to inf, so every weight of the MAP update divides to 0
        proc = self.adapt(tmp_path, variant, "a a 0.9/a b 0.1/b b 1", ["a:1", "b:0.6 a:0.4"],
                          "--map-strength=1e308")
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}; map_strength 1e+308 is too strong\n"
        assert not (tmp_path / "c.lambda").exists()

    @pytest.mark.parametrize("variant", ["conf-1best", "conf-tf"])
    def test_overflow_is_one_error_line(self, tmp_path, variant):
        # p(a | a) = 1e-320 puts a subnormal in R, and w / den overflows
        proc = self.adapt(tmp_path, variant, "a a 1e-320/a b 1/b b 1", ["a:1", "b:0.6 a:0.4"])
        assert proc.returncode == 1
        assert proc.stderr == "error: non-finite update at iteration 1: [inf inf]\n"
        assert not (tmp_path / "c.lambda").exists()

    @pytest.mark.parametrize("variant", ["conf-1best", "conf-tf"])
    def test_dead_bin_keeps_uniform_weights(self, tmp_path, variant):
        # no word emits a, so the objective is -inf at every point
        proc = self.adapt(tmp_path, variant, "a b 1/b b 1", ["a:1"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert (tmp_path / "c.lambda").read_text() == "LAMBDA c 2\nt1 0.5\nt2 0.5\n"
        diag = json.loads((tmp_path / "c.lambda.diag.json").read_text())
        assert diag["loglik_trace"] == [-math.inf, -math.inf]

    @pytest.mark.parametrize("variant", ["conf-1best", "conf-tf"])
    def test_partial_underflow_is_one_error_line(self, tmp_path, variant):
        # 5e-324 * p(a | t) rounds to 5e-324 in t1 and to 0 in t2, and
        # half of it rounds to 0: the mixture gives a probability 0 that
        # no dead slot stands for
        proc = self.adapt(tmp_path, variant, "a a 5e-324/a b 1/b b 1", ["a:1", "b:0.6 a:0.4"])
        assert proc.returncode == 1
        assert proc.stderr == "error: non-finite update at iteration 1: [inf nan]\n"
        assert not (tmp_path / "c.lambda").exists()


class TestAdaptOutputsTogether:
    """A conversation's .lambda, .diag.json and .unigram appear together or
    not at all."""

    def argv(self, data, cnet, out, unigram):
        return ["adapt", str(cnet), str(data / "topics.model"), str(out),
                "--variant", "conf-tf", "--channel", str(data / "channel.model"),
                "--out-unigram"] + ([str(unigram)] if unigram else [])

    def test_file_mode_unwritable_unigram(self, small_run, tmp_path, capsys):
        unigram = tmp_path / "nodir" / "x.unigram"
        code, _, err = run(
            self.argv(small_run, small_run / "synth000.cnet", tmp_path / "out.lambda", unigram),
            capsys,
        )
        assert code == 2
        assert err.count("\n") == 1 and str(unigram) in err, err
        assert os.listdir(tmp_path) == []

    def test_directory_mode_unwritable_unigram(self, small_run, tmp_path, capsys):
        d = tmp_path / "cnets"
        d.mkdir()
        for name, src in (("a", "synth000"), ("b", "synth001")):
            (d / f"{name}.cnet").write_text((small_run / f"{src}.cnet").read_text())
        out = tmp_path / "fit"
        (out / "b.unigram").mkdir(parents=True)
        code, _, err = run(self.argv(small_run, d, out, None), capsys)
        assert code == 2
        assert "b.cnet" in err and err.count("\n") == 1, err
        assert sorted(os.listdir(out)) == [
            "a.lambda", "a.lambda.diag.json", "a.unigram", "b.unigram", "manifest.json"
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [e["exit_code"] for e in manifest["conversations"] if "error" in e] == [2]


class TestSingleOutputsWhole:
    """A manifest, a topic model or a channel that cannot be written ends
    in exit 2 and one ``error:`` line, and leaves no partial file."""

    def argv(self, kind, data, tmp_path):
        if kind == "adapt":
            return ["adapt", str(data / "synth000.cnet"), str(data / "topics.model"),
                    str(tmp_path / "out.lambda")], tmp_path / "out.lambda"
        if kind == "topics-train":
            corpus = write_corpus(tmp_path / "corpus")
            return ["topics-train", str(corpus), str(tmp_path / "t.model")], tmp_path / "t.model"
        cnets = write_cnets(tmp_path / "cnets")
        return ["channel", str(cnets / "*.cnet"), str(tmp_path / "c.model")], tmp_path / "c.model"

    @pytest.mark.parametrize("kind", ["adapt", "topics-train", "channel"])
    def test_manifest_is_a_directory(self, small_run, tmp_path, capsys, kind):
        argv, out = self.argv(kind, small_run, tmp_path)
        manifest = tmp_path / (out.name + ".manifest.json")
        manifest.mkdir()
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(manifest) in err
        assert not [p for p in os.listdir(tmp_path) if ".tmp" in p]

    @pytest.mark.parametrize("kind,owner,name", [
        ("topics-train", topics, "save_topic_model"), ("channel", cli, "save_channel"),
    ], ids=["topics-train", "channel"])
    def test_failed_write_leaves_nothing(self, tmp_path, capsys, monkeypatch, kind, owner, name):
        def write_part(*args):  # part of the file, then a full disk
            path = args[-1]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("TOPICS 2")
            raise OSError(28, "No space left on device", path)

        monkeypatch.setattr(owner, name, write_part)
        argv, out = self.argv(kind, None, tmp_path)
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err == f"error: [Errno 28] No space left on device: {str(out)!r}\n"
        assert sorted(os.listdir(tmp_path)) == ["cnets" if kind == "channel" else "corpus"]


class TestAdaptPhaseSeconds:
    """Each manifest entry splits its seconds into parse, fit and writes;
    the diag never holds a timing."""

    @pytest.mark.parametrize("directory", [False, True], ids=["file", "directory"])
    def test_phases(self, small_run, tmp_path, capsys, directory):
        if directory:
            d = tmp_path / "cnets"
            d.mkdir()
            for name in ("synth000", "synth001"):
                (d / f"{name}.cnet").write_text((small_run / f"{name}.cnet").read_text())
            cnet, out, manifest = d, tmp_path / "fits", tmp_path / "fits" / "manifest.json"
        else:
            cnet, out = small_run / "synth000.cnet", tmp_path / "x.lambda"
            manifest = tmp_path / "x.lambda.manifest.json"
        code, _, _ = run(["adapt", str(cnet), str(small_run / "topics.model"), str(out),
                          "--variant", "conf-tf", "--channel", str(small_run / "channel.model"),
                          "--out-unigram"] + ([] if directory else [str(tmp_path / "x.unigram")]),
                         capsys)
        assert code == 0
        entries = json.loads(manifest.read_text())["conversations"]
        assert len(entries) == (2 if directory else 1)
        for entry in entries:
            phases = [entry[k] for k in ("parse_s", "fit_s", "write_s")]
            assert all(p >= 0 for p in phases)
            # each is whole microseconds; 1e-9 allows for float addition
            assert sum(phases) <= entry["seconds"] + 1e-9
        for diag in (out.parent if not directory else out).glob("*.diag.json"):
            assert not any(k.endswith("_s") for k in json.loads(diag.read_text()))


class TestPpl:
    def write_uniform(self, tmp_path):
        uni = tmp_path / "u.unigram"
        uni.write_text("UNIGRAM 4\na 0.25\nb 0.25\nc 0.25\nd 0.25\n")
        ref = tmp_path / "ref.txt"
        ref.write_text("a b c d a\n")
        return uni, ref

    def test_uniform_model(self, tmp_path, capsys):
        uni, ref = self.write_uniform(tmp_path)
        code, out, _ = run(["ppl", str(uni), str(ref), "--thr", "2"], capsys)
        assert code == 0
        rows = dict()
        for line in out.splitlines():
            metric, thr, value = line.split("\t")
            rows[thr] = float(value)
        assert rows["inf"] == pytest.approx(4.0, abs=1e-9)
        assert rows["2"] == pytest.approx(4.0, abs=1e-9)

    def test_default_sweep(self, tmp_path, capsys):
        uni, ref = self.write_uniform(tmp_path)
        code, out, _ = run(["ppl", str(uni), str(ref)], capsys)
        assert code == 0
        thrs = [line.split("\t")[1] for line in out.splitlines()]
        assert thrs == ["1", "2", "3", "4", "5", "inf"]

    def test_golden_values(self, tmp_path, capsys):
        uni = tmp_path / "u.unigram"
        uni.write_text("UNIGRAM 3\na 0.5\nb 0.25\nc 0.25\n")
        ref = tmp_path / "ref.txt"
        ref.write_text("a a b c\n")
        code, out, _ = run(["ppl", str(uni), str(ref), "--thr", "1", "--out",
                            str(tmp_path / "rep.tsv")], capsys)
        assert code == 0
        lines = out.splitlines()
        # thr=1: tokens b and c, both p=0.25 -> PPL 4; overall: (2^-1*4^-1*4^-1)^... base-10 form
        expect_all = 10 ** (-(2 * math.log10(0.5) + 2 * math.log10(0.25)) / 4)
        assert lines[0] == "ppl\t1\t4"
        # report prints 12 significant digits
        assert float(lines[1].split("\t")[2]) == pytest.approx(expect_all, rel=1e-10)
        assert (tmp_path / "rep.tsv").read_text() == out

    def test_unwritable_out_prints_nothing(self, tmp_path, capsys):
        uni, ref = self.write_uniform(tmp_path)
        out = tmp_path / "nodir" / "rep.tsv"
        code, stdout, err = run(["ppl", str(uni), str(ref), "--out", str(out)], capsys)
        assert code == 2
        assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert stdout == ""
        assert sorted(os.listdir(tmp_path)) == ["ref.txt", "u.unigram"]

    def test_zero_probability_exit_1(self, tmp_path, capsys):
        uni = tmp_path / "u.unigram"
        uni.write_text("UNIGRAM 2\na 1\nb 0\n")
        ref = tmp_path / "ref.txt"
        ref.write_text("a b\n")
        code, _, err = run(["ppl", str(uni), str(ref)], capsys)
        assert code == 1
        assert "b" in err

    def test_oov_without_unk_exit_1(self, tmp_path, capsys):
        uni, _ = self.write_uniform(tmp_path)
        ref = tmp_path / "ref.txt"
        ref.write_text("a zzz\n")
        code, out, err = run(["ppl", str(uni), str(ref)], capsys)
        assert code == 1
        assert err == f"error: {ref}: token 'zzz' not covered: vocabulary has no '<unk>'\n"
        assert out == ""

    def test_nan_probability_exit_2(self, tmp_path, capsys):
        uni = tmp_path / "u.unigram"
        uni.write_text("UNIGRAM 3\na nan\nb 0.5\n<unk> 0.5\n")
        ref = tmp_path / "ref.txt"
        ref.write_text("a b\n")
        code, out, err = run(["ppl", str(uni), str(ref)], capsys)
        assert code == 2
        assert err == f"error: {uni}: line 2: probability nan is not a number\n"
        assert out == ""

    @pytest.mark.parametrize("header", ["UNIGRAM \u0662", "UNIGRAM +2", "UNIGRAM \uff12"],
                             ids=["arabic", "plus", "fullwidth"])
    def test_count_takes_ascii_digits_only(self, tmp_path, capsys, header):
        # int() once read each of these as 2 words, and the report exited 0
        uni = tmp_path / "u.unigram"
        uni.write_text(header + "\na 0.5\nb 0.5\n", encoding="utf-8")
        ref = tmp_path / "ref.txt"
        ref.write_text("a b\n")
        code, out, err = run(["ppl", str(uni), str(ref)], capsys)
        assert code == 2
        assert err == f"error: {uni}: bad header {header!r}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "body, message",
        [
            ("UNIGRAM 2\na 0.5 x\nb 0.5\n", "line 2: expected '<word> <prob>', got 'a 0.5 x'"),
            ("UNIGRAM 2\na 0.5\na 0.5\n", "line 3: duplicate word 'a'"),
            ("UNIGRAM 2\na zz\nb 0.5\n", "line 2: bad probability 'zz'"),
            ("UNIGRAM 2\na 1.5\nb -0.5\n", "line 3: negative probability -0.5"),
            ("UNIGRAM 2 junk\na 0.5\nb 0.5\n", "bad header 'UNIGRAM 2 junk'"),
            ("UNIGRAMS 2\na 0.5\nb 0.5\n", "expected 'UNIGRAM <V>' header"),
            ("", "expected 'UNIGRAM <V>' header"),
            ("UNIGRAM 3\na 0.5\nb 0.5\n", "header declares 3 words, found 2"),
            ("UNIGRAM 2\na 0.5\nb 0.5\n\n", "header declares 2 words, found 3"),
            ("UNIGRAM 2\na 0.5\nb 0.25\n", "probabilities do not sum to 1"),
            # the first bad line wins, and on one line the word is checked first
            ("UNIGRAM 3\na 0.5\na x\nb\n", "line 3: duplicate word 'a'"),
            ("UNIGRAM 3\na -1\nb x\nc\n", "line 2: negative probability -1"),
            ("UNIGRAM 3\na 1\nb nan\nc -1\n", "line 3: probability nan is not a number"),
        ],
        ids=["bad-line", "duplicate", "bad-probability", "negative", "header-extra",
             "header-word", "empty", "fewer-words", "more-words", "sum",
             "duplicate-first", "negative-first", "nan-first"],
    )
    def test_bad_unigram_exit_2(self, tmp_path, capsys, body, message):
        uni = tmp_path / "u.unigram"
        uni.write_text(body)
        ref = tmp_path / "ref.txt"
        ref.write_text("a b\n")
        code, out, err = run(["ppl", str(uni), str(ref)], capsys)
        assert code == 2
        assert err == f"error: {uni}: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("line, text, message", [
        (19000, "w18998 x", "bad probability 'x'"),
        (19000, "w18998 -0.5", "negative probability -0.5"),
        (19001, "w00007 0.00005", "duplicate word 'w00007'"),
        (19002, "w19000", "expected '<word> <prob>', got 'w19000'"),
    ], ids=["bad-probability", "negative", "duplicate", "bad-line"])
    def test_bad_line_past_the_first_block(self, tmp_path, capsys, line, text, message):
        # 20,000 lines of 16 bytes: the bad line is past the first block
        lines = [f"w{i:05d} 0.00005" for i in range(20000)]
        lines[line - 2] = text
        uni = tmp_path / "u.unigram"
        uni.write_text("UNIGRAM 20000\n" + "\n".join(lines) + "\n")
        assert uni.stat().st_size > 1.1 * modelfile.BLOCK_BYTES
        ref = tmp_path / "ref.txt"
        ref.write_text("w00000\n")
        code, out, err = run(["ppl", str(uni), str(ref)], capsys)
        assert code == 2
        assert err == f"error: {uni}: line {line}: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_ends(self, tmp_path, capsys, newline):
        uni, ref = self.write_uniform(tmp_path)
        _, want, _ = run(["ppl", str(uni), str(ref)], capsys)
        uni.write_bytes(uni.read_bytes().replace(b"\n", newline.encode()))
        code, out, _ = run(["ppl", str(uni), str(ref)], capsys)
        assert (code, out) == (0, want)
        uni.write_bytes(b"UNIGRAM 2\na 0.5\na 0.5\n".replace(b"\n", newline.encode()))
        code, out, err = run(["ppl", str(uni), str(ref)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {uni}: line 3: duplicate word 'a'\n"

    def test_round_trip_at_50000_words(self, tmp_path):
        """What ``write_unigram_file`` writes, ``load_unigram_file`` reads
        back: the words in their order and each probability as ``float()``
        reads its 12 written digits, bitwise."""
        rng = np.random.default_rng(11)
        probs = rng.random(50000) ** 4
        probs /= probs.sum()
        vocab = Vocabulary(f"w{i}" for i in rng.permutation(50000))
        path = tmp_path / "u.unigram"
        cli.write_unigram_file(path, vocab, probs)
        got_vocab, got = cli.load_unigram_file(path)
        assert got_vocab.words == vocab.words
        want = np.array([float(f"{p:.12g}") for p in probs.tolist()])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["unigram", "ref"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\u2028"])
    def test_not_utf8(self, tmp_path, capsys, kind, newline):
        uni, ref = self.write_uniform(tmp_path)
        ref.write_text("a b\nc\nd a\n")
        bad = uni if kind == "unigram" else ref
        lines = bad.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        bad.write_bytes(newline.encode().join(lines))
        code, out, err = run(["ppl", str(uni), str(ref)], capsys)
        # only "\n", "\r\n" and "\r" end a line, so U+2028 ends none
        line = 1 if newline == "\u2028" else 3
        assert code == 2
        assert err == (
            f"error: {bad}: line {line}: not valid UTF-8: invalid start byte (byte 0xff)\n"
        )
        assert out == ""

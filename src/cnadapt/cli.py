"""Command-line frontend for the adaptation pipeline.

Subcommands: ``topics-train``, ``channel``, ``adapt``, ``ppl``, ``synth``.
Every run is deterministic given its inputs and flags, and emits a JSON
manifest (parameters, inputs, tool version, wall time) alongside its
primary output.  Exit codes: 0 success, 1 computation failure, 2 bad
usage or input.
"""

from __future__ import annotations

import argparse
import contextlib
import glob as globmod
import json
import os
import sys
import time

import numpy as np

from . import __version__, adapt, metrics, synth, topics
from .channel import estimate_channel, load_channel, save_channel
from .corpus import Vocabulary, load_conversation, save_conversation
from .errors import ComputeError, InputError, ParseError
from .modelfile import COUNT, read_blocks, read_text, write_lines

DEFAULT_REL_FLOOR = 0.05
DEFAULT_MAX_WORDS = 10
DEFAULT_THRESHOLDS = (1, 2, 3, 4, 5)


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_lambda_file(path, cid, labels, lam) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"LAMBDA {cid} {len(labels)}\n")
        write_lines(fh, "{} {:.12g}\n", labels, lam)


def write_unigram_file(path, vocab, probs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"UNIGRAM {len(vocab)}\n")
        write_lines(fh, "{} {:.12g}\n", vocab.words, probs)


def load_unigram_file(path):
    """The vocabulary and probabilities of a unigram file, read as one topic
    row whose TOPIC line is absent (``topics.read_rows``)."""
    with open(path, "rb") as fh:
        nlines, header, blocks = read_blocks(fh)
        if not header.startswith("UNIGRAM "):
            raise InputError("expected 'UNIGRAM <V>' header")
        fields = header.split()
        if len(fields) != 2 or not COUNT.fullmatch(fields[1]):
            raise InputError(f"bad header {header!r}")
        count = int(fields[1])
        if nlines - 1 != count:
            raise InputError(f"header declares {count} words, found {nlines - 1}")
        _, vocab, rows = topics.read_rows(blocks, 1, count, 1, _nonnegative)
    probs = rows[0]
    if abs(probs.sum() - 1.0) > 1e-6:
        raise InputError("probabilities do not sum to 1")
    return vocab, probs


def _nonnegative(t):
    """The unigram's own rule: no probability is negative."""
    t.reject(t.records[t.numbers < 0], lambda i: ParseError(
        f"negative probability {t.field(i)}", t.line + i))


def _named(path, fn, *args):
    """Return ``fn(*args)``; an input error it raises gets ``path`` put
    before its message, so the message says which file it is about."""
    try:
        return fn(*args)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def cmd_topics_train(args):
    root = args.corpus_dir
    if not os.path.isdir(root):
        raise InputError(f"corpus directory {root!r} does not exist")
    labels = sorted(d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d)))
    if not labels:
        raise InputError(f"no topic subdirectories under {root!r}")
    for label in labels:
        if label.split() != [label]:  # the model file's TOPIC line holds one word
            raise InputError(f"topic folder name {label!r} holds whitespace")
    corpus = []
    for label in labels:
        tokens = []
        folder = os.path.join(root, label)
        for name in sorted(os.listdir(folder)):
            fpath = os.path.join(folder, name)
            if os.path.isfile(fpath):
                tokens += _named(fpath, read_text, fpath).split()
        if not tokens:
            raise InputError(f"topic folder {folder!r} has no tokens")
        corpus.append((label, tokens))
    vocab = Vocabulary()
    tm = topics.train_topic_model(corpus, vocab)
    with _written_together([args.out_model]) as (tmp,):
        topics.save_topic_model(tm, tmp)
    print(f"trained {tm.num_topics} topics over {len(vocab)} words -> {args.out_model}")
    return args.out_model + ".manifest.json", {
        "inputs": {"corpus_dir": root},
        "params": {"topics": tm.num_topics, "vocab": len(vocab)},
        "seed": None,
    }


def cmd_channel(args):
    paths = sorted(globmod.glob(args.cnet_glob))
    if not paths:
        raise InputError(f"no files match {args.cnet_glob!r}")
    vocab = Vocabulary()
    convs = [_named(p, load_conversation, p, vocab) for p in paths]
    cm = estimate_channel(convs, args.rel_floor, args.max_words)
    with _written_together([args.out_channel]) as (tmp,):
        save_channel(cm, vocab, tmp)
    rows = np.count_nonzero(np.diff(cm.ptr))
    print(f"estimated channel rows for {rows} words -> {args.out_channel}")
    return args.out_channel + ".manifest.json", {
        "inputs": {"cnet_glob": args.cnet_glob, "files": paths},
        "params": {"rel_floor": args.rel_floor, "max_words": args.max_words},
        "seed": None,
    }


@contextlib.contextmanager
def _written_together(paths):
    """Yield a temporary name beside each of ``paths``.  Once the body has
    written them all, each replaces its path; on any error the temporaries
    and the paths already replaced are removed, so either every path is
    written or none is."""
    temps = [f"{p}.tmp{os.getpid()}" for p in paths]
    done = []
    try:
        yield temps
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
            done.append(path)
    except BaseException as exc:
        for p in temps + done:
            with contextlib.suppress(OSError):
                os.remove(p)
        if isinstance(exc, OSError) and exc.filename in temps:
            # name the output in the message, not its temporary
            path = paths[temps.index(exc.filename)]
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _adapt_one(tm, cm, cfg, cnet_path, out_lambda, out_unigram):
    """Fit one conversation and write its outputs; returns its manifest entry."""
    start = time.perf_counter()
    conv = load_conversation(cnet_path, tm.vocab, closed=True)
    parsed = time.perf_counter()
    result = adapt.fit(conv, tm, cfg, cm)
    fitted = time.perf_counter()
    widths = np.diff(conv.bin_ptr)
    diag = {
        "bins": int(widths.size),
        "cells": int(widths.sum()),
        "pairs": int(widths @ widths),
        "oov_cells": conv.oov_cells,
        "conversation": conv.cid,
        "variant": cfg.variant,
        "map_strength": cfg.map_strength,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "converged": result.converged,
        "loglik_trace": result.loglik_trace,
    }
    outputs = [out_lambda, out_lambda + ".diag.json"] + ([out_unigram] if out_unigram else [])
    with _written_together(outputs) as temps:
        write_lambda_file(temps[0], conv.cid, tm.labels, result.weights.lam)
        _write_json(temps[1], diag)
        if out_unigram:
            unigram = adapt.adapted_unigram(tm, result.weights)
            write_unigram_file(temps[2], tm.vocab, unigram)
    # whole microseconds since start, so the phases add up to the total
    marks = [round((t - start) * 1e6) for t in (parsed, fitted, time.perf_counter())]
    build = min(round(result.build_s * 1e6), marks[1] - marks[0])
    return {
        "cnet": cnet_path,
        "cid": conv.cid,
        "iterations": result.iterations,
        "converged": result.converged,
        "lookup": result.lookup,
        "parse_s": marks[0] / 1e6,
        "fit_s": (marks[1] - marks[0]) / 1e6,
        "build_s": build / 1e6,
        "em_s": (marks[1] - marks[0] - build) / 1e6,
        "write_s": (marks[2] - marks[1]) / 1e6,
        "seconds": marks[2] / 1e6,
    }


def _adapt_guarded(tm, cm, cfg, job):
    """``_adapt_one`` for directory mode: a conversation's input or compute
    error, or running out of memory, becomes its manifest entry, so the
    others still run and nothing but plain data crosses a process pool."""
    try:
        return _adapt_one(tm, cm, cfg, *job)
    except (InputError, OSError) as exc:
        return {"cnet": job[0], "error": str(exc), "exit_code": 2}
    except ComputeError as exc:
        return {"cnet": job[0], "error": str(exc), "exit_code": 1}
    except MemoryError as exc:
        return {"cnet": job[0], "error": _out_of_memory(exc), "exit_code": 1}


def _out_of_memory(exc: MemoryError) -> str:
    """The message of ``exc``, which numpy fills with the size it could not
    allocate."""
    return f"out of memory: {exc}" if str(exc) else "out of memory"


# set in pool workers only, by the pool's initializer
_worker_models = None


def _init_worker(tm, cm, cfg):
    global _worker_models
    _worker_models = (tm, cm, cfg)


def _adapt_in_worker(job):
    return _adapt_guarded(*_worker_models, job)


def cmd_adapt(args):
    if args.jobs < 1:
        raise InputError(f"--jobs {args.jobs} < 1")
    if args.variant in ("conf-1best", "conf-tf") and not args.channel:
        raise InputError(f"variant {args.variant} requires --channel")
    if args.channel and not os.path.isfile(args.channel):
        raise InputError(f"channel file {args.channel!r} does not exist")
    if not os.path.exists(args.cnet):
        raise InputError(f"input {args.cnet!r} does not exist")
    cfg_kwargs = {
        "variant": args.variant,
        "map_strength": args.map_strength,
        "max_iters": args.max_iters,
        "rel_tol": args.tol,
    }
    cfg = adapt.EstimatorConfig(**cfg_kwargs)
    directory = os.path.isdir(args.cnet)
    if directory:
        paths = sorted(globmod.glob(os.path.join(globmod.escape(args.cnet), "*.cnet")))
        if not paths:
            raise InputError(f"no .cnet files under {args.cnet!r}")
        if isinstance(args.out_unigram, str):
            raise InputError("--out-unigram takes no path when adapting a directory")
    elif args.out_unigram is True:
        raise InputError("--out-unigram requires a path when adapting a single file")

    # one load per run, before any output exists, so a bad model writes nothing
    load_start = time.perf_counter()
    tm = _named(args.topic_model, topics.load_topic_model, args.topic_model)
    topics_end = time.perf_counter()
    # the model vocabulary stays closed, so every output covers exactly its words
    cm = _named(args.channel, load_channel, args.channel, tm.vocab) if args.channel else None
    load_end = time.perf_counter()

    if directory:
        os.makedirs(args.out_lambda, exist_ok=True)
        jobs = []
        for p in paths:
            out = os.path.join(args.out_lambda, os.path.splitext(os.path.basename(p))[0])
            jobs.append((p, out + ".lambda", out + ".unigram" if args.out_unigram else None))
        manifest = os.path.join(args.out_lambda, "manifest.json")
        if args.jobs > 1 and len(jobs) > 1:
            from concurrent.futures import ProcessPoolExecutor  # a --jobs 1 run needs none

            # the pool forks all its workers up front, so fork no more than there is work
            with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs)),
                                     initializer=_init_worker, initargs=(tm, cm, cfg)) as pool:
                entries = list(pool.map(_adapt_in_worker, jobs))
        else:
            entries = [_adapt_guarded(tm, cm, cfg, job) for job in jobs]
    else:
        # directory mode names each conversation's file in its entry instead
        entries = [_named(args.cnet, _adapt_one, tm, cm, cfg, args.cnet, args.out_lambda,
                          args.out_unigram)]
        manifest = args.out_lambda + ".manifest.json"
    for entry in entries:
        if "error" in entry:
            print(f"error: {entry['cnet']}: {entry['error']}", file=sys.stderr)
        else:
            print(f"{entry['cid']}: {entry['iterations']} iterations, "
                  f"converged={entry['converged']}")
    return manifest, {
        "inputs": {
            "cnet": args.cnet,
            "topic_model": args.topic_model,
            "channel": args.channel,
        },
        "params": cfg_kwargs,
        "seed": None,
        "models_load_s": round(load_end - load_start, 6),
        "topics_load_s": round(topics_end - load_start, 6),
        "channel_load_s": round(load_end - topics_end, 6) if cm else None,
        # channel entries naming a word outside the topic model's vocabulary
        "channel_dropped_entries": cm.dropped if cm else None,
        "conversations": entries,
        "exit_code": max(e.get("exit_code", 0) for e in entries),
    }


def cmd_ppl(args):
    vocab, probs = _named(args.unigram, load_unigram_file, args.unigram)
    corpus = _named(args.ref, metrics.load_reference, args.ref, vocab)
    thresholds = args.thr if args.thr else list(DEFAULT_THRESHOLDS)
    rows = []
    for thr in sorted(set(thresholds)):
        value = metrics.constrained_perplexity(probs, corpus, thr, vocab)
        rows.append(f"ppl\t{thr}\t{value:.12g}")
    rows.append(f"ppl\tinf\t{metrics.perplexity(probs, corpus, vocab):.12g}")
    report = "\n".join(rows) + "\n"
    manifest = None
    if args.out:
        with _written_together([args.out]) as (tmp,), open(
            tmp, "w", encoding="utf-8", newline="\n"
        ) as fh:
            fh.write(report)
        manifest = args.out + ".manifest.json"
    sys.stdout.write(report)
    return manifest, {
        "inputs": {"unigram": args.unigram, "ref": args.ref},
        "params": {"thr": sorted(set(thresholds))},
        "seed": None,
    }


def _load_synth_spec(path, seed_override):
    try:
        doc = json.loads(read_text(path))
    except (InputError, json.JSONDecodeError) as exc:
        raise InputError(f"synth spec {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"synth spec {path}: expected a JSON object")
    required = ("topics", "vocab_size", "topic_sharpness", "channel_noise",
                "bins", "bin_width", "seed")
    missing = [k for k in required if k not in doc]
    if missing:
        raise InputError(f"synth spec missing keys: {missing}")
    doc.setdefault("conversations", 1)
    for key in ("topics", "vocab_size", "bins", "bin_width", "seed", "conversations"):
        if type(doc[key]) is not int:
            raise InputError(f"synth spec {key} must be an integer, got {doc[key]!r}")
    for key in ("topic_sharpness", "channel_noise"):
        if type(doc[key]) not in (int, float):
            raise InputError(f"synth spec {key} must be a number, got {doc[key]!r}")
    lam = doc.get("lambda_true")
    if lam is not None and not (
        isinstance(lam, list) and all(type(x) in (int, float) for x in lam)
    ):
        raise InputError(f"synth spec lambda_true must be a list of numbers, got {lam!r}")
    if doc["conversations"] < 1:
        raise InputError("synth spec conversations must be >= 1")
    spec = synth.SynthSpec(
        topics=doc["topics"],
        vocab_size=doc["vocab_size"],
        lambda_true=np.array(lam, dtype=np.float64) if lam is not None else None,
        topic_sharpness=float(doc["topic_sharpness"]),
        channel_noise=float(doc["channel_noise"]),
        bins=doc["bins"],
        bin_width=doc["bin_width"],
        seed=seed_override if seed_override is not None else doc["seed"],
    )
    return spec, doc["conversations"]


def cmd_synth(args):
    spec, n_conversations = _load_synth_spec(args.spec, args.seed)
    runs = list(synth.sample_conversations(spec, n_conversations))
    names = [conv.cid + ext for conv, _ in runs for ext in (".cnet", ".truth")]
    names += ["topics.model", "channel.model"]
    os.makedirs(args.out_dir, exist_ok=True)
    with _written_together([os.path.join(args.out_dir, n) for n in names]) as temps:
        for k, (conv, truth) in enumerate(runs):
            save_conversation(conv, truth.vocab, temps[2 * k])
            synth.save_truth(truth, conv, temps[2 * k + 1])
        topics.save_topic_model(truth.topics, temps[-2])
        save_channel(truth.channel, truth.vocab, temps[-1])
    for conv, _ in runs:
        print(f"{conv.cid}: {conv.total_bins} bins")
    return os.path.join(args.out_dir, "manifest.json"), {
        "inputs": {"spec": args.spec},
        "params": {
            "topics": spec.topics, "vocab_size": spec.vocab_size,
            "bins": spec.bins, "bin_width": spec.bin_width,
            "topic_sharpness": spec.topic_sharpness,
            "channel_noise": spec.channel_noise,
            "conversations": n_conversations,
        },
        "seed": spec.seed,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnadapt",
        description="Topic-mixture language model adaptation from ASR confusion networks",
    )
    parser.add_argument("--version", action="version", version=f"cnadapt {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("topics-train", help="train smoothed topic unigrams from labeled transcripts")
    p.add_argument("corpus_dir", help="directory of <topic-label>/<file>.txt transcripts")
    p.add_argument("out_model", help="output topic model file")
    p.set_defaults(func=cmd_topics_train)

    p = sub.add_parser("channel", help="estimate the confusion channel from confusion networks")
    p.add_argument("cnet_glob", help="glob of CNET files")
    p.add_argument("out_channel", help="output channel file")
    p.add_argument("--rel-floor", type=float, default=DEFAULT_REL_FLOOR,
                   help="prune cells below this fraction of the bin max posterior")
    p.add_argument("--max-words", type=int, default=DEFAULT_MAX_WORDS,
                   help="keep at most this many cells per bin")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("adapt", help="fit conversation topic mixture weights")
    p.add_argument("cnet", help="CNET file, or a directory of *.cnet files")
    p.add_argument("topic_model", help="topic model file")
    p.add_argument("out_lambda", help="output weights file (or directory in directory mode)")
    p.add_argument("--variant", choices=adapt.VARIANTS, default="self-1best")
    p.add_argument("--channel", help="channel file (required for conf-* variants)")
    p.add_argument("--map-strength", type=float, default=0.0,
                   help="Dirichlet prior strength; 0 gives maximum likelihood")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="relative objective tolerance, applied to each plain EM step "
                        "(never to an extrapolated point)")
    p.add_argument("--max-iters", type=int, default=200,
                   help="most iterations; one iteration is one accepted point, and an "
                        "accelerated EM cycle accepts two")
    p.add_argument("--out-unigram", nargs="?", const=True, default=None,
                   help="also write the adapted unigram: to PATH in file mode, to "
                        "<out>/<name>.unigram (no PATH) in directory mode")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers in directory mode")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("ppl", help="perplexity of a unigram model against a reference transcript")
    p.add_argument("unigram", help="unigram model file")
    p.add_argument("ref", help="reference transcript (one utterance per line)")
    p.add_argument("--thr", type=int, action="append",
                   help="content-word count threshold (repeatable; default 1..5)")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_ppl)

    p = sub.add_parser("synth", help="generate synthetic conversations with known truth")
    p.add_argument("spec", help="JSON generator spec")
    p.add_argument("out_dir", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        manifest_path, info = args.func(args)
        exit_code = info.pop("exit_code", 0)
        if manifest_path:
            info.update(subcommand=args.subcommand, version=__version__,
                        wall_time_s=round(time.perf_counter() - start, 6))
            with _written_together([manifest_path]) as (tmp,):
                _write_json(tmp, info)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {_out_of_memory(exc)}", file=sys.stderr)
        return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

"""Generate one workload's inputs with ``cnadapt.synth``.

Usage: python3 perfbench/gen.py <workload> <seed> <model-dir> <seed-dir>

Runs in its own process, so neither its time nor its memory reaches the
measured one.  Writes the shared ``topics.model`` and ``channel.model`` to
<model-dir> when they are missing, and the seed's conversations to
<seed-dir>: ``c<k>.cnet`` (or ``d<j>/c<k>.cnet`` in directory mode) plus
``truth/<cid>.json`` with the true weights and the spoken word of every bin.
Each directory is built under a temporary name and renamed into place, so
an interrupted run never leaves a half-written input set behind.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

from cnadapt import channel, corpus, synth, topics
from workloads import (CHANNEL_NOISE, DESIGN_SEED, TOPIC_SHARPNESS, WORKLOADS, cnet_path,
                       conversation_index, ragged_width)


def design_weights(wl) -> np.ndarray:
    if wl.weights is not None:
        return np.array(wl.weights)
    return np.random.default_rng(DESIGN_SEED).dirichlet(
        np.ones(wl.topics), size=wl.conversations
    )


def spec_for(wl, lam, bins) -> synth.SynthSpec:
    return synth.SynthSpec(
        topics=wl.topics, vocab_size=wl.vocab_size, lambda_true=lam,
        topic_sharpness=TOPIC_SHARPNESS, channel_noise=CHANNEL_NOISE,
        bins=bins, bin_width=wl.bin_width, seed=wl.spec_seed,
    )


def prune_ragged(conv, seed: int, k: int, max_width: int):
    rng = np.random.default_rng([seed, k, 40])
    nets = tuple(
        corpus.ConfusionNetwork(
            net.uid,
            tuple(corpus.prune_bin(b, 0.0, ragged_width(rng, max_width)) for b in net.bins),
        )
        for net in conv.networks
    )
    return corpus.Conversation(conv.cid, nets)


def _publish(tmp: str, final: str) -> None:
    if os.path.isdir(final):
        shutil.rmtree(tmp)
    else:
        os.replace(tmp, final)


def main(argv) -> int:
    name, seed, model_dir, seed_dir = argv[0], int(argv[1]), argv[2], argv[3]
    wl = WORKLOADS[name]
    lams = design_weights(wl)
    need_model = not os.path.isdir(model_dir)
    if os.path.isdir(seed_dir) and not need_model:
        return 0
    tmp = f"{seed_dir}.tmp{os.getpid()}"
    os.makedirs(os.path.join(tmp, "truth"))
    for k, (lam, bins) in enumerate(zip(lams, wl.bins)):
        conv, truth = synth.sample_conversation(spec_for(wl, lam, bins), conversation_index(seed, k))
        if wl.ragged:
            conv = prune_ragged(conv, seed, k, wl.bin_width)
        path = os.path.join(tmp, cnet_path(wl, k))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        corpus.save_conversation(conv, truth.vocab, path)
        doc = {
            "cid": conv.cid,
            "lam": [float(x) for x in truth.lam],
            "spoken": [truth.vocab.word(w) for w in truth.refs],
        }
        with open(os.path.join(tmp, "truth", conv.cid + ".json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    if need_model:
        mtmp = f"{model_dir}.tmp{os.getpid()}"
        os.makedirs(mtmp)
        topics.save_topic_model(truth.topics, os.path.join(mtmp, "topics.model"))
        channel.save_channel(truth.channel, truth.vocab, os.path.join(mtmp, "channel.model"))
        _publish(mtmp, model_dir)
    _publish(tmp, seed_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Synthetic conversations from the generative model behind the estimators.

Each bin is produced by sampling a topic from the true mixture weights, a
spoken word from that topic's unigram, and an observed word from the
channel's confusion row.  The channel confuses words only within seeded
random cohorts that partition the vocabulary (``bin_width`` words each), so
a bin's membership, the set of words that could have produced the observed
word, is exactly the observed word's cohort.  Synthetic confidences blend a
point mass on the observed word with the channel's emission profile of the
spoken word; averaged over the cohort this equals the model's observed-word
distribution, which keeps the expected-count estimator unbiased on its own
generative family.  The truth (weights, topics, channel, spoken words) is
returned alongside the data, so parameter-recovery tests need no speech.

Topic rows, cohorts and the channel are shared across the conversations of
one spec; conversation k draws from a stream seeded with ``seed XOR k`` so
sampling can be parallelized per conversation.  All bins of a conversation
are built at once, straight into ``Conversation``'s flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .corpus import Conversation, Vocabulary, _offsets
from .errors import ValidationError
from .modelfile import read_text
from .topics import TopicModel, floor_and_normalize

UTTERANCE_BINS = 50
MIN_CELL_POSTERIOR = 1e-9
OBSERVED_CONFIDENCE_WEIGHT = 0.4


@dataclass
class SynthSpec:
    topics: int
    vocab_size: int
    lambda_true: np.ndarray | None
    topic_sharpness: float
    channel_noise: float
    bins: int
    bin_width: int
    seed: int

    def __post_init__(self):
        if self.topics < 1 or self.vocab_size < 1 or self.bins < 1:
            raise ValidationError("topics, vocab_size and bins must be >= 1")
        if self.bin_width < 1:
            raise ValidationError("bin_width must be >= 1")
        if not 0.0 <= self.channel_noise < 1.0:
            raise ValidationError("channel_noise must be in [0, 1)")
        if not (np.isfinite(self.topic_sharpness) and self.topic_sharpness > 0.0):
            raise ValidationError("topic_sharpness must be finite and > 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.lambda_true is not None:
            lam = np.asarray(self.lambda_true, dtype=np.float64)
            if (lam.shape != (self.topics,) or not np.isfinite(lam).all()
                    or np.any(lam < 0) or abs(lam.sum() - 1) > 1e-9):
                raise ValidationError(f"lambda_true {lam!r} is not on the simplex")
            self.lambda_true = lam


@dataclass
class SynthTruth:
    lam: np.ndarray
    topics: TopicModel
    channel: ChannelModel
    vocab: Vocabulary
    refs: tuple


def _make_vocab(size: int) -> Vocabulary:
    width = len(str(size - 1))
    return Vocabulary(f"w{i:0{width}d}" for i in range(size))


def _shared_structures(spec: SynthSpec):
    """Topic rows, cohort table, and channel from the spec-level stream."""
    rng = np.random.default_rng([spec.seed, 0])
    V, T = spec.vocab_size, spec.topics
    rows = np.empty((T, V))
    for t in range(T):
        rows[t] = rng.dirichlet(np.full(V, spec.topic_sharpness))
    vocab = _make_vocab(V)
    tm = TopicModel([f"t{t}" for t in range(T)], vocab, floor_and_normalize(rows))

    # consecutive runs of a permutation, each sorted; the short last one is
    # padded with V, which sorts after every word
    k, noise = spec.bin_width, spec.channel_noise
    perm = rng.permutation(V)
    n = -(-V // k)
    members = np.sort(np.append(perm, np.full(n * k - V, V)).reshape(n, k), axis=1)
    cohort, pos = np.empty(V, dtype=np.int64), np.empty(V, dtype=np.int64)
    at = np.nonzero(members < V)
    cohort[members[at]], pos[members[at]] = at
    peers = members[cohort]  # word w is peers[w, pos[w]]
    size = np.count_nonzero(peers < V, axis=1)
    # row w keeps 1 - noise on w and spreads noise evenly over its cohort;
    # table[w] holds it at the positions of peers[w]
    table = np.where(peers < V, (noise / np.maximum(size - 1, 1))[:, None], 0.0)
    table[np.arange(V), pos] = np.where(size == 1, 1.0, 1.0 - noise)
    spoken, slot = np.nonzero(table)
    cm = ChannelModel(spoken, peers[spoken, slot], table[spoken, slot], V)
    return tm, cm, vocab, (peers, pos, size, table)


def _conversation(cid, observed, spoken, cohorts) -> Conversation:
    """Every bin at once, each around its observed word: membership is the
    words that can produce it (its cohort); confidences blend a point mass
    on the observed word with the spoken word's emission profile.
    """
    peers, pos, size, table = cohorts
    a = OBSERVED_CONFIDENCE_WEIGHT
    r, oi = np.arange(observed.size), pos[observed]
    s = (1.0 - a) * table[spoken]
    s[r, oi] += a
    # each row summed over its own cohort's cells: numpy adds eight or more
    # numbers pairwise, so summing the padding too would change the last bit
    width = size[observed]
    total = np.empty(observed.size)
    for k in np.unique(width).tolist():
        total[width == k] = s[width == k, :k].sum(axis=1)
    s /= total[:, None]
    # the observed word must be the bin's 1-best: swap posteriors if needed
    top = s.argmax(axis=1)
    s[r, oi], s[r, top] = s[r, top], s[r, oi]
    tie = np.count_nonzero(s == s[r, oi][:, None], axis=1) > 1
    s[r[tie], oi[tie]] *= 1.0 + 1e-6
    keep = s >= MIN_CELL_POSTERIOR
    keep[r, oi] = True
    # canonical order: descending posterior, cohort (word id) order on ties
    order = np.argsort(-s, axis=1, kind="stable")
    keep = np.take_along_axis(keep, order, 1)
    words = np.take_along_axis(peers[observed], order, 1)[keep]
    posts = np.take_along_axis(s, order, 1)[keep]
    bin_ptr = _offsets(keep.sum(axis=1))
    utt_ptr = np.append(np.arange(0, observed.size, UTTERANCE_BINS), observed.size)
    uids = [f"u{u + 1:04d}" for u in range(utt_ptr.size - 1)]
    return Conversation.from_arrays(cid, uids, utt_ptr, bin_ptr, words, posts)


def sample_conversation(spec: SynthSpec, index: int = 0):
    """Sample conversation ``index`` of a spec; returns (Conversation, SynthTruth)."""
    return _sample(spec, index, _shared_structures(spec))


def sample_conversations(spec: SynthSpec, count: int):
    """Yield conversations 0..count-1 of a spec, as ``sample_conversation``
    would, building the shared topic rows and channel once."""
    shared = _shared_structures(spec)
    for index in range(count):
        yield _sample(spec, index, shared)


def _sample(spec: SynthSpec, index: int, shared):
    tm, cm, vocab, cohorts = shared
    rng = np.random.default_rng([spec.seed ^ index, 1])
    T, V, M = spec.topics, spec.vocab_size, spec.bins

    if spec.lambda_true is not None:
        lam = spec.lambda_true
    else:
        lam = rng.dirichlet(np.ones(T))

    topics_drawn = rng.choice(T, size=M, p=lam)
    spoken = np.empty(M, dtype=np.int64)
    for t in range(T):
        idx = np.nonzero(topics_drawn == t)[0]
        if idx.size:
            spoken[idx] = rng.choice(V, size=idx.size, p=tm.probs[t])
    observed = np.empty(M, dtype=np.int64)
    for w in sorted(set(spoken.tolist())):
        idx = np.nonzero(spoken == w)[0]
        support, probs = cm.row(w)
        observed[idx] = rng.choice(support, size=idx.size, p=probs)

    conv = _conversation(f"synth{index:03d}", observed, spoken, cohorts)
    truth = SynthTruth(lam, tm, cm, vocab, tuple(int(w) for w in spoken))
    return conv, truth


def save_truth(truth: SynthTruth, conv: Conversation, path) -> None:
    """Sidecar with the true weights and the spoken word per bin."""
    vocab = truth.vocab
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"TRUTH {conv.cid}\n")
        fh.write(f"LAMBDA {len(truth.lam)}\n")
        for label, w in zip(truth.topics.labels, truth.lam):
            fh.write(f"{label} {w:.12g}\n")
        fh.write(f"REFS {len(truth.refs)}\n")
        ptr = conv.utt_ptr.tolist()
        for uid, lo, hi in zip(conv.uids, ptr, ptr[1:]):
            for j in range(hi - lo):
                fh.write(f"{uid} {j} {vocab.word(truth.refs[lo + j])}\n")


def load_truth_lambda(path) -> np.ndarray:
    """Read just the true weight vector back from a sidecar file."""
    lines = read_text(path).removesuffix("\n").split("\n")
    if len(lines) < 2 or not lines[1].startswith("LAMBDA "):
        raise ValidationError(f"{path} is not a truth sidecar")
    count = int(lines[1].split()[1])
    return np.array([float(lines[2 + t].split()[1]) for t in range(count)])

"""Shared builders for randomized test instances, and the evaluators of
the estimators' derivation that the tests check them against."""

import tracemalloc

import numpy as np
from hypothesis import strategies as st

from cnadapt.adapt import _ConfKernel, _conf_update, _self_stats
from cnadapt.channel import ChannelModel
from cnadapt.corpus import Bin, ConfusionNetwork, Conversation, Vocabulary
from cnadapt.errors import ValidationError
from cnadapt.modelfile import read_text
from cnadapt.topics import TopicModel, floor_and_normalize, mu_to_lambda


def make_topic_model(rng, T, V, sharpness=0.5):
    vocab = Vocabulary(f"w{i}" for i in range(V))
    rows = np.vstack([rng.dirichlet(np.full(V, sharpness)) for _ in range(T)])
    return TopicModel([f"t{t}" for t in range(T)], vocab, floor_and_normalize(rows))


def channel_from_rows(rows):
    """A ChannelModel from nested dicts, ``rows[w][v] = p``."""
    entries = sorted((w, v, p) for w, row in rows.items() for v, p in row.items())
    spoken, obs, probs = zip(*entries)
    return ChannelModel(np.array(spoken), np.array(obs), np.array(probs, dtype=np.float64),
                        spoken[-1] + 1)


def make_channel(rng, V, n_confusions=3, self_mass=0.5):
    """Every word keeps at least ``self_mass`` on itself plus a few confusions."""
    rows = {}
    for w in range(V):
        k = min(n_confusions, V - 1)
        others = rng.choice(np.delete(np.arange(V), w), size=k, replace=False)
        noise = rng.dirichlet(np.ones(k + 1)) * (1.0 - self_mass)
        row = {w: self_mass + noise[0]}
        for o, p in zip(others, noise[1:]):
            row[int(o)] = float(p)
        total = sum(row.values())
        rows[w] = {v: p / total for v, p in row.items()}
    return channel_from_rows(rows)


def make_conversation(rng, V, M, max_width=5, normalized_bins=False, cid="c"):
    bins = []
    for _ in range(M):
        k = int(rng.integers(1, max_width + 1))
        wids = rng.choice(V, size=k, replace=False)
        post = rng.dirichlet(np.ones(k))
        if not normalized_bins:
            post = post * rng.uniform(0.5, 1.0)
        bins.append(Bin([(int(w), float(p)) for w, p in zip(wids, post)]))
    nets = []
    for j in range(0, M, 40):
        nets.append(ConfusionNetwork(f"u{j // 40}", tuple(bins[j : j + 40])))
    return Conversation(cid, tuple(nets))


def make_instance(seed, T=3, V=20, M=100, max_width=5, normalized_bins=False,
                  sharpness=0.5):
    rng = np.random.default_rng(seed)
    tm = make_topic_model(rng, T, V, sharpness)
    cm = make_channel(rng, V)
    conv = make_conversation(rng, V, M, max_width, normalized_bins)
    return conv, tm, cm


def wide_instance(seed, nbins, T=10, V=2000, width=40):
    """A long conversation of ``nbins`` unpruned bins of ``width`` distinct
    words out of V, equal posteriors, with its topic model and channel: the
    bins' K^2 channel pairs outnumber everything else the build reads."""
    rng = np.random.default_rng(seed)
    tm = make_topic_model(rng, T, V)
    cm = make_channel(rng, V)
    words = np.concatenate([rng.choice(V, width, replace=False) for _ in range(nbins)])
    conv = Conversation.from_arrays("c", ("u",), np.array([0, nbins]),
                                    np.arange(nbins + 1) * width, words,
                                    np.full(words.size, 1.0 / width))
    return conv, tm, cm


def traced_peak(fn, *args):
    """``(result, peak)``: what ``fn(*args)`` returns, and how far the
    memory tracemalloc traced while it ran peaked above what was still
    held once it returned."""
    tracemalloc.start()
    try:
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - kept


def iter_bins(conv):
    for net in conv.networks:
        yield from net.bins


def bins_as_lists(conv):
    return [list(b.cells) for b in iter_bins(conv)]


def loglik_self(conv, tm, lam, use_tf=False):
    """The self-* log-likelihood at ``lam``: of the 1-best words, or of the
    expected counts with ``use_tf``."""
    return _self_stats(conv, tm, use_tf)(np.asarray(lam, dtype=np.float64))[1]


def conf_em_step(conv, tm, cm, lam, use_tf=False, map_strength=0.0):
    """One conf-* multiplicative update from ``lam``.

    Returns (new weights, delta) where delta is the softmax-space step the
    update maximizes the surrogate at (before renormalization).
    """
    lam = np.asarray(lam, dtype=np.float64)
    N, D, _ = _ConfKernel(conv, tm, cm, use_tf).stats(lam)
    u = _conf_update(N, D, lam, map_strength, 0)
    with np.errstate(divide="ignore"):
        delta = np.log(u) - np.log(lam)
    return u / u.sum(), delta


def conf_lower_bound(conv, tm, cm, mu, delta, use_tf=False):
    """Value of the concave surrogate maximized by one multiplicative update.

    Evaluated at softmax parameters ``mu`` and a candidate step ``delta``;
    nonnegative at the update the estimator takes, zero at ``delta = 0``,
    and never above the true Q-difference.
    """
    lam = mu_to_lambda(mu)
    delta = np.asarray(delta, dtype=np.float64)
    kernel = _ConfKernel(conv, tm, cm, use_tf)
    N = kernel.stats(lam)[0]
    A = lam @ kernel.S
    Ad = (lam * np.exp(delta)) @ kernel.S
    return float(N.sum() + delta @ N - kernel.binw @ (Ad / A))


def non_decreasing(trace, slack=1e-9):
    """Pairwise check that tolerates repeated +/-inf entries."""
    return all(b >= a - slack for a, b in zip(trace, trace[1:]))


def reference_load_channel(text, vocab):
    """The loader's contract, line by line: rows summed in file order, then
    entries outside ``vocab`` dropped and the rest renormalized."""
    lines = text.splitlines()[1:]
    known = len(vocab)
    outside = {}
    raw = {}
    for line in lines:
        w, v, ptok = line.split()
        wid, vid = vocab.get(w), vocab.get(v)
        if wid is None:
            wid = outside.setdefault(w, known + len(outside))
        if vid is None:
            vid = outside.setdefault(v, known + len(outside))
        raw.setdefault(wid, {})[vid] = float(ptok)
    rows = {}
    for w, row in raw.items():
        total = sum(row.values())
        assert abs(total - 1.0) <= 1e-6
        if outside:
            row = {v: p for v, p in row.items() if v < known}
            if w >= known or not row:
                continue
            total = sum(row.values())
        rows[w] = {v: p / total for v, p in row.items()}
    return rows


def reference_load_topic_model(text):
    """The topic loader's contract, line by line: (labels, words, rows), the
    words those of the first topic and each probability as float() reads it."""
    lines = text.splitlines()
    T, V = map(int, lines[0].split()[1:])
    labels, words, rows = [], [], []
    for t in range(T):
        block = [line.split() for line in lines[1 + t * (V + 1) : 1 + (t + 1) * (V + 1)]]
        labels.append(block[0][1])
        words.append(tuple(w for w, _ in block[1:]))
        rows.append([float(p) for _, p in block[1:]])
    assert all(w == words[0] for w in words)
    return labels, words[0] if words else (), floor_and_normalize(np.array(rows).reshape(T, V))


# words of 7, 8, 9, 16 and 17 bytes, around the 8-byte blocks the loaders
# compare words in, and words with bytes outside ASCII or a NUL inside
EDGE_WORDS = st.one_of(
    st.sampled_from([7, 8, 9, 16, 17]).flatmap(
        lambda n: st.text(alphabet="abxyz", min_size=n, max_size=n)),
    st.text(alphabet="ab\x00éア\U0001f600", min_size=1, max_size=9),
)
# ways to write a probability that float() reads, around the loaders' exact
# case: 12 to 17 significant digits and exponent form, then repr() with a
# sign ("+"), an extra leading zero ("0"), no digit before the '.' (".") or
# an underscore between two digits ("_")
PROB_FORMS = ("{!r}", "{:.12g}", "{:.15g}", "{:.16g}", "{:.17g}", "{:.17e}", "{:E}",
              "+", "0", ".", "_")


def write_prob(p, form):
    """``p`` written in ``form``, one of PROB_FORMS."""
    text = repr(p)
    if form in ("+", "0"):
        return form + text
    if form == ".":
        return text[1:] if text.startswith("0.") else text
    if form == "_":
        pairs = [i for i in range(len(text) - 1) if text[i : i + 2].isdigit()]
        return text[: pairs[0] + 1] + "_" + text[pairs[0] + 1 :] if pairs else text
    return form.format(p)


def load_truth_lambda(path) -> np.ndarray:
    """Read just the true weight vector back from a sidecar file."""
    lines = read_text(path).removesuffix("\n").split("\n")
    if len(lines) < 2 or not lines[1].startswith("LAMBDA "):
        raise ValidationError(f"{path} is not a truth sidecar")
    count = int(lines[1].split()[1])
    return np.array([float(lines[2 + t].split()[1]) for t in range(count)])

"""EM estimators for conversation-level topic mixture weights.

Four variants share one entry point, ``fit``, and one EM driver;
``loglik_conf`` evaluates the conf-* objective at given weights:

* ``self-1best`` / ``self-tf``: treat the recognizer output (1-best words,
  or posterior-weighted expected counts) as ground truth and fit the
  mixture by plain EM; an optional Dirichlet-prior strength turns the
  closed-form update into its clamped MAP form.
* ``conf-1best`` / ``conf-tf``: additionally model the recognizer's word
  confusions.  Each bin's observed word is explained as a channel-corrupted
  latent bin word; because the mixture weights then appear inside a per-bin
  normalizer, the M-step maximizes a concave lower bound on the EM
  Q-difference in softmax parameter space, giving a multiplicative weight
  update.  MAP variants bound the prior difference too, with separate
  update forms for negative and positive prior strength.

The conf-* workspace (see ``_ConfKernel``) contracts the channel with the
topic rows once per conversation, so each iteration's accumulators are two
flat matrix-vector products over the observed slots plus the per-bin
normalizer; the reductions run in a fixed order, so repeated runs on one
platform reproduce identical traces.

The driver, ``_run_em``, accelerates every variant's EM update with
safeguarded SQUAREM (Varadhan & Roland, Scand. J. Statist. 2008).  Each
cycle takes one plain EM step, which alone decides convergence, then
extrapolates in softmax space from it and a second EM step, and takes one
EM step from the extrapolated point.  It keeps that point unless its
objective is lower than the plain step's, in which case it keeps the
second EM step instead, so the objective trace never falls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel
from .corpus import Conversation
from .errors import EstimationError, ValidationError
from .modelfile import ragged
from .topics import MixtureWeights, TopicModel, mu_to_lambda

VARIANTS = ("self-1best", "self-tf", "conf-1best", "conf-tf")
# elements of the largest array one block of the conf-* workspace build
# holds (see _ConfKernel), and of the largest dense channel table it builds
# (see _channel_lookup): 8 MB keeps the table's lookups, five to ten times
# faster than the binary search, for conversations of up to 1024 words
BLOCK_ELEMENTS = 1 << 16
TABLE_ELEMENTS = 1 << 20


@dataclass
class EstimatorConfig:
    """Variant selector plus prior strength and convergence controls.

    ``map_strength`` is the single tuned product of the Dirichlet prior
    (negative pulls weights toward sparsity, zero means plain MLE).
    """

    variant: str
    map_strength: float = 0.0
    max_iters: int = 200
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not np.isfinite(self.map_strength):
            raise ValidationError(f"map_strength {self.map_strength!r} is not finite")
        if not (np.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValidationError(f"rel_tol {self.rel_tol!r} is not finite and > 0")


@dataclass
class FitResult:
    """Fitted weights and how the fit got there.

    ``loglik_trace`` holds the objective at the start and at every accepted
    point: a SQUAREM cycle (see ``_run_em``) accepts two, its plain EM step
    and its extrapolated or fallback point.  ``iterations`` is the number of
    accepted points, ``len(loglik_trace) - 1``; ``evaluations`` counts every
    call of the per-iteration statistics, rejected points included.
    ``converged`` means a plain EM step gained at most ``rel_tol``.
    ``build_s`` is the wall time ``fit`` took to set the statistics up (the
    conf-* workspace or the self-* word weights) before EM started, and
    ``lookup`` how the conf-* build looked channel pairs up, ``"table"`` or
    ``"search"`` (None for self-*).
    """

    weights: MixtureWeights
    loglik_trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    evaluations: int = 0
    build_s: float = 0.0
    lookup: str | None = None


def _check_in_model(wids: np.ndarray, tm: TopicModel) -> None:
    V = tm.probs.shape[1]
    bad = wids >= V
    if bad.any():
        raise ValidationError(
            f"word id {int(wids[bad.argmax()])} is outside the topic model's {V} words"
        )


def _channel_lookup(cm: ChannelModel, words: np.ndarray, V: int, budget: int):
    """Number the distinct words of ``words`` (ids below ``V``) and look
    channel pairs up by those local ids: returns ``(ws, local, lookup)``.

    ``ws`` holds the U distinct words in order and ``local[i]`` is the rank
    of ``words[i]`` among them.  ``lookup(keys)`` gives p(observed o |
    spoken u) for local pair keys ``u * U + o``, and 0 for a key of U * U
    or more, which marks a padding pair.  When U * U <= ``budget`` it reads
    a dense table of U * U + 1 entries; otherwise it binary-searches the
    sorted keys, for the keys below U * U only.  ``lookup.__name__`` says
    which, ``"table"`` or ``"search"``.  Only the rows of these words are
    gathered, and only their entries to these words are kept, so the cost
    does not grow with the channel; a word without a row emits itself.
    """
    present = np.zeros(V, dtype=bool)
    present[words] = True
    ws = np.flatnonzero(present)
    U = ws.size
    # one slot past the vocabulary: every observed id outside it clips there
    rank = np.full(V + 1, -1)
    rank[ws] = np.arange(U)
    last = cm.ptr.size - 1
    start = cm.ptr[np.minimum(ws, last)]
    size = cm.ptr[np.minimum(ws + 1, last)] - start
    at = ragged(start, start + size)
    obs = rank.take(cm.obs[at], mode="clip")
    kept = obs >= 0
    # rows come in word order and hold their observed words in order
    keys = np.repeat(np.arange(U) * U, size)[kept] + obs[kept]
    ps = cm.probs[at[kept]]
    selfkeys = np.flatnonzero(size == 0) * (U + 1)
    pos = np.searchsorted(keys, selfkeys)
    keys, ps = np.insert(keys, pos, selfkeys), np.insert(ps, pos, 1.0)
    if U * U <= budget:
        dense = np.zeros(U * U + 1)
        dense[keys] = ps

        def table(key):
            return dense.take(key, mode="clip")

        return ws, rank[words], table
    # a sentinel key ends the array, so every search lands on an entry
    keys = np.append(keys, np.iinfo(np.int64).max)
    ps = np.append(ps, 0.0)

    def search(key):
        chan = np.zeros(key.shape)
        real = key < U * U
        key = key[real]
        pos = np.searchsorted(keys, key)
        chan[real] = np.where(keys[pos] == key, ps[pos], 0.0)
        return chan

    return ws, rank[words], search


def _slots(first, width, lo, hi, pad):
    """(bins, hi - lo): the slots of cells ``lo`` to ``hi`` of bins that
    start at ``first`` and hold ``width`` cells, ``pad`` past a bin's end."""
    cell = np.arange(lo, hi)
    slot = first[:, None] + cell
    slot[cell >= width[:, None]] = pad
    return slot


class _ConfKernel:
    """Per-conversation arrays of the conf-* EM and its per-iteration statistics.

    A bin's observed slots are its cells under ``conf-tf`` (J = its width)
    and its 1-best cell under ``conf-1best`` (J = 1).  The build groups bins
    into width classes (1, 2, 3-4, 5-8, ..., the last one ending at the
    widest bin) and pads each bin to its class width K with zero topic rows.
    It walks each class in blocks of m bins, sized so that no array of a
    block (the pair keys, the (m, K, J) channel block from
    ``_channel_lookup``, the bins' gathered topic rows, the batched product)
    holds more than BLOCK_ELEMENTS elements; a bin too wide for that is
    taken alone, in ranges of its spoken cells and observed slots, and the
    products of its spoken ranges are added up.  Each block's product is
    written straight into ``R``, and ``S`` is summed over blocks of at most
    BLOCK_ELEMENTS // T cells.  So the scratch memory does not grow with the
    channel pairs; what grows with the conversation is three int64 per cell
    (its local word id and two padded copies), the U + 1 topic rows of its
    distinct words and the channel entries among them (see
    ``_channel_lookup``).
    What is kept, with the observed slots in cell order (``conf-tf``) or
    bin order (``conf-1best``):

    * ``R`` (T, slots): ``R[t, b]`` sums, over the cells a of b's bin,
      p(word of b | word of a) * p(word of a | topic t), so ``lam @ R`` is
      each observed word's channel probability under the mixture; a dead
      slot, whose word no cell of its bin emits, holds p(word of b | topic t)
      instead, as if its word had emitted itself;
    * ``live``: no slot is dead, else ``stats`` gives a log-likelihood of -inf;
    * ``w`` (slots,): each slot's evidence, its posterior for ``conf-tf``
      and 1 for ``conf-1best``, always positive;
    * ``S`` (T, bins): per-bin sums of the topic rows of the bin's words;
    * ``binw`` (bins,): evidence mass of each bin;
    * ``lookup``: ``"table"`` or ``"search"``, how the channel pairs were
      looked up (see ``_channel_lookup``).
    """

    def __init__(self, conv: Conversation, tm: TopicModel, cm: ChannelModel, use_tf: bool):
        words, post, ptr = conv.words, conv.posts, conv.bin_ptr
        width = np.diff(ptr)
        _check_in_model(words, tm)
        T, V = tm.probs.shape
        first = ptr[:-1]
        # class e, the bit length of width - 1, holds widths 1, 2, 3-4, 5-8, ...;
        # np.unique is avoided because its first call imports numpy.ma (~15 ms)
        exp = np.frexp(width - 1)[1]
        classes = [(min(1 << int(e), int(width.max())), np.flatnonzero(exp == e))
                   for e in np.flatnonzero(np.bincount(exp))]
        pairs = int(width @ width) if use_tf else words.size
        ws, local, lookup = _channel_lookup(cm, words, V, min(pairs, TABLE_ELEMENTS))
        U = ws.size
        topics = np.concatenate([tm.probs.take(ws, axis=1).T, np.zeros((1, T))])
        # a padding slot has the zero topic row, and its pair keys are U * U
        # or more, which look up 0
        pad = words.size
        row, observed = np.append(local, U), np.append(local, U * U)
        R = np.empty((T, words.size if use_tf else width.size))
        for K, b in classes:
            J = K if use_tf else 1
            ka = min(K, max(1, BLOCK_ELEMENTS // T))
            kc = min(J, max(1, BLOCK_ELEMENTS // max(ka, T)))
            m = max(1, BLOCK_ELEMENTS // max(ka * kc, ka * T, kc * T))
            for lo in range(0, b.size, m):
                bb = b[lo : lo + m]
                for a in range(0, K, ka):
                    said = row[_slots(first[bb], width[bb], a, min(a + ka, K), pad)]
                    rows = topics.take(said, axis=0)
                    for c in range(0, J, kc):
                        if use_tf:
                            out = seen = _slots(first[bb], width[bb], c, min(c + kc, J), pad)
                        else:
                            seen, out = first[bb, None], bb[:, None]
                        chan = lookup((said * U)[:, :, None] + observed[seen][:, None, :])
                        # (m, kc, ka) @ (m, ka, T): the columns of R of these slots,
                        # summed over the spoken ranges of a bin split into several
                        prod = chan.transpose(0, 2, 1) @ rows
                        real = out != pad
                        if a:
                            R[:, out[real]] += prod[real].T
                        else:
                            R[:, out[real]] = prod[real].T
        self.R = R
        # blocks of whole bins of at most cap cells, or of cap cells of a
        # wider bin, whose pieces add up
        S = np.zeros((T, width.size))
        cap = max(1, BLOCK_ELEMENTS // T)
        lo = 0
        while lo < words.size:
            end = ptr[np.searchsorted(ptr, lo + cap, "right") - 1]
            hi = int(end) if end > lo else min(lo + cap, words.size)
            b0, b1 = np.searchsorted(ptr, lo, "right") - 1, np.searchsorted(ptr, hi)
            starts = np.maximum(first[b0:b1], lo) - lo
            S[:, b0:b1] += np.add.reduceat(topics.take(local[lo:hi], axis=0), starts).T
            lo = hi
        self.S = S
        self.lookup = lookup.__name__
        if use_tf:
            self.w, seen = post, words
            self.binw = np.add.reduceat(post, first)
        else:
            self.w, seen = np.ones(width.size), words[first]
            self.binw = self.w
        dead = np.flatnonzero(~R.any(axis=0))
        R[:, dead] = tm.probs[:, seen[dead]]
        self.live = dead.size == 0

    def stats(self, lam: np.ndarray):
        """Return (N, D, log-likelihood) at ``lam``.

        N[t] is the reference-posterior-weighted topic-t mass, D[t] the
        bin-level topic-t mass ratio; both feed the multiplicative update.
        Floating-point errors follow the caller's numpy error state, which
        ``fit`` sets once for its whole EM.
        """
        den = lam @ self.R
        N = lam * (self.R @ (self.w / den))
        binq = lam @ self.S
        ll = float(self.w @ np.log(den) - self.binw @ np.log(binq)) if self.live else -np.inf
        return N, self.S @ (self.binw / binq), ll


def loglik_conf(
    conv: Conversation, tm: TopicModel, lam, cm: ChannelModel, use_tf: bool = False
) -> float:
    """Log-likelihood of the observed words under the confusion channel,
    with the mixture renormalized inside each bin.
    """
    kernel = _ConfKernel(conv, tm, cm, use_tf)
    return kernel.stats(np.asarray(lam, dtype=np.float64))[2]


def _penalized(ll: float, lam: np.ndarray, m: float) -> float:
    if m == 0.0:
        return float(ll)
    return float(ll + m * np.log(lam).sum())


def _step_converged(prev: float, cur: float, rel_tol: float) -> bool:
    if cur == prev:
        return True
    return abs(cur - prev) <= rel_tol * max(1.0, abs(prev))


def _check_finite(arr, what: str, iteration: int):
    if not np.all(np.isfinite(arr)):
        raise EstimationError(
            f"non-finite {what} at iteration {iteration}: {np.asarray(arr)}"
        )


def _clamp_renormalize(x: np.ndarray, m: float) -> np.ndarray:
    x = np.maximum(x, 0.0)
    total = x.sum()
    if total <= 0.0:
        raise EstimationError(
            f"all topics clamped to zero; map_strength {m} is too strong"
        )
    return x / total


def _self_update(c: np.ndarray, m: float, iteration: int) -> np.ndarray:
    if m == 0.0:
        return c / c.sum()
    T = c.shape[0]
    denom = c.sum() + T * m
    if denom <= 0.0:
        raise EstimationError(
            f"MAP update denominator {denom} <= 0; map_strength {m} is too strong"
        )
    x = (c + m) / denom
    _check_finite(x, "MAP update", iteration)
    return _clamp_renormalize(x, m)


def _conf_update(
    N: np.ndarray, D: np.ndarray, lam: np.ndarray, m: float, iteration: int
) -> np.ndarray:
    """Unnormalized multiplicative update from ``lam``.

    ``log(u) - log(lam)`` is the softmax-space step at which the update
    maximizes the surrogate; the new weights are ``u / u.sum()``.  D > 0
    (S > 0 and binw > 0), so only N can make ``u`` non-finite.
    """
    T = N.shape[0]
    if m == 0.0:
        u = N / D
    elif m < 0.0:
        # np.maximum keeps inf and NaN for the check below
        u = np.maximum((N + m * (1.0 - T * lam)) / D, 0.0)
    else:
        u = (N + m) / (D + m * T)
    _check_finite(u, "update", iteration)
    if u.sum() <= 0.0:
        raise EstimationError(
            f"degenerate update at iteration {iteration}; map_strength {m} is too strong"
        )
    return u


def _run_em(lam0, stats, update, m, max_iters, rel_tol) -> FitResult:
    """EM from ``lam0``, accelerated by safeguarded SQUAREM cycles.

    A cycle from weights lam0 takes one plain EM step to lam1, the only step
    the ``rel_tol`` test sees, then a second to lam2.  In softmax space, over
    the topics where all three weights are nonzero, it extrapolates from the
    two steps (Varadhan & Roland's SqS3 step length, bounded by ``step_max``)
    and takes one EM step from the extrapolated point.  That point is kept if its
    objective is no lower than lam1's; otherwise the cycle falls back to lam2
    and ``step_max`` shrinks.  Each cycle appends lam1 and the kept point to
    the trace, so the trace rises point by point.
    """
    evaluations = 0

    def evaluate(lam):
        nonlocal evaluations
        evaluations += 1
        acc, ll = stats(lam)
        return acc, _penalized(ll, lam, m)

    def check(obj, it):
        if np.isnan(obj):
            raise EstimationError(f"objective became NaN at iteration {it}")

    lam = lam0
    acc, obj = evaluate(lam)
    trace = [obj]
    step_max = 1.0
    while len(trace) <= max_iters:
        it = len(trace)
        lam1 = update(acc, lam, it)
        acc1, obj1 = evaluate(lam1)
        check(obj1, it)
        trace.append(obj1)
        converged = _step_converged(obj, obj1, rel_tol)
        if converged or it == max_iters:
            return FitResult(MixtureWeights(lam1), trace, it, converged, evaluations)

        lam2 = update(acc1, lam1, it + 1)
        keep = (lam > 0.0) & (lam1 > 0.0) & (lam2 > 0.0)
        mu0, mu1, mu2 = np.log(lam[keep]), np.log(lam1[keep]), np.log(lam2[keep])
        r = mu1 - mu0
        v = mu2 - mu1 - r
        nr, nv = np.linalg.norm(r), np.linalg.norm(v)
        alpha = -min(max(nr / nv, 1.0), step_max) if nv > 0.0 else -step_max
        lamx = np.zeros_like(lam)
        lamx[keep] = mu_to_lambda(mu0 - 2.0 * alpha * r + alpha * alpha * v)
        try:
            accx, _ = evaluate(lamx)
            lam3 = update(accx, lamx, it + 1)
            acc3, obj3 = evaluate(lam3)
        except EstimationError:
            obj3 = np.nan
        if obj3 >= obj1:
            lam, acc, obj = lam3, acc3, obj3
            if alpha == -step_max:
                step_max *= 4.0
        else:
            lam = lam2
            acc, obj = evaluate(lam)
            check(obj, it + 1)
            step_max = max(1.0, step_max / 4.0)
        trace.append(obj)
    return FitResult(MixtureWeights(lam), trace, max_iters, False, evaluations)


def _self_stats(conv: Conversation, tm: TopicModel, use_tf: bool):
    """Per-iteration statistics of the self-* EM: at ``lam``, the expected
    topic counts and the log-likelihood of the observed words (1-best words,
    or expected counts), each distinct word counted once with its weight.
    """
    if use_tf:
        words, weights = conv.words, conv.posts
    else:
        words = conv.words[conv.bin_ptr[:-1]]
        weights = np.ones(words.size)
    # np.unique is avoided because its first call imports numpy.ma (~15 ms)
    wids = np.flatnonzero(np.bincount(words))
    _check_in_model(wids, tm)
    # bincount adds in cell order, so each weight is bitwise a running sum
    wts = np.bincount(words, weights)[wids]
    Qw = np.ascontiguousarray(tm.probs[:, wids])

    def stats(lam):
        qmix = lam @ Qw
        c = lam * (Qw @ (wts / qmix))
        return c, float(wts @ np.log(qmix))

    return stats


def fit(
    conv: Conversation,
    tm: TopicModel,
    cfg: EstimatorConfig,
    cm: ChannelModel | None = None,
) -> FitResult:
    """Fit the mixture weights by EM (SQUAREM cycles, see ``_run_em``) from
    uniform weights.

    The variant picks the per-iteration statistics and the update; MAP
    when cfg.map_strength is nonzero.  conf-* variants need the channel ``cm``.
    EM runs with numpy's floating-point errors ignored, set once per fit: an
    overflow or a zero divisor ends in one ``EstimationError``, not a warning.
    """
    m = cfg.map_strength
    start = time.perf_counter()
    lookup = None
    if cfg.variant in ("self-1best", "self-tf"):
        stats = _self_stats(conv, tm, cfg.variant == "self-tf")

        def update(c, lam, it):
            return _self_update(c, m, it)

    else:
        if cm is None:
            raise ValidationError(f"variant {cfg.variant!r} requires a channel model")
        kernel = _ConfKernel(conv, tm, cm, cfg.variant == "conf-tf")
        lookup = kernel.lookup

        def stats(lam):
            N, D, ll = kernel.stats(lam)
            return (N, D), ll

        def update(acc, lam, it):
            u = _conf_update(*acc, lam, m, it)
            return u / u.sum()

    build_s = time.perf_counter() - start
    T = tm.num_topics
    with np.errstate(all="ignore"):
        result = _run_em(np.full(T, 1.0 / T), stats, update, m, cfg.max_iters, cfg.rel_tol)
    result.build_s, result.lookup = build_s, lookup
    return result


def adapted_unigram(tm: TopicModel, weights: MixtureWeights) -> np.ndarray:
    """Dense adapted unigram distribution over the vocabulary."""
    return weights.lam @ tm.probs

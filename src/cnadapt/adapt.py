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

Every conf-* iteration's accumulators come from one numpy kernel over a
per-conversation layout of bins padded by width class (see ``_ConfKernel``);
the reductions run in a fixed order, so repeated runs on one platform
reproduce identical traces.

The driver, ``_run_em``, accelerates every variant's EM update with
safeguarded SQUAREM (Varadhan & Roland, Scand. J. Statist. 2008).  Each
cycle takes one plain EM step, which alone decides convergence, then
extrapolates in softmax space from it and a second EM step, and takes one
EM step from the extrapolated point.  It keeps that point unless its
objective is lower than the plain step's, in which case it keeps the
second EM step instead, so the objective trace never falls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel
from .corpus import Conversation, _ragged
from .errors import EstimationError, ValidationError
from .topics import MixtureWeights, TopicModel, mu_to_lambda

VARIANTS = ("self-1best", "self-tf", "conf-1best", "conf-tf")


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
    """

    weights: MixtureWeights
    loglik_trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    evaluations: int = 0


def _check_in_model(wids: np.ndarray, tm: TopicModel) -> None:
    V = tm.probs.shape[1]
    bad = wids >= V
    if bad.any():
        raise ValidationError(
            f"word id {int(wids[bad.argmax()])} is outside the topic model's {V} words"
        )


def _channel_lookup(cm: ChannelModel, words: np.ndarray):
    """Sorted pair keys ``w * base + v``, their probabilities and ``base``.

    Only the rows of ``words`` are gathered, so the cost does not grow with
    the channel; a word without a row emits itself.  The rows are taken in
    word order and hold their observed words in order, so the keys come out
    sorted.  A sentinel key ends the array, so every lookup lands on an entry.
    """
    ws = np.unique(words)
    last = cm.ptr.size - 1
    start = cm.ptr[np.minimum(ws, last)]
    size = cm.ptr[np.minimum(ws + 1, last)] - start
    rowless = size == 0
    size[rowless] = 1
    spoken = np.repeat(ws, size)
    at = _ragged(start, start + size)
    stored = ~np.repeat(rowless, size)
    vs = spoken.copy()
    vs[stored] = cm.obs[at[stored]]
    ps = np.ones(spoken.size)
    ps[stored] = cm.probs[at[stored]]
    base = max(int(words.max()), int(vs.max())) + 1
    keys = np.append(spoken * base + vs, np.iinfo(np.int64).max)
    return keys, np.append(ps, 0.0), base


class _ConfKernel:
    """Per-conversation arrays of the conf-* EM and its per-iteration statistics.

    Bins are grouped into width classes (1, 2, 3-4, 5-8, ..., the last one
    ending at the widest bin) and every bin is padded to its class width K.
    A class of M bins owns M*K consecutive slots, bin by bin in utterance
    order; slot 0 of a bin is its 1-best word.  Padding slots have zero
    topic probabilities and zero weight, so their channel entries never count.

    * ``cell`` (slots,): each slot's cell, counting cells in utterance
      order; padding points one past the last cell;
    * ``Q`` (T, slots): topic probabilities of each slot's word;
    * ``S`` (T, bins): per-bin sums of ``Q``, in slot order;
    * ``binw`` (bins,): evidence mass of each bin, for the variant ``use_tf`` picks;
    * ``blocks``: per class, its slot range, the (M, K, J) channel block
      (row = spoken slot, column = observed slot) and the (M, J) weights of
      the J observed slots, for that variant only: every slot with its
      posterior for ``conf-tf`` (J = K), the 1-best slot with weight 1 for
      ``conf-1best`` (J = 1, so its channel blocks are (M, K, 1)).
    """

    def __init__(self, conv: Conversation, tm: TopicModel, cm: ChannelModel, use_tf: bool):
        words, post = conv.words, conv.posts
        width = np.diff(conv.bin_ptr)
        _check_in_model(words, tm)
        keys, probs, base = _channel_lookup(cm, words)
        first = conv.bin_ptr[:-1]
        kclass = np.minimum(np.left_shift(1, np.frexp(width - 1)[1]), width.max())
        wordx, postx = np.append(words, 0), np.append(post, 0.0)
        slots, bin_start, self.blocks = [], [], []
        for K in np.unique(kclass):
            b = np.flatnonzero(kclass == K)
            real = np.arange(K) < width[b, None]
            slot = np.where(real, first[b, None] + np.arange(K), words.size)
            w = wordx[slot]
            obs, weight = (w, postx[slot]) if use_tf else (w[:, :1], np.ones((b.size, 1)))
            key = w[:, :, None] * base + obs[:, None, :]
            pos = np.searchsorted(keys, key)
            chan = np.where(keys[pos] == key, probs[pos], 0.0)
            off = sum(s.size for s in slots)
            bin_start.append(off + K * np.arange(b.size))
            slots.append(slot.ravel())
            self.blocks.append((slice(off, off + slot.size), chan, weight))
        self.cell = np.concatenate(slots)
        bin_start = np.concatenate(bin_start)
        T = tm.probs.shape[0]
        self.Q = np.concatenate([tm.probs[:, words], np.zeros((T, 1))], axis=1)[:, self.cell]
        self.S = np.add.reduceat(self.Q, bin_start, axis=1)
        if use_tf:
            self.binw = np.add.reduceat(postx[self.cell], bin_start)
        else:
            self.binw = np.ones(width.size)

    def stats(self, lam: np.ndarray):
        """Return (N, D, log-likelihood, per-slot reference weights) at ``lam``.

        N[t] is the reference-posterior-weighted topic-t mass, D[t] the
        bin-level topic-t mass ratio; both feed the multiplicative update.
        An observed word that gets zero channel mass from every bin word
        falls back to a point-mass reference posterior on itself.
        """
        q = lam @ self.Q
        g = np.empty_like(q)  # reference weight over mixture probability
        ll = 0.0
        with np.errstate(divide="ignore"):
            for sl, chan, w in self.blocks:
                M, J = w.shape
                qc, gc = q[sl].reshape(M, -1), g[sl].reshape(M, -1)
                den = np.einsum("mab,ma->mb", chan, qc)
                live = w > 0.0
                ll += float(np.vdot(w, np.log(den, out=np.zeros_like(den), where=live)))
                r = np.divide(w, den, out=np.zeros_like(w), where=den > 0.0)
                np.einsum("mab,mb->ma", chan, r, out=gc)
                dead = live & (den == 0.0)
                if dead.any():
                    gc[:, :J][dead] += w[dead] / qc[:, :J][dead]
            binq = lam @ self.S
            ll -= float(self.binw @ np.log(binq))
        return lam * (self.Q @ g), self.S @ (self.binw / binq), ll, q * g


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
    with np.errstate(divide="ignore"):
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
    maximizes the surrogate; the new weights are ``u / u.sum()``.
    """
    T = N.shape[0]
    if m == 0.0:
        u = N / D
    elif m < 0.0:
        u = (N + m * (1.0 - T * lam)) / D
        _check_finite(u, "update numerator", iteration)
        u = np.maximum(u, 0.0)
    else:
        denom = D + m * T
        if np.any(denom <= 0.0):
            raise EstimationError(
                f"MAP update denominator non-positive at iteration {iteration}; "
                f"reduce map_strength {m}"
            )
        u = (N + m) / denom
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
    wids = np.unique(words)
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
    """
    m = cfg.map_strength
    if cfg.variant in ("self-1best", "self-tf"):
        stats = _self_stats(conv, tm, cfg.variant == "self-tf")

        def update(c, lam, it):
            return _self_update(c, m, it)

    else:
        if cm is None:
            raise ValidationError(f"variant {cfg.variant!r} requires a channel model")
        kernel = _ConfKernel(conv, tm, cm, cfg.variant == "conf-tf")

        def stats(lam):
            N, D, ll, _ = kernel.stats(lam)
            return (N, D), ll

        def update(acc, lam, it):
            u = _conf_update(*acc, lam, m, it)
            return u / u.sum()

    T = tm.num_topics
    return _run_em(np.full(T, 1.0 / T), stats, update, m, cfg.max_iters, cfg.rel_tol)


def adapted_unigram(tm: TopicModel, weights: MixtureWeights) -> np.ndarray:
    """Dense adapted unigram distribution over the vocabulary."""
    return weights.lam @ tm.probs

"""Independent reference for the outputs of ``cnadapt adapt``.

Nothing here calls into ``cnadapt``: the file formats are parsed and the
confusion-aware objectives are evaluated from their definitions, so a
fault in the program cannot also hide in its check.

For a bin with cells w_0..w_{k-1} (w_0 the 1-best, by descending
posterior and then model word order) and posteriors s_j, the mixture
q(w) = sum_t lam_t Q[t, w] is renormalized inside the bin and pushed
through the channel c(v | w):

    p(v | bin) = sum_i q(w_i) c(v | w_i) / sum_i q(w_i)

``conf-1best`` scores log p(w_0 | bin) per bin; ``conf-tf`` scores
sum_j s_j log p(w_j | bin).  Both are linear maps of lam inside a log, so
one precomputed (T, n) matrix per term makes the objective and its
gradient two matrix-vector products.  The gradient is taken in softmax
coordinates, lam = softmax(mu), where the estimator steps.
"""

from __future__ import annotations

import json

import numpy as np

PROB_FLOOR = 1e-10


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def floor_and_normalize(rows):
    """The topic-model format's floor: clamp, renormalize, clamp again."""
    rows = np.maximum(rows, PROB_FLOOR)
    rows = rows / rows.sum(axis=1, keepdims=True)
    return np.maximum(rows, PROB_FLOOR)


class Model:
    """Topic rows plus the sparse channel, keyed by the model's word order."""

    def __init__(self, topics_path, channel_path):
        lines = read_lines(topics_path)
        head = lines[0].split()
        if head[0] != "TOPICS":
            raise ValueError(f"{topics_path}: bad header {lines[0]!r}")
        T, V = int(head[1]), int(head[2])
        self.labels = [lines[1 + t * (V + 1)].split()[1] for t in range(T)]
        body = [lines[2 + t * (V + 1): 2 + t * (V + 1) + V] for t in range(T)]
        self.words = [ln.split()[0] for ln in body[0]]
        self.index = {w: i for i, w in enumerate(self.words)}
        rows = np.array([[float(ln.split()[1]) for ln in blk] for blk in body])
        self.Q = floor_and_normalize(rows)

        lines = read_lines(channel_path)
        spoken, observed, probs = [], [], []
        for ln in lines[1:]:
            w, v, p = ln.split()
            spoken.append(self.index[w])
            observed.append(self.index[v])
            probs.append(float(p))
        spoken = np.array(spoken, dtype=np.int64)
        observed = np.array(observed, dtype=np.int64)
        probs = np.array(probs)
        totals = np.bincount(spoken, weights=probs, minlength=V)
        keys = spoken * V + observed
        order = np.argsort(keys)
        self.chan_keys = keys[order]
        self.chan_probs = (probs / totals[spoken])[order]
        self.has_row = totals > 0

    @property
    def V(self):
        return len(self.words)

    def channel(self, spoken, observed):
        """c(observed | spoken) for id arrays; words without a row keep
        their own identity."""
        keys = spoken * self.V + observed
        pos = np.minimum(np.searchsorted(self.chan_keys, keys), len(self.chan_keys) - 1)
        found = self.chan_keys[pos] == keys
        out = np.where(found, self.chan_probs[pos], 0.0)
        return np.where(self.has_row[spoken], out, (spoken == observed).astype(float))


class Lattice:
    """One CNET file as flat cell arrays in canonical bin order."""

    def __init__(self, path, model: Model):
        lines = [ln for ln in read_lines(path) if ln.strip()]
        self.cid = lines[0].split()[1]
        words, posts, widths = [], [], []
        for ln in lines[1:]:
            parts = ln.split()
            if parts[0] != "BIN":
                continue
            cells = []
            for tok in parts[1:]:
                w, _, p = tok.rpartition(":")
                cells.append((-float(p), model.index[w]))
            cells.sort()
            words.extend(w for _, w in cells)
            posts.extend(-p for p, _ in cells)
            widths.append(len(cells))
        self.words = np.array(words, dtype=np.int64)
        self.posts = np.array(posts)
        self.widths = np.array(widths, dtype=np.int64)
        self.starts = np.concatenate(([0], np.cumsum(self.widths)[:-1]))

    @property
    def bins(self):
        return len(self.widths)

    @property
    def pairs(self):
        """Channel pairs the estimator touches: sum of k^2 over bins."""
        return int((self.widths ** 2).sum())


class Objective:
    """L(lam) = sum_n s_n log(lam @ A)_n - sum_b B_b log(lam @ S)_b."""

    def __init__(self, lat: Lattice, model: Model, use_tf: bool):
        Q = model.Q
        k = lat.widths
        pair_bin = np.repeat(np.arange(lat.bins), k * k)
        first = np.repeat(np.cumsum(k * k) - k * k, k * k)
        r = np.arange(pair_bin.shape[0]) - first
        kb = k[pair_bin]
        spoken = lat.starts[pair_bin] + r // kb
        observed = lat.starts[pair_bin] + r % kb
        if not use_tf:
            keep = observed == lat.starts[pair_bin]
            spoken, observed, pair_bin = spoken[keep], observed[keep], pair_bin[keep]
        c = model.channel(lat.words[spoken], lat.words[observed])
        slot = observed if use_tf else pair_bin
        n = lat.words.shape[0] if use_tf else lat.bins
        contrib = Q[:, lat.words[spoken]] * c
        self.A = np.stack([np.bincount(slot, weights=row, minlength=n) for row in contrib])
        cell_bin = np.repeat(np.arange(lat.bins), k)
        self.S = np.stack(
            [np.bincount(cell_bin, weights=row, minlength=lat.bins) for row in Q[:, lat.words]]
        )
        if use_tf:
            self.s = lat.posts
            self.B = np.bincount(cell_bin, weights=lat.posts, minlength=lat.bins)
        else:
            self.s = np.ones(lat.bins)
            self.B = np.ones(lat.bins)
        if np.any(self.A.sum(axis=0) <= 0.0):
            raise ValueError(f"{lat.cid}: an observed cell has no channel mass")

    def value(self, lam) -> float:
        lam = np.asarray(lam, dtype=np.float64)
        return float(self.s @ np.log(lam @ self.A) - self.B @ np.log(lam @ self.S))

    def grad_mu(self, lam) -> np.ndarray:
        """dL/dmu at lam = softmax(mu); L is invariant to the scale of lam."""
        lam = np.asarray(lam, dtype=np.float64)
        g = self.A @ (self.s / (lam @ self.A)) - self.S @ (self.B / (lam @ self.S))
        return lam * (g - lam @ g)


# Stated accuracy of every fit: the largest softmax-space gradient
# component the written weights may leave, in nats per bin.  --tol 1e-9
# stays below a third of it; the default --tol 1e-6 left up to ten times
# more on A3-size fits.
GRAD_TOL_PER_BIN = 5e-5
# Slack for comparing objectives that come from different summation orders
# and from weights written at 12 significant digits.
REL_SLACK = 1e-9
# A trace may fall by rounding alone once the steps reach the last digits.
TRACE_SLACK = 1e-12
WEIGHT_SUM_TOL = 1e-9
UNIGRAM_TOL = 1e-9


def read_lambda(path, labels):
    lines = read_lines(path)
    head = lines[0].split()
    if head[0] != "LAMBDA" or int(head[2]) != len(labels):
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    got = [ln.split()[0] for ln in lines[1:]]
    if got != labels:
        raise ValueError(f"{path}: labels {got} are not in model order {labels}")
    return head[1], np.array([float(ln.split()[1]) for ln in lines[1:]])


def read_unigram(path, model: Model):
    lines = read_lines(path)
    if lines[0] != f"UNIGRAM {model.V}" or len(lines) != model.V + 1:
        raise ValueError(f"{path}: header {lines[0]!r} over {len(lines) - 1} lines")
    parts = [ln.split() for ln in lines[1:]]
    if [p[0] for p in parts] != model.words:
        raise ValueError(f"{path}: words are not in model order")
    return np.array([float(p[1]) for p in parts])


def check_fit(lat: Lattice, model: Model, variant: str, lambda_path, unigram_path, truth):
    """Check one conversation's outputs; return facts for the metrics.

    Raises ValueError naming the first property that fails.
    """
    cid, lam = read_lambda(lambda_path, model.labels)
    if cid != lat.cid:
        raise ValueError(f"{lambda_path}: conversation {cid!r}, expected {lat.cid!r}")
    if np.any(lam < 0) or abs(lam.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"{lambda_path}: weights {lam} are not on the simplex")
    with open(lambda_path + ".diag.json", "r", encoding="utf-8") as fh:
        diag = json.load(fh)
    trace = diag["loglik_trace"]
    if diag["variant"] != variant or not diag["converged"]:
        raise ValueError(f"{lambda_path}: variant {diag['variant']}, converged={diag['converged']}")
    if len(trace) != diag["iterations"] + 1:
        raise ValueError(f"{lambda_path}: {len(trace)} trace entries for {diag['iterations']} iterations")
    for a, b in zip(trace, trace[1:]):
        if b < a - TRACE_SLACK * max(1.0, abs(a)):
            raise ValueError(f"{lambda_path}: objective fell from {a!r} to {b!r}")

    obj = Objective(lat, model, variant == "conf-tf")
    value = obj.value(lam)
    slack = REL_SLACK * max(1.0, abs(value))
    if abs(value - trace[-1]) > slack:
        raise ValueError(f"{lambda_path}: objective {value!r} != trace end {trace[-1]!r}")
    grad = float(np.abs(obj.grad_mu(lam)).max()) / lat.bins
    if grad > GRAD_TOL_PER_BIN:
        raise ValueError(f"{lambda_path}: |dL/dmu| = {grad:.3g} nats per bin, "
                         f"above {GRAD_TOL_PER_BIN}")
    at_truth = obj.value(truth["lam"])
    if value < at_truth - slack:
        raise ValueError(f"{lambda_path}: objective {value!r} below {at_truth!r} at the true weights")

    uni = read_unigram(unigram_path, model)
    err = float(np.abs(uni - lam @ model.Q).max())
    if err > UNIGRAM_TOL:
        raise ValueError(f"{unigram_path}: unigram off the weighted topic rows by {err:.3g}")
    spoken = np.array([model.index[w] for w in truth["spoken"]], dtype=np.int64)
    return {
        "iterations": diag["iterations"],
        "grad": grad,
        "gap_to_truth": value - at_truth,
        "ref_logprob": float(np.log(uni[spoken]).sum()),
        "ref_words": int(spoken.shape[0]),
    }

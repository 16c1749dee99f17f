"""The benchmark's checker against brute force on hand-sized instances.

Run: python3 -m pytest perfbench/test_checker.py
"""

import math

import numpy as np
import pytest

from checker import Lattice, Model, Objective

WORDS = ["a", "b", "c", "d"]
LABELS = ["x", "y", "z"]
Q = np.array([
    [0.4, 0.3, 0.2, 0.1],
    [0.1, 0.2, 0.3, 0.4],
    [0.25, 0.25, 0.25, 0.25],
])
# spoken -> {observed: prob}; "d" has no row and keeps its identity
CHANNEL = {
    "a": {"a": 0.7, "b": 0.2, "c": 0.1},
    "b": {"a": 0.3, "b": 0.6, "c": 0.1},
    "c": {"c": 0.9, "b": 0.1},
}
# cells as written; the tie in the third bin is broken by model word order
BINS = [
    [("a", 0.6), ("b", 0.3)],
    [("c", 1.0)],
    [("c", 0.4), ("b", 0.4), ("a", 0.1)],
    [("d", 0.5), ("a", 0.45)],
]


@pytest.fixture
def files(tmp_path):
    topics = tmp_path / "topics.model"
    lines = [f"TOPICS {len(LABELS)} {len(WORDS)}"]
    for label, row in zip(LABELS, Q):
        lines.append(f"TOPIC {label}")
        lines += [f"{w} {float(p)!r}" for w, p in zip(WORDS, row)]
    topics.write_text("\n".join(lines) + "\n")
    chan = tmp_path / "channel.model"
    entries = sorted((w, v, p) for w, row in CHANNEL.items() for v, p in row.items())
    chan.write_text(f"CHANNEL {len(entries)}\n" + "".join(f"{w} {v} {p}\n" for w, v, p in entries))
    cnet = tmp_path / "c.cnet"
    body = ["CONV c", f"NET u1 {len(BINS)}"]
    body += ["BIN " + " ".join(f"{w}:{p}" for w, p in cells) for cells in BINS]
    cnet.write_text("\n".join(body) + "\n")
    model = Model(str(topics), str(chan))
    return model, Lattice(str(cnet), model)


def brute_objective(lam, use_tf):
    """The objective straight from its definition, one bin at a time."""
    total = 0.0
    for cells in BINS:
        order = sorted(cells, key=lambda c: (-c[1], WORDS.index(c[0])))
        q = {w: sum(lam[t] * Q[t, WORDS.index(w)] for t in range(len(lam))) for w, _ in order}
        norm = sum(q.values())

        def p_obs(v):
            return sum(q[w] / norm * CHANNEL.get(w, {w: 1.0}).get(v, 0.0) for w in q)

        if use_tf:
            total += sum(s * math.log(p_obs(v)) for v, s in order)
        else:
            total += math.log(p_obs(order[0][0]))
    return total


def softmax(mu):
    e = np.exp(mu - mu.max())
    return e / e.sum()


@pytest.mark.parametrize("use_tf", [False, True])
@pytest.mark.parametrize("lam", [[0.2, 0.5, 0.3], [0.9, 0.05, 0.05], [1 / 3] * 3])
def test_objective_and_gradient_match_brute_force(files, use_tf, lam):
    model, lat = files
    obj = Objective(lat, model, use_tf)
    lam = np.array(lam)
    assert obj.value(lam) == pytest.approx(brute_objective(lam, use_tf), rel=1e-12)
    # the objective does not depend on the scale of the weights
    assert obj.value(3.0 * lam) == pytest.approx(obj.value(lam), rel=1e-12)

    mu = np.log(lam)
    h = 1e-6
    fd = np.array([
        (brute_objective(softmax(mu + h * e), use_tf)
         - brute_objective(softmax(mu - h * e), use_tf)) / (2 * h)
        for e in np.eye(len(lam))
    ])
    np.testing.assert_allclose(obj.grad_mu(lam), fd, atol=1e-8)


def test_parsers_and_counts(files):
    model, lat = files
    assert model.labels == LABELS and model.words == WORDS
    np.testing.assert_allclose(model.Q, Q, rtol=1e-15)
    assert lat.cid == "c" and lat.bins == 4
    # canonical order: the tied cells of the third bin come out as b, c
    assert [model.words[w] for w in lat.words] == ["a", "b", "c", "b", "c", "a", "d", "a"]
    assert lat.pairs == 4 + 1 + 9 + 4
    ids = np.array([0, 3, 3, 2])
    np.testing.assert_allclose(model.channel(ids, np.array([1, 3, 0, 1])), [0.2, 1.0, 0.0, 0.1], atol=1e-15)

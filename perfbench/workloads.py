"""Workload definitions shared by ``gen.py`` and ``run.py``.

Each workload fixes a topic model, a channel and a design of true mixture
weights, as a deployed system adapts many conversations against one
trained model; ``--seed`` draws the conversations themselves.  Fixing the
weight design keeps the mix of easy (interior) and slow (near-boundary)
fits the same from seed to seed, so the run-to-run spread measures the
program and the machine rather than the luck of the draw.
"""

from __future__ import annotations

from dataclasses import dataclass

TOL = "1e-9"
MAX_ITERS = "20000"
# Each conversation is fitted with conf-1best first: fresh starts repeat the
# workload's first operation, and conf-1best iterations cost about a quarter
# of conf-tf's, so the seed-to-seed change in its iteration count moves
# setup_s less.
VARIANTS = ("conf-1best", "conf-tf")
TOPIC_SHARPNESS = 0.1
CHANNEL_NOISE = 0.4
# draws the true weights of workloads that give none explicitly
DESIGN_SEED = 1303


@dataclass(frozen=True)
class Workload:
    name: str
    topics: int
    vocab_size: int
    # bins of each conversation; the number of entries is the number of
    # conversations drawn per seed
    bins: tuple
    bin_width: int
    # conversations per `cnadapt adapt <dir>` operation; 0 means file mode
    per_dir: int = 0
    # prune each bin to a skewed width with corpus.prune_bin(b, 0.0, k)
    ragged: bool = False
    spec_seed: int = 424
    # explicit true weights per conversation; None draws Dirichlet(1)
    # vectors under DESIGN_SEED
    weights: tuple | None = None
    # fresh interpreters timed for setup_s per run, the measured one included
    setup_starts: int = 5

    @property
    def conversations(self) -> int:
        return len(self.bins)

    @property
    def dir_mode(self) -> bool:
        return self.per_dir > 0


WORKLOADS = {
    w.name: w
    for w in (
        # The A3 acceptance spec: loads are ~1 ms, so parsing, the workspace
        # build and the EM iterations carry the time.
        # The weights run from even to one topic at 75%: the closer a weight
        # is to 0, the more iterations EM needs, so the operation times form
        # one continuum rather than a fast conf-1best cluster and a slow
        # conf-tf one with their median in the gap.
        Workload("a3-fit", topics=3, vocab_size=50, bins=(5000,) * 8, bin_width=10,
                 weights=((0.34, 0.33, 0.33), (0.5, 0.3, 0.2), (0.12, 0.5, 0.38),
                          (0.4, 0.45, 0.15), (0.62, 0.08, 0.3), (0.25, 0.7, 0.05),
                          (0.85, 0.1, 0.05), (0.03, 0.22, 0.75))),
        # Paper-like vocabulary with a 500k-entry channel and short
        # conversations: per-conversation model parsing dominates.
        # Its first operation takes about 7 s, so it times three fresh starts,
        # not five, to keep a run near a minute.
        Workload("bigvocab-dir", topics=20, vocab_size=50000, bins=(500,) * 4,
                 bin_width=10, per_dir=2, spec_seed=5148, setup_starts=3),
        # Width-40 cohorts pruned to mostly 1-4 cells with a few wide bins,
        # so the wide bins own most of the k^2 channel pairs.  Lengths vary
        # 3:1, as real conversations do; with one length the conf-1best and
        # conf-tf times form two clusters and their median falls in the gap.
        # Twelve conversations make one round about as long as a run, as on
        # the other workloads.  With six, a round took 7 s on a fast machine
        # and 9.6 s on a slow one, so a 14 s run held two rounds or one.
        Workload("wide-ragged", topics=10, vocab_size=2000,
                 bins=(1500, 2000, 2500, 3000, 3500, 4500) * 2, bin_width=40,
                 ragged=True, spec_seed=2013),
    )
}


def ragged_width(rng, max_width: int) -> int:
    """Skewed bin width: 1-4 cells for nine bins in ten, else 5..max_width."""
    if rng.random() < 0.9:
        return int(rng.integers(1, 5))
    return int(rng.integers(5, max_width + 1))


def conversation_index(seed: int, k: int) -> int:
    """Synth conversation index of slot ``k`` under ``seed``."""
    return seed * 1000 + k


def cnet_path(wl: Workload, k: int) -> str:
    """Where slot ``k``'s CNET sits inside a seed's input directory."""
    return f"d{k // wl.per_dir}/c{k}.cnet" if wl.dir_mode else f"c{k}.cnet"

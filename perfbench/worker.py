"""The measured process: runs `cnadapt adapt` operations in-process.

Usage: python3 perfbench/worker.py <plan.json> <result.json>

Started from a fresh interpreter with ``src`` on the path and BLAS pinned
to one thread.  It imports ``cnadapt.cli``, runs the plan's first
operation and prints ``READY`` on its own standard output; ``run.py``
times set-up from process start to that line.  With ``"first_only"`` the
plan ends there.  Otherwise it runs the whole number of rounds of the
plan's operations (at least one) whose operation time comes closest to
``seconds``, and writes per-operation wall times and its peak resident
memory to <result.json>.

With ``"trace"`` every operation runs twice, once bare and once with the
layer functions wrapped, in alternating order, so that the median
traced-minus-bare difference is the tracing overhead.  Spans (name, start,
end, operation) are kept in memory and written out with the result.  Right
after each traced fit, ``adapt.loglik_conf`` is timed at the fitted
weights (the workspace build plus one kernel evaluation); that time is
taken out of the operation's.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def thread_count() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


class Tracer:
    """Wraps the layer functions at the names the CLI calls them by."""

    def __init__(self, cli, adapt, topics):
        self.spans = []
        self.op = None
        self.eval_seconds = 0.0
        self.adapt = adapt
        self.targets = [
            (topics, "load_topic_model", "topics.load"),
            (cli, "load_channel", "channel.load"),
            (cli, "load_conversation", "corpus.parse"),
            (cli, "write_lambda_file", "cli.write_lambda"),
            (cli, "write_unigram_file", "cli.write_unigram"),
            (adapt, "fit", "adapt.fit"),
        ]
        self.originals = [getattr(owner, attr) for owner, attr, _ in self.targets]

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            end = time.perf_counter()
            span = {"name": name, "start": start, "end": end, "op": self.op}
            self.spans.append(span)
            if name == "corpus.parse":
                span["path"] = os.fspath(args[0])
            elif name == "adapt.fit":
                span["cid"] = args[0].cid
                span["variant"] = args[2].variant
                span["eval_s"] = self._evaluate(args, kwargs, out)
            return out
        return traced

    def _evaluate(self, args, kwargs, result):
        """Time loglik_conf at the fitted weights; this time is taken
        out of the operation's, and the call keeps every object's
        lifetime as it is in a bare run."""
        conv, tm, cfg = args[:3]
        cm = args[3] if len(args) > 3 else kwargs.get("cm")
        start = time.perf_counter()
        self.adapt.loglik_conf(conv, tm, result.weights.lam, cm, cfg.variant == "conf-tf")
        end = time.perf_counter()
        self.spans.append({"name": "adapt.eval", "start": start, "end": end,
                           "op": self.op, "cid": conv.cid})
        self.eval_seconds += end - start
        return end - start

    @contextlib.contextmanager
    def active(self, op):
        self.op = op
        self.eval_seconds = 0.0
        for (owner, attr, name), fn in zip(self.targets, self.originals):
            setattr(owner, attr, self._wrap(fn, name))
        try:
            yield
        finally:
            for (owner, attr, _), fn in zip(self.targets, self.originals):
                setattr(owner, attr, fn)


def run_op(cli, op, out_dir) -> tuple[float, int]:
    """Wall time and exit code of one operation; an exception that escapes
    ``cli.main`` is logged and counts as exit code -1, a failed operation."""
    os.makedirs(out_dir, exist_ok=True)
    argv = [a.replace("{out}", out_dir) for a in op["argv"]]
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # noqa: BLE001 - any escape is one failed operation
        traceback.print_exc()
        rc = -1
    return time.perf_counter() - start, rc


def main(plan_path, result_path) -> int:
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    ready = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    # the CLI's own progress lines go to the log, not to run.py's pipe
    sys.stdout = open(plan["log"], "a", encoding="utf-8")

    from cnadapt import adapt, cli, topics

    ops = plan["ops"]
    first_time, first_rc = run_op(cli, ops[0], plan["first_out"])
    ready.write("READY\n")
    ready.flush()
    records = [{"op": 0, "round": -1, "traced": False, "seconds": first_time, "rc": first_rc}]
    if plan.get("first_only"):
        return 0

    tracer = Tracer(cli, adapt, topics) if plan.get("trace") else None
    elapsed = 0.0
    rounds = 0
    # whole rounds, as many as bring the operation time closest to seconds
    while rounds == 0 or plan["seconds"] - elapsed > elapsed / rounds / 2:
        for i, op in enumerate(ops):
            out_dir = os.path.join(plan["out"], f"r{rounds}", f"op{i}")
            modes = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
            for traced in modes:
                if traced:
                    with tracer.active(len(records)):
                        seconds, rc = run_op(cli, op, out_dir)
                    seconds -= tracer.eval_seconds
                else:
                    seconds, rc = run_op(cli, op, out_dir)
                records.append({"op": i, "round": rounds, "traced": traced,
                                "seconds": seconds, "rc": rc})
                elapsed += seconds
        rounds += 1
    result = {
        "records": records,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": thread_count(),
        "spans": tracer.spans if tracer else [],
        "cnadapt": os.path.dirname(cli.__file__),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

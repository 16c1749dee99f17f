"""Layered benchmark of `cnadapt adapt`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload a3-fit --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --compare --runs 10          # two sets of runs

One run generates the workload's inputs from the seed in a separate
process, times set-up over fresh interpreters, runs whole rounds of
operations in one measured process, checks every output against the
benchmark's own reference computations and prints the metrics, the last
line being one JSON object.  ``--trace 1`` runs the traced variant and
reports the per-layer metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# before numpy loads anywhere: one BLAS/OpenMP thread in every process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import filecmp  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import checker  # noqa: E402
from workloads import MAX_ITERS, TOL, VARIANTS, WORKLOADS, cnet_path  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
STATE = ".perfbench"
TAIL_BEYOND = 10  # operations a reported tail percentile must leave beyond it
DEADLINE = 170.0  # seconds one run may take, generation included


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def remaining(start):
    left = DEADLINE - (time.perf_counter() - start)
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE:.0f} s")
    return left


# ---------------------------------------------------------------- inputs

def ensure_inputs(wl, seed, start):
    # keyed by the workload's definition, so an edited workload never
    # reuses inputs generated for the old one
    key = hashlib.sha1(repr(wl).encode()).hexdigest()[:10]
    base = os.path.join(STATE, "inputs", f"{wl.name}-{key}")
    model_dir = os.path.join(base, "model")
    seed_dir = os.path.join(base, f"seed-{seed}")
    if not (os.path.isdir(model_dir) and os.path.isdir(seed_dir)):
        os.makedirs(base, exist_ok=True)
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), wl.name, str(seed), model_dir, seed_dir],
            env=child_env(), check=True, timeout=remaining(start),
        )
    return model_dir, seed_dir


def build_plan(wl, model_dir, seed_dir):
    """Operations of one round, alternating the two confusion variants.

    File mode fits every conversation with both.  Directory mode, where
    model loading carries the time, fits each directory once, so that a
    round stays within a run's time.
    """
    topics_path = os.path.join(model_dir, "topics.model")
    channel_path = os.path.join(model_dir, "channel.model")
    common = ["--channel", channel_path, "--tol", TOL, "--max-iters", MAX_ITERS]
    cnets = [os.path.join(seed_dir, cnet_path(wl, k)) for k in range(wl.conversations)]
    ops = []
    if wl.dir_mode:
        for j in range(wl.conversations // wl.per_dir):
            v = VARIANTS[j % len(VARIANTS)]
            ops.append({
                "argv": ["adapt", os.path.join(seed_dir, f"d{j}"), topics_path, "{out}/fits",
                         "--variant", v, *common, "--out-unigram"],
                "variant": v,
                "dir_mode": True,
                "convs": [(p, os.path.join("fits", f"c{k}"))
                          for k, p in enumerate(cnets) if k // wl.per_dir == j],
            })
    else:
        for path in cnets:
            for v in VARIANTS:
                ops.append({
                    "argv": ["adapt", path, topics_path, "{out}/fit.lambda", "--variant", v,
                             *common, "--out-unigram", "{out}/fit.unigram"],
                    "variant": v,
                    "dir_mode": False,
                    "convs": [(path, "fit")],
                })
    return topics_path, channel_path, ops


# ---------------------------------------------------------------- processes

def start_worker(plan, run_dir, tag, start):
    plan_path = os.path.join(run_dir, f"plan-{tag}.json")
    result_path = os.path.join(run_dir, f"result-{tag}.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    with open(plan["log"], "a", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
            env=child_env(), stdout=subprocess.PIPE, stderr=log, text=True,
        )
    try:
        line = ""
        if select.select([proc.stdout], [], [], remaining(start))[0]:
            line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.stdout.close()
        proc.wait(timeout=remaining(start))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}; see {plan['log']}")
    return setup, result_path


# ---------------------------------------------------------------- checks

class Checked:
    def __init__(self):
        self.facts = {}  # (op index, cnet path) -> checker facts
        self.errors = []
        self.failed = 0
        self.attempted = 0


OUTPUT_SUFFIXES = (".lambda", ".lambda.diag.json", ".unigram")


def expected_files(op, out_dir):
    files = [os.path.join(out_dir, stem + suf) for _, stem in op["convs"] for suf in OUTPUT_SUFFIXES]
    if op["dir_mode"]:
        files.append(os.path.join(out_dir, "fits", "manifest.json"))
    return files


def check_run(ops, records, run_dir, model, lattices, truths, checked, setup_dirs):
    for rec in records:
        checked.attempted += 1
        op = ops[rec["op"]]
        out = (os.path.join(run_dir, "out", f"r{rec['round']}", f"op{rec['op']}")
               if rec["round"] >= 0 else None)
        if rec["rc"] != 0:
            checked.failed += 1
            continue
        dirs = [out] if out else setup_dirs
        missing = [f for d in dirs for f in expected_files(op, d) if not os.path.isfile(f)]
        if missing:
            checked.failed += 1
            checked.errors.append(f"missing {missing[0]}")
            continue
        if rec["round"] != 0:
            continue
        for path, stem in op["convs"]:
            lat = lattices[path]
            try:
                checked.facts[(rec["op"], path)] = checker.check_fit(
                    lat, model, op["variant"], os.path.join(out, stem + ".lambda"),
                    os.path.join(out, stem + ".unigram"), truths[lat.cid],
                )
            except (ValueError, KeyError, OSError) as exc:
                checked.errors.append(str(exc))
    # every later round, and every fresh start's first operation, must
    # reproduce round 0 byte for byte
    reference = os.path.join(run_dir, "out", "r0")
    for rec in records:
        if rec["round"] == 0 or rec["rc"] != 0:
            continue
        op = ops[rec["op"]]
        ref = os.path.join(reference, f"op{rec['op']}")
        dirs = ([os.path.join(run_dir, "out", f"r{rec['round']}", f"op{rec['op']}")]
                if rec["round"] > 0 else setup_dirs)
        for d in dirs:
            for _, stem in op["convs"]:
                for suf in OUTPUT_SUFFIXES:
                    a, b = os.path.join(ref, stem + suf), os.path.join(d, stem + suf)
                    try:
                        same = filecmp.cmp(a, b, shallow=False)
                    except OSError:
                        continue  # a missing file is already counted above
                    if not same:
                        checked.errors.append(f"{b} differs from {a}")


# ---------------------------------------------------------------- metrics

def tail(values):
    """Highest percentile with TAIL_BEYOND values beyond it, or None."""
    n = len(values)
    if n < 4 * TAIL_BEYOND:
        return None
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def e2e_metrics(ops, records, setups, result, checked):
    timed = [r for r in records if r["round"] >= 0]
    seconds = [r["seconds"] for r in timed]
    convs = sum(len(ops[r["op"]]["convs"]) for r in timed)
    facts = checked.facts.values()
    logprob = sum(f["ref_logprob"] for f in facts)
    words = sum(f["ref_words"] for f in facts)
    if not words:
        raise BenchError("no operation wrote output that passed its checks")
    metrics = {
        "convs_per_s": (convs / sum(seconds), "1/s"),
        "op_p50_s": (statistics.median(seconds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ref_ppl": (math.exp(-logprob / words), "1"),
    }
    return metrics, tail(seconds), len(timed)


def layer_metrics(ops, records, result, checked, lattices):
    spans = result["spans"]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durations(name):
        return [s["end"] - s["start"] for s in by_name.get(name, [])]

    def median(name):
        d = durations(name)
        return statistics.median(d) if d else float("nan")

    fits = by_name.get("adapt.fit", [])
    path_of = {}
    for op_index, op in enumerate(ops):
        for path, _ in op["convs"]:
            path_of[(op_index, lattices[path].cid)] = path
    iter_ms = {}
    pair_work = 0.0
    iter_time = 0.0
    for s in fits:
        op_index = records[s["op"]]["op"]
        path = path_of[(op_index, s["cid"])]
        if (op_index, path) not in checked.facts:
            continue  # its output failed a check, which the run reports
        iters = checked.facts[(op_index, path)]["iterations"]
        busy = (s["end"] - s["start"]) - s["eval_s"]
        iter_ms.setdefault(s["variant"], []).append(1e3 * busy / iters)
        pair_work += lattices[path].pairs * iters
        iter_time += busy
    cells = sum(lattices[s["path"]].words.shape[0] for s in by_name.get("corpus.parse", []))
    child = {}
    for s in spans:
        if s["name"] != "adapt.eval":
            child[s["op"]] = child.get(s["op"], 0.0) + s["end"] - s["start"]
    traced = [(i, r) for i, r in enumerate(records) if r["traced"]]
    bare = {(r["round"], r["op"]): r["seconds"]
            for r in records if r["round"] >= 0 and not r["traced"]}
    iterations = {}
    for (op_index, _), f in checked.facts.items():
        iterations.setdefault(ops[op_index]["variant"], []).append(f["iterations"])
    metrics = {
        "corpus.parse_s": (median("corpus.parse"), "s"),
        "corpus.cells_per_s": (cells / sum(durations("corpus.parse")), "1/s"),
        "topics.load_s": (median("topics.load"), "s"),
        "topics.loads_per_conv": (len(durations("topics.load")) / len(fits), "count"),
        "channel.load_s": (median("channel.load"), "s"),
        "channel.loads_per_conv": (len(durations("channel.load")) / len(fits), "count"),
        "adapt.fit_s": (median("adapt.fit"), "s"),
        "adapt.eval_s": (median("adapt.eval"), "s"),
    }
    for v in ("conf-tf", "conf-1best"):
        metrics[f"adapt.iter_ms.{v}"] = (statistics.median(iter_ms[v]), "ms")
    for v in ("conf-tf", "conf-1best"):
        metrics[f"adapt.iterations.{v}"] = (statistics.median(iterations[v]), "count")
    metrics.update({
        "adapt.pairs_per_s": (pair_work / iter_time, "1/s"),
        "cli.write_unigram_s": (median("cli.write_unigram"), "s"),
        "cli.write_lambda_s": (median("cli.write_lambda"), "s"),
        "cli.self_s": (statistics.median(r["seconds"] - child.get(i, 0.0) for i, r in traced), "s"),
        "trace.overhead_s": (statistics.median(r["seconds"] - bare[(r["round"], r["op"])]
                                               for _, r in traced), "s"),
    })
    return metrics


# ---------------------------------------------------------------- one run

def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "cnadapt", "cli.py")):
        raise BenchError(f"{ROOT} is not a cnadapt checkout (no src/cnadapt/cli.py)")
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise BenchError("--seed must be >= 0")
    wl = WORKLOADS[workload]
    model_dir, seed_dir = ensure_inputs(wl, seed, start)
    topics_path, channel_path, ops = build_plan(wl, model_dir, seed_dir)

    run_dir = os.path.join(STATE, "runs", f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    log = os.path.join(run_dir, "worker.log")
    base_plan = {"ops": ops, "log": log, "seconds": seconds, "trace": trace}
    try:
        setups, setup_dirs = [], []

        def fresh_start(tag, **plan):
            first_out = os.path.join(run_dir, f"setup-{tag}")
            setup_dirs.append(first_out)
            setup, result_path = start_worker(dict(base_plan, first_out=first_out, **plan),
                                              run_dir, tag, start)
            setups.append(setup)
            return result_path

        # The machine's speed drifts over seconds, and starts close together
        # drift together; half the extra starts come after the measured
        # process, so that the median spans the whole run.
        extra = 0 if trace else wl.setup_starts - 1
        for j in range(extra // 2):
            fresh_start(f"{j}", first_only=True)
        result_path = fresh_start("main", out=os.path.join(run_dir, "out"))
        for j in range(extra // 2, extra):
            fresh_start(f"{j}", first_only=True)
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)

        model = checker.Model(topics_path, channel_path)
        lattices, truths = {}, {}
        for op in ops:
            for path, _ in op["convs"]:
                if path not in lattices:
                    lattices[path] = checker.Lattice(path, model)
        for name in os.listdir(os.path.join(seed_dir, "truth")):
            with open(os.path.join(seed_dir, "truth", name), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            truths[doc["cid"]] = doc
        checked = Checked()
        check_run(ops, result["records"], run_dir, model, lattices, truths, checked, setup_dirs)
        if result["threads"] > (os.cpu_count() or 1):
            checked.errors.append(f"measured process ran {result['threads']} threads")
        if os.path.realpath(result["cnadapt"]) != os.path.realpath(os.path.join(ROOT, "src", "cnadapt")):
            checked.errors.append(f"measured process imported cnadapt from {result['cnadapt']}")
        if trace:
            metrics = layer_metrics(ops, result["records"], result, checked, lattices)
        else:
            metrics, extra, n_timed = e2e_metrics(ops, result["records"], setups, result, checked)
        # per-operation times, set-up samples and spans, for later study
        os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
        with open(os.path.join(STATE, "results", f"{workload}-seed{seed}-trace{int(trace)}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(dict(result, setups=setups), fh)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = not checked.errors
    timed = sum(1 for r in result["records"] if r["round"] >= 0)
    print(f"workload {workload}, seed {seed}: {timed} timed operations in {result['rounds']} "
          f"round(s), {checked.attempted} attempted, {checked.failed} failed, "
          f"outputs {'correct' if correct else 'WRONG'}")
    for err in checked.errors[:10]:
        print(f"  check failed: {err}")
    if checked.facts:
        facts = checked.facts.values()
        print(f"  stationarity: max |dL/dmu| {max(f['grad'] for f in facts):.3g} nats per bin "
              f"(limit {checker.GRAD_TOL_PER_BIN}), objective above the true weights' by "
              f"{min(f['gap_to_truth'] for f in facts):.3g} nats or more")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    if not trace:
        if extra:
            print(f"  {'op_tail_s':<28} {extra[0]:.6g} s (p{extra[1]:.1f} of {n_timed})")
        else:
            print(f"  {'op_tail_s':<28} not reported: {n_timed} operations, a tail needs "
                  f"{4 * TAIL_BEYOND}")
    doc = {
        "correct": correct,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return doc


# ---------------------------------------------------------------- compare

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def compare(args):
    """Two sets of runs of the same code, reported against the bounds."""
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    report = {}
    ok = True
    for name in names:
        sets = []
        for s in range(2):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    capture_output=True, text=True, timeout=200,
                )
                if proc.returncode != 0:
                    raise BenchError(f"{name} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
                doc = json.loads(proc.stdout.strip().splitlines()[-1])
                runs.append(doc)
                print(f"{name} set {s + 1} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in doc["metrics"].items())
                    + f", failed {doc['failed']}/{doc['attempted']}, correct={doc['correct']}",
                    flush=True)
            sets.append(runs)
        report[name] = {}
        print(f"\n{name}: median [q1, q3] spread per set; shift of set 2 against set 1, + is worse")
        for m in bench["end_to_end"]:
            row = []
            for runs in sets:
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                med = statistics.median(vals)
                q1, q3 = quartiles(vals)
                row.append({"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med})
            sign = 1.0 if m["better"] == "lower" else -1.0
            shift = sign * (row[1]["median"] - row[0]["median"]) / row[0]["median"]
            verdict = all(r["spread"] <= m["bound"] for r in row) and abs(shift) <= m["bound"]
            ok &= verdict
            report[name][m["name"]] = {"sets": row, "shift": shift, "bound": m["bound"], "ok": verdict}
            cells = "  ".join(f"{r['median']:.5g} [{r['q1']:.5g}, {r['q3']:.5g}] {r['spread']:.3f}"
                              for r in row)
            print(f"  {m['name']:<12} {cells}  shift {shift:+.3f}  bound {m['bound']}  "
                  f"{'ok' if verdict else 'OUT OF BOUND'}")
        shares = [[r["failed"] / r["attempted"] for r in runs] for runs in sets]
        same = len({x for s in shares for x in s}) == 1
        ok &= same and all(r["correct"] for runs in sets for r in runs)
        print(f"  failed share per run: {sorted({x for s in shares for x in s})}"
              f"{'' if same else '  DIFFERS'}")
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    path = os.path.join(STATE, "results", f"compare-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"\n{'all within bounds' if ok else 'NOT within bounds'}; details in {path}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable in --compare mode)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", action="store_true",
                   help="run two sets of --runs runs per workload and report them against the bounds")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    try:
        if args.compare:
            return compare(args)
        if not args.workload or len(args.workload) != 1:
            p.error("give exactly one --workload")
        doc = run_once(args.workload[0], args.seed, args.seconds or load_benchmark()["run_seconds"],
                       bool(args.trace))
    except (BenchError, OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

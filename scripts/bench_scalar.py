"""Measure the scalar layer of two checkouts: end-to-end medians and counters.

    python3 scripts/bench_scalar.py --parent ../subext-parent --runs 10
    python3 scripts/bench_scalar.py --counters-only --workloads dvr-sweep \\
        --limit 2 --out counters.json

`--parent` is a second checkout of the commit to compare with (made with
`git archive` or `git clone`); the checkout holding this script is the
change.  Without `--parent` only the change is measured.  The first command
wrote the `BENCH_scalar.json` at the root of the repository.

Times: for each workload, `perfbench/run.py --trace 0` runs `--runs` times
on each checkout, for the `run_seconds` of `BENCHMARK.json`, alternating:
the parent goes first on even rounds and second on odd ones, so a slow
phase of the machine hits both sides.  Each end-to-end metric is recorded
per run and as the median of the runs, with each run's `failed` count,
`correct` flag and digest; with `--parent`, also the change over parent
ratio of the medians and the number of rounds in which the change read
lower.

Counters: one `perfbench/worker.py` pass per checkout and workload at
`--seed` under cProfile gives the call counts of `Scalar.__init__`,
`Scalar._norm` and `pgcd`.  They are deterministic, unlike the times.
`--limit N` makes the counter pass run only the first N verdicts.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import pstats
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("dvr-sweep", "ulrich-sweep", "artin-yoneda", "registry")
METRICS = ("wall_s", "verdict_p50_s", "verdict_tail_s", "setup_s",
           "peak_rss_mb")
# counter name -> (class or None, function name) in src/subext/dcoeff.py
COUNTED = {"Scalar.__init__": ("Scalar", "__init__"),
           "Scalar._norm": ("Scalar", "_norm"),
           "pgcd": (None, "pgcd")}
CHILD_TIMEOUT_S = 900


def _env(root):
    return dict(os.environ, PYTHONHASHSEED="0",
                PYTHONPATH=os.path.join(root, "src"))


def run_benchmark(root, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` run: metrics, failed count, digest."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: run.py printed nothing:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = next((ln.split()[1] for ln in lines if ln.startswith("digest ")),
                  None)
    return {"metrics": {k: result["metrics"][k]["value"] for k in METRICS},
            "failed": result["failed"], "correct": result["correct"],
            "digest": digest}


def _code_lines(root):
    """First line of each counted function in the checkout's dcoeff.py, as
    cProfile reports it: the line of the first decorator, if any."""
    path = os.path.join(root, "src", "subext", "dcoeff.py")
    with open(path) as f:
        tree = ast.parse(f.read())
    found = {}
    for node in tree.body:
        owner = node.name if isinstance(node, ast.ClassDef) else None
        for fn in (node.body if owner else [node]):
            if isinstance(fn, ast.FunctionDef):
                found[(owner, fn.name)] = min(
                    [fn.lineno] + [d.lineno for d in fn.decorator_list])
    return path, found


def count_calls(root, workload, seed, limit=None):
    """Call counts of the COUNTED functions in one cProfile'd worker pass."""
    with tempfile.TemporaryDirectory() as tmp:
        prof = os.path.join(tmp, "worker.prof")
        cmd = [sys.executable, "-m", "cProfile", "-o", prof,
               os.path.join(root, "perfbench", "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--t0", repr(time.monotonic())]
        if limit is not None:
            cmd += ["--limit", str(limit)]
        proc = subprocess.run(cmd, cwd=root, env=_env(root),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not os.path.exists(prof):
            raise RuntimeError(f"{root}: cProfile pass failed:\n"
                               f"{proc.stderr[-2000:]}")
        pass_result = json.loads(proc.stdout.strip().splitlines()[-1])
        stats = pstats.Stats(prof).stats
    path, lines = _code_lines(root)
    real = os.path.realpath(path)
    calls = {(lineno, func): ncalls
             for (fname, lineno, func), (_, ncalls, *_rest) in stats.items()
             if os.path.realpath(fname) == real}
    out = {name: calls.get((lines[key], key[1]), 0)
           for name, key in COUNTED.items()}
    out["verdicts"] = len(pass_result["latencies"])
    out["failed_verdicts"] = len(pass_result["failures"])
    out["digest"] = pass_result["digest"]
    return out


def _median_block(runs):
    return {k: {"median": statistics.median(r["metrics"][k] for r in runs),
                "runs": [r["metrics"][k] for r in runs]} for k in METRICS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the commit to compare with")
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                    choices=WORKLOADS)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--limit", type=int,
                    help="verdicts in each counter pass (default: all)")
    ap.add_argument("--counters-only", action="store_true")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_scalar.json"))
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    sides = {"change": ROOT}
    if args.parent:
        sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    report = {"topic": "scalar fast path", "seed": args.seed,
              "host": {"cpus": os.cpu_count(),
                       "python": platform.python_version()},
              "counters": {}, "times": {}}
    for workload in args.workloads:
        report["counters"][workload] = {
            side: count_calls(root, workload, args.seed, args.limit)
            for side, root in sides.items()}
        print(workload, json.dumps(report["counters"][workload]),
              file=sys.stderr, flush=True)
    if not args.counters_only:
        report["runs"], report["seconds"] = args.runs, seconds
        for workload in args.workloads:
            runs = {side: [] for side in sides}
            for i in range(args.runs):
                order = list(sides) if i % 2 == 0 else list(sides)[::-1]
                for side in order:
                    runs[side].append(run_benchmark(
                        sides[side], workload, args.seed, seconds))
            entry = {}
            for side, rs in runs.items():
                entry[side] = _median_block(rs)
                entry[side]["failed"] = [r["failed"] for r in rs]
                entry[side]["correct"] = [r["correct"] for r in rs]
                entry[side]["digests"] = sorted({r["digest"] for r in rs})
            if "parent" in entry:
                entry["change_over_parent"] = {
                    k: entry["change"][k]["median"] / entry["parent"][k]["median"]
                    for k in METRICS}
                # rounds in which the change read lower than the parent
                entry["change_lower_rounds"] = {
                    k: sum(c < p for c, p in zip(entry["change"][k]["runs"],
                                                 entry["parent"][k]["runs"]))
                    for k in METRICS}
            report["times"][workload] = entry
            print(workload, json.dumps(entry.get("change_over_parent", {})),
                  file=sys.stderr, flush=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

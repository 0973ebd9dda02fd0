"""The subext benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload dvr-sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout (the directory holding `src/`).
Workloads: dvr-sweep, ulrich-sweep, artin-yoneda, registry (see
perfbench/README.md).  Load is a closed loop: one client, one thread, each
verdict starting after the previous one ends.

With `--trace 0` the command starts fresh worker processes, one after the
other, each building the seed's inputs and running all their verdicts,
until `--seconds` is used up (at least one).  It reports medians over these
passes: `wall_s` (one pass), `verdict_p50_s` and `verdict_tail_s` (over the
per-verdict median latencies), `setup_s` (process start until the inputs
are built; set-up-only passes top the sample up to seven) and `peak_rss_mb`.

With `--trace 1` it runs one untraced pass and one traced pass of the same
inputs and reports the per-layer metrics of the traced pass; its
`trace.overhead_frac` compares the two wall times.  Spans are written to
`.perfbench/spans-<workload>-<seed>.csv.gz`.

Every pass must produce the same digest of verdict outputs; a failed check,
an exception or a digest mismatch makes the command print `correct: false`
and exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402  (no subext import)

WORKLOADS = ("dvr-sweep", "ulrich-sweep", "artin-yoneda", "registry")
END_TO_END = (("wall_s", "s"), ("verdict_p50_s", "s"),
              ("verdict_tail_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _worker(root, args, extra=()):
    """Run one fresh worker process and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.inject_oracle_error:
        cmd.append("--inject-oracle-error")
    cmd.extend(extra)
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(root, "src"))
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=root, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def say(line):
    print(line, flush=True)


def tail_index(n):
    """Index, in ascending order, of the highest percentile that has at
    least ten verdicts beyond it (the maximum when there are ten or fewer),
    with that percentile."""
    i = max(n - 11, 0) if n > 10 else n - 1
    return i, 100.0 * (i + 1) / n


def _tally(passes):
    """(verdicts attempted, verdicts failed, failures, distinct digests)."""
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    return attempted, len(failures), failures, {p["digest"] for p in passes}


def run_untraced(root, args):
    start = time.monotonic()
    _worker(root, args, ["--setup-only"])        # warm-up, not counted
    passes, setups, took = [], [], []
    while True:
        t = time.monotonic()
        res = _worker(root, args)
        took.append(time.monotonic() - t)
        passes.append(res)
        setups.append(res["setup_s"])
        # start another pass only if one more is expected to fit
        if time.monotonic() - start + statistics.median(took) > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(root, args, ["--setup-only"])["setup_s"])

    nverd = len(passes[0]["latencies"])
    per_verdict = sorted(statistics.median(p["latencies"][i] for p in passes)
                         for i in range(nverd))
    ti, pct = tail_index(nverd)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "verdict_p50_s": statistics.median(per_verdict),
        "verdict_tail_s": per_verdict[ti],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    attempted, failed, failures, digests = _tally(passes)
    for name, unit in END_TO_END:
        say(f"{name} {metrics[name]:.6f} {unit}")
    say(f"failed_frac {failed / attempted:.6f} ({failed}/{attempted} verdicts)")
    say("pass wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    say(f"verdict_tail_s is p{pct:.1f} of {nverd} verdicts "
        f"(per-verdict medians over {len(passes)} passes); "
        f"setup_s is the median of {len(setups)} set-ups")
    say(f"strata {json.dumps(passes[0]['strata'])}")
    say(f"digest {passes[0]['digest']}")
    return metrics, attempted, failed, failures, digests


def run_traced(root, args):
    plain = _worker(root, args)
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    spans = os.path.join(root, ".perfbench",
                         f"spans-{args.workload}-{args.seed}.csv.gz")
    traced = _worker(root, args, ["--trace", "--spans-out", spans])
    metrics = dict(traced["layer_metrics"])
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    attempted, failed, failures, digests = _tally([plain, traced])
    for name, unit in PER_LAYER:
        say(f"{name} {metrics[name]:.6g} {unit}")
    say(f"counts {json.dumps(traced['counts'], sort_keys=True)}")
    say(f"digest {traced['digest']}")
    say(f"spans written to {os.path.relpath(spans, root)}")
    return metrics, attempted, failed, failures, digests


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-oracle-error", action="store_true",
                    help="make one oracle value wrong (self-test only)")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "subext", "__init__.py")):
        print("Error: run from the root of a subext checkout "
              "(src/subext not found)", file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, attempted, failed, failures, digests = \
                run_traced(root, args)
            units = dict(PER_LAYER)
        else:
            metrics, attempted, failed, failures, digests = \
                run_untraced(root, args)
            units = dict(END_TO_END)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 2
    for label, errs in failures[:10]:
        print(f"FAILED {label}: {'; '.join(errs)[:500]}", file=sys.stderr)
    if len(digests) != 1:
        print("Error: passes over the same inputs gave different outputs",
              file=sys.stderr)
    correct = failed == 0 and len(digests) == 1
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

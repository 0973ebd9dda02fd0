"""Measure the scalar layer of two checkouts: end-to-end medians and counters.

    python3 scripts/bench_scalar.py --parent ../subext-parent --runs 10 \\
        --out BENCH_tables.json
    python3 scripts/bench_scalar.py --counters-only --workloads dvr-sweep \\
        --limit 2 --out counters.json

`--parent` is a second checkout of the commit to compare with (made with
`git archive` or `git clone`); the checkout holding this script is the
change.  Without `--parent` only the change is measured.  Commands like the
first one wrote the `BENCH_*.json` files at the root of the repository.

Times: for each workload, `perfbench/run.py --trace 0` runs `--runs` times
on each checkout, for the `run_seconds` of `BENCHMARK.json`, alternating:
the parent goes first on even rounds and second on odd ones, so a slow
phase of the machine hits both sides.  Each end-to-end metric is recorded
per run and as the median and quartiles of the runs, with each run's
`failed` count, `correct` flag and digest; with `--parent`, also the change
over parent ratio of the medians and the number of rounds in which the
change read lower.

Counters: one `perfbench/worker.py` pass per checkout and workload at
`--seed`, run in a child process under cProfile, gives the call counts of
the engine functions named in COUNTED: in `subext.dcoeff`,
`Scalar.__init__`, the Scalar builders that bypass the operation table
`Base.scalar` and `Base.poly`, `Scalar._norm`, `pgcd`, `pmul`, `smith`
(every call) and `_eliminate` (the eliminations it runs, `eliminations`),
`Subquotient.__init__`, the transform replays on blocks of columns
`SNF.u_block`, `SNF.uinv_block` and `SNF.v_block`, `Mat.__matmul__` and the
copying `Mat.__init__` (the builders that keep fresh rows bypass it); in
`subext.modules`, `CoeffModule.__init__` (every module built),
`CoeffModule.basis_action`, `CoeffModule.rel` (every call) and
`CoeffModule._relations` (the builds behind it),
`CoeffModule.element_action` (every call) and
`CoeffModule._element_action` (the actions computed,
`element_actions_computed`), `hom` (every call, cache hits included) and
`ModMap.is_r_linear`; `ext.middle` (every call), `ExtClass.cocycle` (the
middles built, `middles_built`: each build lifts one cocycle),
`ext.pushout_seq`, `SES.certify` and `ext.classify`; `NumFn.__call__`
(every call) and `NumFn._value` (the values computed); `ulrich.multiplicity`,
`ulrich.multiplicity_hilbert` and `ulrich.is_ulrich`; and the orbit
machinery of `ext.sweep`: `ext.orbit_actions` (a generator, so cProfile
counts one call per action matrix asked for, plus one for each generator
that runs to its end) and `modules.automorphisms` (every call, kept
values included).  A function the engine lacks reads null: on an engine
that keeps no relation matrix, NumFn value, element action or Smith form,
every call is a build.  Next to them, `replay_walks` counts the walks over a recorded
operation list (one per block replay, or one per vector replay on an
engine without blocks) and `replay_columns` the columns those walks
carried, by wrapping the replay methods for the pass.  After the pass,
with the pass's verdicts (and so its rings and shared modules) still held,
the child collects garbage and counts the `CoeffModule`s alive
(`live_modules`): what the engine's caches keep beyond the inputs.  On an engine
whose `Base` has an operation table, the child also counts the table's
lookups and entries (the hit rate is 1 - entries/lookups); on one whose
`Base` keeps Smith forms, it counts that table's lookups and entries
apart, as `form_table_*`.  `bases_built` counts the `Base`s constructed
(`Base.__init__`): one per ring on an engine whose rings have private
bases, one per live coefficient ring on one whose rings share them.
They are deterministic, unlike the times.  `--limit N` makes the counter
pass run only the first N verdicts.

Middles: without `--limit`, one more child per checkout runs each of the
28 scenarios once, `run_scenario(name, 0)`, under cProfile and records the
`ext.middle` calls of each scenario and their total (`scenario_middles`),
and the middles each one built (`ExtClass.cocycle` calls) and their total.
This covers the six scenarios that the `registry` workload leaves out
(`uliso`, `uladd`, `axioms-ul`, `prop1-ulrich`, `dvr-mu` and `loewy`).

Bytecode: before anything is run, a timed measurement refuses a checkout
that holds a `__pycache__` under `src/` or `perfbench/`, with an `Error:`
line naming it and exit status 2, since bytecode that is stale for some
files makes one side compile them in every worker while the other loads
them, which moves `setup_s` and `peak_rss_mb`.  Every child runs with
`PYTHONDONTWRITEBYTECODE=1`, so measuring leaves no bytecode behind.
Counters do not depend on bytecode, so `--counters-only` checks nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import dataclasses
import gc
import importlib
import io
import json
import os
import platform
import pstats
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("dvr-sweep", "ulrich-sweep", "artin-yoneda", "registry")
METRICS = ("wall_s", "verdict_p50_s", "verdict_tail_s", "setup_s",
           "peak_rss_mb")
# counter name -> (engine module, class or None, function name)
COUNTED = {"Scalar.__init__": ("dcoeff", "Scalar", "__init__"),
           "Base.scalar": ("dcoeff", "Base", "scalar"),
           "Base.poly": ("dcoeff", "Base", "poly"),
           "Scalar._norm": ("dcoeff", "Scalar", "_norm"),
           "pgcd": ("dcoeff", None, "pgcd"),
           "pmul": ("dcoeff", None, "pmul"),
           "smith": ("dcoeff", None, "smith"),
           "eliminations": ("dcoeff", None, "_eliminate"),
           "Subquotient.__init__": ("dcoeff", "Subquotient", "__init__"),
           "SNF.u_block": ("dcoeff", "SNF", "u_block"),
           "SNF.uinv_block": ("dcoeff", "SNF", "uinv_block"),
           "SNF.v_block": ("dcoeff", "SNF", "v_block"),
           "Mat.__matmul__": ("dcoeff", "Mat", "__matmul__"),
           "Mat.__init__": ("dcoeff", "Mat", "__init__"),
           "CoeffModule.__init__": ("modules", "CoeffModule", "__init__"),
           "CoeffModule.basis_action": ("modules", "CoeffModule",
                                        "basis_action"),
           "CoeffModule.rel": ("modules", "CoeffModule", "rel"),
           "CoeffModule._relations": ("modules", "CoeffModule",
                                      "_relations"),
           "CoeffModule.element_action": ("modules", "CoeffModule",
                                          "element_action"),
           "element_actions_computed": ("modules", "CoeffModule",
                                        "_element_action"),
           "modules.hom": ("modules", None, "hom"),
           "ModMap.is_r_linear": ("modules", "ModMap", "is_r_linear"),
           "ext.middle": ("ext", None, "middle"),
           "middles_built": ("ext", "ExtClass", "cocycle"),
           "ext.pushout_seq": ("ext", None, "pushout_seq"),
           "SES.certify": ("ext", "SES", "certify"),
           "ext.classify": ("ext", None, "classify"),
           "NumFn.__call__": ("subfun", "NumFn", "__call__"),
           "NumFn._value": ("subfun", "NumFn", "_value"),
           "ulrich.multiplicity": ("ulrich", None, "multiplicity"),
           "ulrich.multiplicity_hilbert": ("ulrich", None,
                                           "multiplicity_hilbert"),
           "ulrich.is_ulrich": ("ulrich", None, "is_ulrich"),
           "ext.orbit_actions": ("ext", None, "orbit_actions"),
           "modules.automorphisms": ("modules", None, "automorphisms")}
# Base table field -> the prefix of its lookup, entry and hit-rate counters
TABLES = {"_ops": "table", "_forms": "form_table"}
# the SNF replay methods: over blocks of columns, or over one vector on an
# engine without blocks
BLOCK_REPLAYS = ("u_block", "uinv_block", "v_block")
VECTOR_REPLAYS = ("u", "uinv", "v")
ENGINE = ("dcoeff", "rings", "modules", "ext", "subfun", "ulrich",
          "scenarios", "workspace", "cli")
CHILD_TIMEOUT_S = 900


def _env(root):
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=os.path.join(root, "src"))


def bytecode_dir(root):
    """The first `__pycache__` directory under root's src/ or perfbench/,
    or None."""
    for top in ("src", "perfbench"):
        for dirpath, dirnames, _ in sorted(os.walk(os.path.join(root, top))):
            if "__pycache__" in dirnames:
                return os.path.join(dirpath, "__pycache__")
    return None


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


def count_calls(root, workload, seed, limit=None):
    """The counters of one worker pass of the checkout at root, from a
    child process that runs counter_pass."""
    cmd = [sys.executable, os.path.abspath(__file__), "--counter-pass",
           "--workloads", workload, "--seed", str(seed)]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: counter pass failed:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counter_pass(root, workload, seed, limit):
    """In this process: one cProfile'd `worker.py` pass of the engine on
    sys.path, with the Bases built and their table lookups/entries
    counted by a wrapper installed before any Base exists.  A counted function the engine lacks reads
    None."""
    engine = {name: importlib.import_module("subext." + name)
              for name in ENGINE}
    dcoeff = engine["dcoeff"]
    codes = {}
    for name, (module, owner, fn) in COUNTED.items():
        home = engine[module]
        f = getattr(getattr(home, owner, None) if owner else home, fn, None)
        codes[name] = getattr(f, "__code__", None)
    fields = {f.name for f in dataclasses.fields(dcoeff.Base)}
    tables = [name for name in TABLES if name in fields]
    seen = {name: {"lookups": 0, "entries": 0} for name in tables}

    def counting_table(counts):
        class CountingTable(dict):
            def get(self, key, default=None):
                counts["lookups"] += 1
                return dict.get(self, key, default)

            def __setitem__(self, key, value):
                counts["entries"] += 1
                dict.__setitem__(self, key, value)
        return CountingTable

    base_init = dcoeff.Base.__init__
    kinds = {name: counting_table(seen[name]) for name in tables}
    bases = {"bases_built": 0}

    def counted_init(self, *args, **kwargs):
        bases["bases_built"] += 1
        base_init(self, *args, **kwargs)
        for name, kind in kinds.items():  # entries made at init kept
            object.__setattr__(self, name, kind(getattr(self, name)))
    dcoeff.Base.__init__ = counted_init

    replays = {"replay_walks": 0, "replay_columns": 0}

    def counting_replay(replay, blocks):
        def counted(self, arg):
            replays["replay_walks"] += 1
            replays["replay_columns"] += arg.n if blocks else 1
            return replay(self, arg)
        return counted

    blocks = hasattr(dcoeff.SNF, BLOCK_REPLAYS[0])
    for meth in BLOCK_REPLAYS if blocks else VECTOR_REPLAYS:
        setattr(dcoeff.SNF, meth,
                counting_replay(getattr(dcoeff.SNF, meth), blocks))

    sys.path.insert(0, os.path.join(root, "perfbench"))
    import worker
    import workloads
    built = []  # the pass's verdicts, held until the live modules are counted
    build = workloads.build

    def kept_build(*args):
        built.append(build(*args))
        return built[-1]
    workloads.build = kept_build
    argv = ["--workload", workload, "--seed", str(seed),
            "--t0", repr(time.monotonic())]
    if limit is not None:
        argv += ["--limit", str(limit)]
    prof = cProfile.Profile()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        prof.runcall(worker.main, argv)
    pass_result = json.loads(printed.getvalue().strip().splitlines()[-1])
    stats = pstats.Stats(prof).stats
    out = {name: None if c is None else
           stats.get((c.co_filename, c.co_firstlineno, c.co_name), (0, 0))[1]
           for name, c in codes.items()}
    out.update(replays)
    out.update(bases)
    for name in tables:
        prefix, counts = TABLES[name], seen[name]
        out[prefix + "_lookups"] = counts["lookups"]
        out[prefix + "_entries"] = counts["entries"]
        out[prefix + "_hit_rate"] = (1 - counts["entries"] / counts["lookups"]
                                     if counts["lookups"] else None)
    gc.collect()
    module_cls = engine["modules"].CoeffModule
    out["live_modules"] = sum(isinstance(o, module_cls)
                              for o in gc.get_objects())
    out["verdicts"] = len(pass_result["latencies"])
    out["failed_verdicts"] = len(pass_result["failures"])
    out["digest"] = pass_result["digest"]
    return out


def count_scenario_middles(root):
    """The ext.middle calls and the middles built of each scenario at seed
    0 and their totals, from a child process that runs scenario_pass in the
    checkout at root."""
    cmd = [sys.executable, os.path.abspath(__file__), "--scenario-pass"]
    proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: scenario pass failed:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scenario_pass():
    """In this process: each scenario of the engine on sys.path, run once
    at seed 0 under its own cProfile, its ext.middle call count and its
    ExtClass.cocycle call count (the middles built)."""
    ext = importlib.import_module("subext.ext")
    scenarios = importlib.import_module("subext.scenarios")
    keys = [(c.co_filename, c.co_firstlineno, c.co_name)
            for c in (ext.middle.__code__, ext.ExtClass.cocycle.__code__)]
    calls, built = {}, {}
    for name in scenarios.list_scenarios():
        prof = cProfile.Profile()
        prof.runcall(scenarios.run_scenario, name, 0)
        stats = pstats.Stats(prof).stats
        calls[name], built[name] = (stats.get(k, (0, 0))[1] for k in keys)
    return {"per_scenario": calls, "total": sum(calls.values()),
            "built_per_scenario": built, "built_total": sum(built.values())}


def _median_block(runs):
    out = {}
    for k in METRICS:
        values = [r["metrics"][k] for r in runs]
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else values * 3)
        out[k] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                  "runs": values}
    return out


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
    ap.add_argument("--counter-pass", action="store_true",
                    help="internal: run one counter pass of the first "
                         "workload in this process and print its counters")
    ap.add_argument("--scenario-pass", action="store_true",
                    help="internal: count the middles of every scenario in "
                         "this process and print them")
    ap.add_argument("--topic", default="scalar layer")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_scalar.json"))
    args = ap.parse_args(argv)
    if args.counter_pass:
        print(json.dumps(counter_pass(os.getcwd(), args.workloads[0],
                                      args.seed, args.limit)))
        return 0
    if args.scenario_pass:
        print(json.dumps(scenario_pass()))
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    sides = {"change": ROOT}
    if args.parent:
        sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    if not args.counters_only:
        for root in sides.values():
            cache = bytecode_dir(root)
            if cache:
                print(f"Error: {cache} holds bytecode that may be stale; "
                      f"remove it before measuring times", file=sys.stderr)
                return 2
    report = {"topic": args.topic, "seed": args.seed,
              "host": {"cpus": os.cpu_count(),
                       "python": platform.python_version()},
              "counters": {}, "times": {}}
    if args.limit is None:
        report["scenario_middles"] = {side: count_scenario_middles(root)
                                      for side, root in sides.items()}
        print("scenario_middles", json.dumps(
            {side: [c["total"], c["built_total"]]
             for side, c in report["scenario_middles"].items()}),
            file=sys.stderr, flush=True)
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

"""One fresh benchmark process: build a workload's inputs, run its verdicts.

`run.py` starts this script once per measured pass, so every pass pays the
same start-up and finds no caches left by an earlier pass.  The script
prints one JSON object on its last line of standard output.

    python3 perfbench/worker.py --workload dvr-sweep --seed 1 --t0 <monotonic>

`--t0` is the parent's `time.monotonic()` just before it started this
process; `setup_s` is measured from it to the moment the inputs are built
(interpreter start, `import subext`, building rings, ideals and modules).
`--setup-only` stops after set-up; `--trace` installs the tracer before
the workload module binds any `subext` name.  Self-test options: `--limit
N` runs only the first N verdicts, `--cprofile` reports cProfile call
counts, `--inject-oracle-error` makes one oracle value wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _profile_counts(prof):
    """cProfile call counts of the functions the binding-site self-test
    compares with the tracer, keyed like the tracer's span keys."""
    import pstats
    from subext import dcoeff, ext
    codes = {"dcoeff.smith": dcoeff.smith.__code__,
             "ext.middle": ext.middle.__code__,
             "dcoeff.Subquotient.__init__": dcoeff.Subquotient.__init__.__code__}
    stats = pstats.Stats(prof).stats
    return {key: stats.get((c.co_filename, c.co_firstlineno, c.co_name),
                           (0, 0))[1]
            for key, c in codes.items()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--limit", type=int)
    ap.add_argument("--cprofile", action="store_true")
    ap.add_argument("--inject-oracle-error", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    prof = None
    if args.cprofile:
        import cProfile
        prof = cProfile.Profile()
        prof.enable()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    import workloads
    verdicts = workloads.build(args.workload, args.seed,
                               args.inject_oracle_error)
    if args.limit is not None:
        verdicts = verdicts[:args.limit]
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "strata": workloads.strata(verdicts)}
    if not args.setup_only:
        latencies = []
        t_start = time.perf_counter()
        for v in verdicts:
            t = time.perf_counter()
            v.run()
            latencies.append(time.perf_counter() - t)
        wall = time.perf_counter() - t_start
        if prof is not None:
            prof.disable()
            out["profile_counts"] = _profile_counts(prof)
        out.update({
            "wall_s": wall,
            "latencies": latencies,
            "failures": [[v.label, v.failures] for v in verdicts
                         if v.failures],
            "digest": workloads.digest(verdicts),
        })
        if tracer is not None:
            out["counts"] = tracer.counts()
            out["layer_metrics"] = tracer.metrics()
            out["sites"] = tracer.sites
            if args.spans_out:
                tracer.write_spans(args.spans_out)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

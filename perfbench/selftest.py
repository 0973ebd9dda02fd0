"""Self-tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

- binding sites: on a short slice of dvr-sweep and ulrich-sweep, the
  tracer's call counts for `smith`, `middle` and `Subquotient.__init__`
  equal cProfile's counts in an untraced process, and every traced entry
  point was patched at one binding site at least;
- oracle negative control: one deliberately wrong oracle value is counted
  as a failed verdict and makes `run.py` exit nonzero;
- determinism: a short traced run repeated gives the same digest and the
  same counts, and two seeds give the same number of verdicts per stratum
  on every workload.

Exits 0 when every test passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKER = os.path.join(HERE, "worker.py")
COMPARED = ("dcoeff.smith", "ext.middle", "dcoeff.Subquotient.__init__")


def _run(cmd):
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)


def worker(workload, seed, *extra):
    proc = _run([sys.executable, WORKER, "--workload", workload,
                 "--seed", str(seed), "--t0", repr(time.monotonic()),
                 *extra])
    if proc.returncode != 0:
        raise AssertionError(f"worker failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_binding_sites():
    for workload, limit in (("dvr-sweep", "8"), ("ulrich-sweep", "4")):
        prof = worker(workload, 1, "--limit", limit, "--cprofile")
        traced = worker(workload, 1, "--limit", limit, "--trace")
        for key in COMPARED:
            want = prof["profile_counts"][key]
            got = traced["counts"].get(key, 0)
            assert want > 0, f"{workload}: cProfile saw no call of {key}"
            assert got == want, f"{workload}: tracer {key}={got}, cProfile {want}"
        unpatched = [k for k, n in traced["sites"].items() if n < 1]
        assert not unpatched, f"entry points never patched: {unpatched}"
    return "tracer counts match cProfile for " + ", ".join(COMPARED)


def test_oracle_negative_control():
    proc = _run([sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", "dvr-sweep", "--seed", "1", "--seconds", "1",
                 "--inject-oracle-error"])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode != 0, "a wrong oracle value did not fail the run"
    assert not result["correct"], "a wrong oracle value left correct=true"
    assert result["failed"] >= 1, "the mismatch was not counted as failed"
    frac = result["failed"] / result["attempted"]
    return f"wrong oracle gives exit {proc.returncode}, failed_frac {frac:.4f}"


def test_determinism():
    a = worker("dvr-sweep", 3, "--limit", "10", "--trace")
    b = worker("dvr-sweep", 3, "--limit", "10", "--trace")
    assert a["digest"] == b["digest"], "same seed, different digests"
    assert a["counts"] == b["counts"], "same seed, different counts"
    for workload in ("dvr-sweep", "ulrich-sweep", "artin-yoneda", "registry"):
        s1 = worker(workload, 1, "--setup-only")["strata"]
        s2 = worker(workload, 2, "--setup-only")["strata"]
        assert s1 == s2, f"{workload}: strata differ between seeds"
    return "same seed repeats digest and counts; strata fixed across seeds"


def main():
    ok = True
    for test in (test_binding_sites, test_oracle_negative_control,
                 test_determinism):
        try:
            print(f"PASS {test.__name__}: {test()}", flush=True)
        except AssertionError as exc:
            ok = False
            print(f"FAIL {test.__name__}: {exc}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The measurement tooling still runs against the engine.

`perfbench/tracer.py` wraps each name in its FUNCTIONS and METHODS tables
at run time.  Deleting or renaming one of those names in the engine, or
binding two table entries to one function object, breaks a traced run; the
first test makes the same lookups without patching anything.  The next
ones run the counter part of `scripts/bench_scalar.py` on two-verdict
slices and check how its counters relate, pin its Base count on a whole
`ulrich-sweep` pass, and check that it refuses to time a checkout holding
bytecode; one runs a traced
`perfbench/worker.py` pass against a plain one.  The last ones keep the engine's
imports honest and its options in use.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve_to_distinct_attributes():
    tracer = _load_tracer()
    seen = {}
    for layer, names in tracer.FUNCTIONS.items():
        home = importlib.import_module("subext." + layer)
        for name in names:
            obj = getattr(home, name, None)
            assert callable(obj), f"subext.{layer}.{name} is missing"
            assert obj.__module__ == home.__name__, (
                f"subext.{layer}.{name} is defined in {obj.__module__}")
            other = seen.setdefault(id(obj), f"{layer}.{name}")
            assert other == f"{layer}.{name}", (
                f"{layer}.{name} is the same object as {other}")
    for layer, classes in tracer.METHODS.items():
        home = importlib.import_module("subext." + layer)
        for cname, meths in classes.items():
            cls = getattr(home, cname, None)
            assert isinstance(cls, type), f"subext.{layer}.{cname} is missing"
            for meth in meths:
                assert callable(cls.__dict__.get(meth)), (
                    f"{cname}.{meth} is not defined on subext.{layer}.{cname}")


def test_bench_scalar_counters_on_a_slice(tmp_path):
    out = tmp_path / "counters.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_scalar.py"),
                    "--counters-only", "--workloads", "dvr-sweep",
                    "--limit", "2", "--out", str(out)],
                   check=True, timeout=300, capture_output=True)
    counts = json.loads(out.read_text())["counters"]["dvr-sweep"]["change"]
    assert counts["verdicts"] == 2 and counts["failed_verdicts"] == 0
    # every Scalar is built by __init__, and _norm runs at most once per
    # build; only the fraction route calls pgcd, once per _norm at most
    assert counts["Scalar.__init__"] > 0
    assert counts["Scalar.__init__"] >= counts["Scalar._norm"] >= counts["pgcd"]
    assert counts["pmul"] > 0 and counts["Subquotient.__init__"] > 0
    # each Subquotient runs at least one smith, and the transforms are
    # applied by replaying the recorded operations over blocks of columns
    assert counts["smith"] >= counts["Subquotient.__init__"]
    assert counts["SNF.u_block"] > 0 and counts["SNF.uinv_block"] > 0
    assert counts["SNF.v_block"] > 0
    assert counts["replay_walks"] == (counts["SNF.u_block"]
                                      + counts["SNF.uinv_block"]
                                      + counts["SNF.v_block"])
    assert counts["replay_columns"] > counts["replay_walks"]
    # the dvr-mu verdicts certify every middle they build
    assert counts["SES.certify"] == counts["ext.middle"] > 0
    # every table entry follows a missed lookup
    assert 0 < counts["table_entries"] <= counts["table_lookups"]
    assert counts["table_hit_rate"] == pytest.approx(
        1 - counts["table_entries"] / counts["table_lookups"])
    # a hit returns the stored Scalar and builds none: a Scalar is built
    # only on a miss (whose entry holds it), by Base.scalar or Base.poly, or
    # as a new Base's zero and one (made before the table is counted); a
    # miss of reduce_mod stores a canonical Scalar that may exist already,
    # so entries can outnumber the builds behind them
    assert counts["Scalar.__init__"] <= (
        counts["table_entries"] + counts["Base.scalar"] + counts["Base.poly"]
        + 2 * counts["bases_built"])
    # the D-scalar generator is structure: certify, subquotients and free
    # covers make no products by t or by 1 (370 on this slice when they did)
    assert counts["Mat.__matmul__"] <= 142


def test_bench_scalar_ulrich_counters_on_a_slice(tmp_path):
    out = tmp_path / "counters.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_scalar.py"),
                    "--counters-only", "--workloads", "ulrich-sweep",
                    "--limit", "2", "--out", str(out)],
                   check=True, timeout=300, capture_output=True)
    counts = json.loads(out.read_text())["counters"]["ulrich-sweep"]["change"]
    assert counts["verdicts"] == 2 and counts["failed_verdicts"] == 0
    # the Ulrich-middle predicate takes e_I once per Ext group, from its
    # first MCM middle, so no other middle goes through either route
    assert counts["ext.middle"] > 0
    assert (counts["ulrich.multiplicity_hilbert"]
            <= counts["ulrich.multiplicity"] <= 2 * counts["verdicts"])


def test_bench_scalar_artin_counters_on_a_slice(tmp_path):
    out = tmp_path / "counters.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_scalar.py"),
                    "--counters-only", "--workloads", "artin-yoneda",
                    "--limit", "2", "--out", str(out)],
                   check=True, timeout=300, capture_output=True)
    counts = json.loads(out.read_text())["counters"]["artin-yoneda"]["change"]
    assert counts["verdicts"] == 2 and counts["failed_verdicts"] == 0
    assert counts["CoeffModule.__init__"] > 0
    assert counts["CoeffModule.basis_action"] > 0
    assert counts["Mat.__matmul__"] > 0
    # every middle is a pushout of its group's presentation sequence, and
    # every pushout builds its middle module
    assert counts["ext.pushout_seq"] >= counts["ext.middle"] > 0
    assert counts["CoeffModule.__init__"] > counts["ext.pushout_seq"]
    # an element's action is computed once per module and kept
    assert (0 < counts["element_actions_computed"]
            < counts["CoeffModule.element_action"])


def _bench_scalar():
    spec = importlib.util.spec_from_file_location(
        "bench_scalar", ROOT / "scripts" / "bench_scalar.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_scalar_ulrich_pass_builds_one_base_per_coefficient_ring():
    counts = _bench_scalar().count_calls(str(ROOT), "ulrich-sweep", 7)
    assert counts["verdicts"] == 24 and counts["failed_verdicts"] == 0
    # its semigroup rings and their blow-ups lie over F_2[t]_(t) and
    # F_3[t]_(t), and all of them live to the end of the pass
    assert counts["bases_built"] == 2
    assert 0 < counts["eliminations"] <= 216
    assert counts["form_table_entries"] == counts["eliminations"]


@pytest.mark.parametrize("top", ["src/subext", "perfbench"])
def test_bench_scalar_refuses_a_checkout_holding_bytecode(tmp_path, top):
    bench = _bench_scalar()
    parent = tmp_path / "parent"
    (parent / "src" / "subext").mkdir(parents=True)
    (parent / "perfbench").mkdir()
    assert bench.bytecode_dir(str(parent)) is None
    cache = parent / top / "__pycache__"
    cache.mkdir()
    assert bench.bytecode_dir(str(parent)) == str(cache)
    out = tmp_path / "times.json"
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_scalar.py"),
         "--parent", str(parent), "--workloads", "dvr-sweep", "--runs", "1",
         "--limit", "1", "--out", str(out)],
        timeout=300, capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stderr.startswith(f"Error: {cache} ")
    assert not out.exists()


def _worker(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", "artin-yoneda", "--seed", "7", "--limit", "3",
         "--t0", str(time.monotonic()), *args],
        check=True, timeout=300, capture_output=True, text=True, env=env)
    return json.loads(run.stdout.splitlines()[-1])


def test_traced_worker_pass_matches_the_untraced_one():
    # the tracer keys NumFn calls by their kind and payload and patches the
    # engine's bindings; a traced pass must do the same work as a plain one
    plain, traced = _worker(), _worker("--trace")
    assert plain["failures"] == traced["failures"] == []
    assert traced["digest"] == plain["digest"]
    assert traced["counts"]["subfun.NumFn.__call__"] > 0


def _unused_imports(source):
    """Names a module imports and never mentions again."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_finder_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom a import b, c as d, e\n"
              "def f():\n    from g import h\n    return os.sep, d\n")
    assert _unused_imports(source) == [(3, "b"), (3, "e"), (5, "h")]


def test_src_has_no_unused_imports():
    found = {path.name: _unused_imports(path.read_text())
             for path in sorted((ROOT / "src" / "subext").glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def _unset_defaults(sources):
    """'name(param)' for each defaulted parameter of a def in the sources
    that no call in them passes, by keyword or by position.  A call is
    matched by the called name (a class name for __init__), a method's
    positions start after self, and click commands are skipped."""
    defs, calls = [], {}

    def collect(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                collect(node.body, node.name)
            elif isinstance(node, ast.FunctionDef):
                if any(isinstance(d, ast.Call)
                       and isinstance(d.func, ast.Attribute)
                       and d.func.attr == "command"
                       for d in node.decorator_list):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                args = node.args
                pos = args.posonlyargs + args.args
                first = len(pos) - len(args.defaults)
                shift = 1 if cls and not static else 0
                qual = f"{cls}.{node.name}" if cls else node.name
                callee = cls if node.name == "__init__" else node.name
                defs.extend((qual, callee, pos[i].arg, i - shift)
                            for i in range(first, len(pos)))
                defs.extend((qual, callee, a.arg, None) for a, d in
                            zip(args.kwonlyargs, args.kw_defaults) if d)
                collect(node.body, None)

    for source in sources:
        tree = ast.parse(source)
        collect(tree.body, None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def passes(call, param, index):
        return (any(k.arg in (param, None) for k in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or (index is not None and len(call.args) > index))

    return sorted(f"{qual}({param})" for qual, callee, param, index in defs
                  if not any(passes(c, param, index)
                             for c in calls.get(callee, [])))


def test_unset_default_finder_flags_only_unset_parameters():
    source = ("import click\n"
              "def f(a, b=1, c=2, *, d=3): pass\n"
              "class K:\n"
              "    def __init__(self, x=0, y=0): pass\n"
              "    def m(self, u=0, v=0): pass\n"
              "    @staticmethod\n"
              "    def s(w=0): pass\n"
              "@click.command()\n"
              "def cmd(opt=None): pass\n"
              "f(0, 1)\nK(1).m(v=2)\nK.s(1)\n")
    assert _unset_defaults([source]) == ["K.__init__(y)", "K.m(u)", "f(c)",
                                         "f(d)"]


def test_src_sets_every_option_it_declares():
    # the three left are set by the tests only, and the tracer pins them
    sources = [path.read_text()
               for path in sorted((ROOT / "src" / "subext").glob("*.py"))]
    assert _unset_defaults(sources) == [
        "Base.scalar(den)", "FracIdeal.contains_element(elem_den)",
        "ulrich_samples(I)", "ulrich_samples(powers)"]

"""Data kept on modules: values of one module on that module, values of a
pair on the younger of the two.

Laws on the generated groups of `tests/test_orbits.py`: the value a
`NumFn` or `tensor_length` keeps on a module equals a fresh computation on
a rebuilt copy of it, and a raised error is not kept.  Memory: after
`half_exact_agreement` for `Hom(k, -)` and `Hom(-, k)` over every class of
an artin group, the shared residue field keys nothing by a middle, and no
middle outlives its class; a class builds its middle once and keeps it.
Gate: the `NumFn` values computed by `halfexact` and by the first
`artin-yoneda` verdict, the modules still alive after that verdict and the
eliminations it runs stay pinned.
"""

import gc
import json
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, given, settings

import subext.subfun
from subext.errors import SubextError
from subext.ext import ExtClass, enumerate_classes, ext, middle
from subext.modules import CoeffModule, residue_field
from subext.rings import FracIdeal, m_ideal
from subext.scenarios import _sg, run_scenario
from subext.subfun import (fn_colength, fn_hom_from, fn_hom_to, fn_mu,
                           fn_tensor, fn_tor_mult, half_exact_agreement,
                           tensor_length)
from test_orbits import orbit_groups

ROOT = Path(__file__).resolve().parents[1]


def _rebuilt(X):
    """A module equal to X with nothing kept on it."""
    return CoeffModule(X.handle, X.exps, X.actions)


@given(orbit_groups())
@settings(max_examples=25, deadline=None)
def test_kept_values_equal_fresh_ones(case):
    h, M, N = case
    k = residue_field(h)
    fns = [fn_mu(), fn_colength(m_ideal(h)), fn_hom_from(k), fn_hom_to(k),
           fn_tensor(k)]
    pres = ext(M, N, 1)
    for X in [M, N] + [middle(c).B for c in enumerate_classes(pres)[:3]]:
        first = [fn(X) for fn in fns] + [tensor_length(X, k)]
        again = [fn(X) for fn in fns] + [tensor_length(X, k)]
        Y = _rebuilt(X)
        assert first == again == [fn(Y) for fn in fns] + [tensor_length(Y, k)]


def test_kept_values_are_computed_once(monkeypatch):
    h = _sg(3, 2, 3)
    X, fn = residue_field(h), fn_colength(m_ideal(h))
    calls = []
    value = subext.subfun.NumFn._value
    monkeypatch.setattr(subext.subfun.NumFn, "_value",
                        lambda self, M: calls.append(M) or value(self, M))
    assert fn(X) == fn(X) == 1
    # an equal ideal built again is another payload
    assert fn_colength(FracIdeal(h, h.m_gens()))(X) == 1
    assert len(calls) == 2


def test_a_raised_error_is_not_kept():
    h = _sg(3, 2, 3)
    k = residue_field(h)  # not MCM: Tor multiplicity is undefined on it
    fn = fn_tor_mult(m_ideal(h))
    for _ in range(2):
        with pytest.raises(SubextError, match="MCM modules only"):
            fn(k)
    assert not [key for key in k._cache
                if isinstance(key, tuple) and key[0] == "numfn"]


# ---------------------------------------------------------------------------
# pair data lives on the younger module
# ---------------------------------------------------------------------------


def _modules_in(key):
    return [x for x in (key if isinstance(key, tuple) else (key,))
            if isinstance(x, CoeffModule)]


def _hom_sweep(h, M, N):
    """half_exact_agreement for Hom(k, -) and Hom(-, k) on the middle of
    every class; the serials of the middles and the keys of k's cache that
    name one of them."""
    k = residue_field(h)
    serials = set()
    for cls in enumerate_classes(ext(M, N, 1)):
        ses = middle(cls)
        serials.add(ses.B.serial)
        for fn in (fn_hom_from(k), fn_hom_to(k)):
            half_exact_agreement(fn, ses)
    return serials, [key for key in k._cache
                     if any(X.serial in serials for X in _modules_in(key))]


@given(orbit_groups())
@settings(max_examples=15, deadline=None)
def test_the_residue_field_keeps_no_middle_alive(case):
    h, M, N = case
    assume(not h.base.local)
    serials, keyed = _hom_sweep(h, M, N)
    assert keyed == []
    gc.collect()
    assert not [X for X in gc.get_objects()
                if isinstance(X, CoeffModule) and X.serial in serials]


def test_a_class_keeps_the_middle_it_built_for_its_life():
    h = _sg(3, 2, 3)
    k = residue_field(h)
    pres = ext(k, k, 1)
    cls = enumerate_classes(pres)[-1]
    ses = middle(cls)
    assert middle(cls) is ses
    again = ExtClass(pres, cls.coords)  # an equal class builds its own
    assert again == cls and middle(again) is not ses
    assert middle(again).B.serial != ses.B.serial
    kept = weakref.ref(ses)
    del ses, cls
    gc.collect()
    assert kept() is None


# ---------------------------------------------------------------------------
# counter gate
# ---------------------------------------------------------------------------


def test_halfexact_values_computed_stay_pinned(monkeypatch):
    computed = 0
    value = subext.subfun.NumFn._value

    def counted(self, M):
        nonlocal computed
        computed += 1
        return value(self, M)
    monkeypatch.setattr(subext.subfun.NumFn, "_value", counted)
    assert run_scenario("halfexact", 0).status == "pass"
    assert 0 < computed <= 705  # 1,995 NumFn calls, each a value before


def test_first_artin_verdict_counters_stay_pinned(tmp_path):
    out = tmp_path / "counters.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_scalar.py"),
                    "--counters-only", "--workloads", "artin-yoneda",
                    "--limit", "1", "--out", str(out)],
                   check=True, timeout=300, capture_output=True)
    counts = json.loads(out.read_text())["counters"]["artin-yoneda"]["change"]
    assert counts["verdicts"] == 1 and counts["failed_verdicts"] == 0
    # of 30 NumFn calls, the ends' values are computed once per group
    assert 0 < counts["NumFn._value"] <= 15 < counts["NumFn.__call__"]
    # 42 modules stayed alive when the shared k kept its Hom entries
    assert 0 < counts["live_modules"] <= 34
    # of 157 smith calls, each an elimination before the Base kept its forms
    assert 0 < counts["eliminations"] <= 56 < counts["smith"]
    assert counts["form_table_entries"] == counts["eliminations"]

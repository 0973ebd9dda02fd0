"""One module per content in each ring.

`subquotient_module` and `direct_sum` hand out the live module of their
ring that has the exponents and actions they computed, so every value kept
on a module serves every construction that arrives at equal content.

Laws on the generated groups of `tests/test_orbits.py` (DVR, semigroup and
artin rings), over the middles of their classes, a pushout, a pullback, a
Baer sum, Hom and a sum: two returns are the same object exactly when their
contents are equal; a shared module has the NumFn values, Hom and Ext
exponents and Betti numbers of a rebuilt copy with nothing kept on it; and
the answers are the same with the collector left alone, switched off, or
run after every step.  Negative control: modules that differ from a shared
one in a single denominator or a single action entry stay distinct.
"""

import contextlib
import gc

from hypothesis import given, settings

import subext.modules
from subext.dcoeff import Scalar
from subext.ext import (ExtClass, baer_sum_by_construction, classify,
                        enumerate_classes, ext, middle, pullback_seq,
                        pushout_seq)
from subext.modules import (CoeffModule, ModMap, direct_sum,
                            from_fractional_ideal, hom, invariant_factors,
                            regular_module, resolution, residue_field)
from subext.rings import build_ring, m_ideal
from subext.scenarios import _sg
from subext.subfun import (fn_colength, fn_hom_from, fn_hom_to, fn_mu,
                           fn_tensor)
from test_modcache import _rebuilt
from test_orbits import _artin, _cyclic, _dvr, orbit_groups

MAX_MIDDLES = 4  # middles of the first classes, before the constructions


@contextlib.contextmanager
def recorded_returns():
    """Every module subquotient_module and direct_sum return inside, kept
    alive until the block ends."""
    seen, real = [], subext.modules._shared

    def recording(M):
        seen.append(real(M))
        return seen[-1]
    subext.modules._shared = recording
    try:
        yield seen
    finally:
        subext.modules._shared = real


def _content(X):
    return (X.exps, tuple(tuple(tuple(row) for row in X.actions[g].rows)
                          for g in X.handle.gen_names))


def _fns(h):
    k = residue_field(h)
    return [fn_mu(), fn_colength(m_ideal(h)), fn_hom_from(k), fn_hom_to(k),
            fn_tensor(k)]


def _run(h, M, N, after_step=lambda: None):
    """The classes and NumFn values of the middles of the first classes of
    Ext^1(M, N), of the middle of a class equal to the last one, of its
    pushout and its pullback along the first ring generator and of the Baer
    sum of two classes, then the exponents of Hom(M, N) and M + N; each
    class is checked against the coordinate route.  after_step runs after
    each construction."""
    fns = _fns(h)
    pres = ext(M, N, 1)
    classes = enumerate_classes(pres)
    c1, c2 = classes[-1], classes[len(classes) // 2]
    r = h.m_gens()[0]
    steps = [(c, lambda c=c: middle(c)) for c in classes[:MAX_MIDDLES]] + [
        (c1, lambda: middle(ExtClass(pres, c1.coords))),
        (c1.scale(r), lambda: pushout_seq(
            middle(c1), ModMap(N, N, N.element_action(r)))),
        (c1.scale(r), lambda: pullback_seq(
            middle(c1), ModMap(M, M, M.element_action(r)))),
        (c1 + c2, lambda: baer_sum_by_construction(middle(c1), middle(c2)))]
    answers = []
    for expected, step in steps:
        ses = step()
        assert classify(ses, pres) == expected
        answers.append((expected.coords, [fn(ses.B) for fn in fns]))
        after_step()
    answers.append((hom(M, N).module.exps, direct_sum([M, N])[0].exps))
    after_step()
    return answers


def _invariants(X):
    k = residue_field(X.handle)
    return ([fn(X) for fn in _fns(X.handle)]
            + [invariant_factors(hom(X, k).module),
               invariant_factors(hom(k, X).module),
               invariant_factors(ext(X, k, 1).module),
               invariant_factors(ext(k, X, 1).module),
               resolution(X, 2).betti[:3]])


@given(orbit_groups())
@settings(max_examples=20, deadline=None)
def test_returns_are_one_object_exactly_when_contents_are_equal(case):
    h, M, N = case
    with recorded_returns() as seen:
        _run(h, M, N)
        ids = {}  # content -> the ids of the modules returned with it
        for X in seen:
            ids.setdefault(_content(X), set()).add(id(X))
        assert all(len(v) == 1 for v in ids.values())
        assert len(set().union(*ids.values())) == len(ids)
        assert len(ids) < len(seen)  # the equal class's middle, at least


@given(orbit_groups())
@settings(max_examples=15, deadline=None)
def test_shared_modules_have_the_invariants_of_rebuilt_ones(case):
    h, M, N = case
    with recorded_returns() as seen:
        _run(h, M, N)
        counts = {}
        for X in seen:
            counts[id(X)] = counts.get(id(X), 0) + 1
        shared = list({id(X): X for X in seen
                       if counts[id(X)] > 1}.values())[:6]
        assert shared
        for X in shared:
            assert _invariants(X) == _invariants(_rebuilt(X))


@given(orbit_groups())
@settings(max_examples=15, deadline=None)
def test_answers_do_not_depend_on_the_collector(case):
    h, M, N = case
    out = []
    for mode in ("default", "disabled", "each step"):
        h2 = build_ring(h.spec)  # a ring of its own: nothing kept before
        residue_field(h2)
        if mode == "disabled":
            gc.disable()
        try:
            out.append(_run(h2, _rebuilt(M, h2), _rebuilt(N, h2),
                            gc.collect if mode == "each step" else
                            lambda: None))
        finally:
            gc.enable()
    assert out[0] == out[1] == out[2] == _run(h, M, N)


def _variants(X, g):
    """Copies of X whose action of g differs from X's in one entry, the
    first nonzero entry of a free row (or of any row over a field base):
    in its denominator alone where the base is local, and by adding 1."""
    base = X.handle.base
    rows = X.actions[g].rows
    r, c = next((r, c) for r in range(X.n) for c in range(X.n)
                if rows[r][c].num and (X.exps[r] is None))
    a = rows[r][c]
    changed = [a + base.one()]
    if base.local:
        changed.append(next(
            s for s in (Scalar(base, a.num, den) for den in
                        ((1, 1), (1, 0, 1), (1, 1, 1)))
            if s.num == a.num and s.den != a.den))
    out = []
    for b in changed:
        actions = dict(X.actions)
        new = [list(row) for row in rows]
        new[r][c] = b
        actions[g] = X.actions[g].with_rows(new)
        out.append(CoeffModule(X.handle, X.exps, actions))
    return out


def test_modules_differing_in_one_den_or_one_entry_stay_distinct():
    dvr, sg = _dvr(2), _sg(3, 2, 3)
    cases = [(direct_sum([regular_module(dvr), _cyclic(dvr, 2)])[0], "t^1"),
             (from_fractional_ideal(sg, m_ideal(sg)), "t^3"),
             (from_fractional_ideal(sg, m_ideal(sg)), "t^2")]
    art = _artin("xy", [(2, 0), (0, 2)])
    R = regular_module(art)
    cases.append((direct_sum([R, R])[0], "x"))
    for X, g in cases:
        # a copy of X is X; one entry, or one den, makes another module
        assert direct_sum([_rebuilt(X)])[0] is X
        variants = _variants(X, g)
        assert len(variants) == (2 if X.handle.base.local else 1)
        shared = [direct_sum([Y])[0] for Y in variants]
        assert all(Y is not X for Y in shared)
        assert len({id(Y) for Y in shared}) == len(shared)
        assert [direct_sum([_rebuilt(Y)])[0] for Y in variants] == shared

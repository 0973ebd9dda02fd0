"""The D-scalar generator and the unit monomial are structure.

Over a dimension-1 ring the generator t^embed_exp, when it is one
(`RingHandle.scalar_gen`), is the scalar t of D, so it acts as t*I on every
module: `subquotient_module` sets that action instead of projecting it,
`hom` adds no linearity rows for it and `ModMap.is_r_linear` makes no
commutation products with it.  Laws on generated inputs (the groups of
`tests/test_orbits.py` over DVR and <2,b> rings, and pairs over blow-ups
that keep or drop t^embed_exp): every subquotient, sum, Hom, Ext and middle
has the action the old projection gives, which is t*I with reduced rows;
Hom has the exponents and the maps of the old system that kept the scalar
rows; and every map of every certified middle passes the old full
commutation check.  Guards: `validate_module` rejects a hand-built module
whose designated generator is not t*I, and one over a ring without a
designated generator whose generators do not multiply to t*I;
`is_r_linear` still rejects a map that fails the other generator or the
torsion; and the zero ring, where basis monomial 0 would not be 1, is
refused.
"""

import contextlib

import pytest
from hypothesis import assume, given, settings, strategies as st

import subext.ext
import subext.modules
from subext.dcoeff import Mat, in_span, preimage_all
from subext.errors import NotAModuleError, SubextError
from subext.ext import enumerate_classes, ext, group_order, middle
from subext.modules import (CoeffModule, ModMap, direct_sum, hom,
                            normalize_rows, power, regular_module,
                            residue_field, validate_module)
from subext.rings import RingSpec, blow_up, build_ring, m_ideal
from subext.scenarios import _sg
from test_orbits import MAX_CLASSES, _dvr, _pool, orbit_groups


def _t_identity(base, n):
    return Mat.identity(base, n).scale(base.t_power(1))


@st.composite
def scalar_groups(draw):
    """(handle, M, N) over a DVR or a <2,b> ring (orbit_groups), or over the
    blow-up of m of <2,3> (k[[t]] with D-scalar t^2, no scalar_gen) or of
    <2,5> (<2,3>, scalar_gen t^2)."""
    if draw(st.booleans()):
        case = draw(orbit_groups())
        assume(case[0].dim == 1)
        return case
    h0 = _sg(draw(st.sampled_from([2, 3])), 2, draw(st.sampled_from([3, 5])))
    h = blow_up(m_ideal(h0))[1]
    pool = _pool(h)
    M, N = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    assume(group_order(ext(M, N, 1)) <= MAX_CLASSES)
    return h, M, N


@contextlib.contextmanager
def recorded_subquotients():
    """Every subquotient_module call made inside, as (M, (E, sq, B))."""
    seen, real = [], subext.modules.subquotient_module

    def recording(M, top=None, bottom=()):
        out = real(M, top, bottom)
        seen.append((M, out))
        return out
    subext.modules.subquotient_module = recording
    subext.ext.subquotient_module = recording
    try:
        yield seen
    finally:
        subext.modules.subquotient_module = real
        subext.ext.subquotient_module = real


def _has_t_action(X):
    g = X.handle.scalar_gen
    return X.actions[g] == normalize_rows(X.exps, _t_identity(X.handle.base,
                                                              X.n))


def _old_hom_system(M, N):
    """The Hom system with the scalar generator's rows kept, as (P, K)."""
    base = M.handle.base
    nM, nN = M.n, N.n
    P = power(N, nM)
    conds = []
    for g in M.handle.gen_names:
        Ag = M.actions[g]
        C = Mat.zeros(base, P.n, P.n)
        for j in range(nM):
            for k in range(nM):
                if Ag.rows[k][j].num:
                    for i in range(nN):
                        C.rows[j * nN + i][k * nN + i] = Ag.rows[k][j]
        conds.append((C - P.actions[g], P.rel()))
    for j, e in enumerate(M.exps):
        if base.local and e is not None:
            T = Mat.zeros(base, nN, P.n)
            for i in range(nN):
                T.rows[i][j * nN + i] = base.t_power(e)
            conds.append((T, N.rel()))
    return P, preimage_all(base, P.n, conds)


def _old_is_r_linear(f):
    """Commutation with every generator, the scalar one included, and the
    torsion check."""
    for g in f.src.handle.gen_names:
        diff = (f.mat @ f.src.actions[g]) - (f.dst.actions[g] @ f.mat)
        if not ModMap(f.src, f.dst, diff).mat_is_rel():
            return False
    base = f.src.handle.base
    for j, e in enumerate(f.src.exps):
        if e is not None:
            col = [a * base.t_power(e) for a in f.mat.col(j)]
            if any(c.num for c in f.dst.reduce_vec(col)):
                return False
    return True


@given(scalar_groups())
@settings(max_examples=25, deadline=None)
def test_scalar_action_is_the_old_projection_and_t_times_identity(case):
    h, M, N = case
    with recorded_subquotients() as seen:
        S = direct_sum([M, N])[0]
        H = hom(M, N).module
        pres = ext(M, N, 1)
        ses = [middle(c) for c in enumerate_classes(pres)]
    g = h.scalar_gen
    if g is None:
        assert h.family == "blowup" and f"t^{h.embed_exp}" not in h.gen_names
        return
    for X in [S, H, pres.module] + [s.B for s in ses]:
        assert _has_t_action(X)
    for A, (E, sq, B) in seen:
        old = normalize_rows(E.exps, sq.project_cols(A.actions[g] @ B))
        assert E.actions[g] == old and _has_t_action(E)


@given(scalar_groups())
@settings(max_examples=25, deadline=None)
def test_hom_without_scalar_rows_equals_the_old_system(case):
    h, M, N = case
    for X, Y in ((M, N), (N, M), (M, M)):
        H = hom(X, Y)
        if X.is_zero() or Y.is_zero():
            continue
        P, K = _old_hom_system(X, Y)
        old = P.quotient([K])
        assert H.module.exps == old.exps
        B = Mat.from_cols(h.base, P.n, [
            [a for j in range(X.n) for a in f.mat.col(j)] for f in H.maps])
        assert all(in_span(P.span(K), c) for c in B.cols())
        assert all(in_span(P.span(B), c) for c in K.cols())


@given(scalar_groups())
@settings(max_examples=20, deadline=None)
def test_certified_middles_pass_the_old_commutation_check(case):
    _, M, N = case
    for cls in enumerate_classes(ext(M, N, 1)):
        ses = middle(cls)
        assert ses.certify()
        assert _old_is_r_linear(ses.i) and _old_is_r_linear(ses.p)


def test_scalar_gen_of_each_family():
    assert _dvr(2).scalar_gen == "t^1"
    assert _sg(3, 2, 5).scalar_gen == "t^2"
    assert _sg(2, 3, 4, 5).scalar_gen == "t^3"
    assert blow_up(m_ideal(_sg(2, 2, 5)))[1].scalar_gen == "t^2"
    assert blow_up(m_ideal(_sg(2, 2, 3)))[1].scalar_gen is None
    artin = build_ring(RingSpec(family="artin_monomial", p=2,
                                variables=("x",), ideal_monomials=((3,),)))
    assert artin.scalar_gen is None
    # basis monomial 0 is 1, which _free_cover_matrix copies through
    for h in (_dvr(2), _sg(3, 2, 5), artin):
        assert h.basis_factor[0] == []


def test_validate_module_rejects_a_designated_generator_that_is_not_t():
    h = _sg(3, 2, 5)
    R = regular_module(h)
    base = h.base
    # t^2 acting as t^2 * I (the ring's t^4): it commutes with t^5 and the
    # module is free, so only the D-scalar check can catch it
    actions = dict(R.actions)
    actions["t^2"] = Mat.identity(base, R.n).scale(base.t_power(2))
    M = CoeffModule(h, R.exps, actions)
    with pytest.raises(NotAModuleError,
                       match="designated generator does not act as the "
                             "D-scalar"):
        validate_module(M)
    assert validate_module(R)


def test_validate_module_ties_the_generators_to_t_without_a_scalar_gen():
    # the blow-up <1> of <2,3>: D = F_2[t^2]_(t^2), one generator t^1 and
    # no scalar_gen, so t^2 = (t^1)^2 must act as the D-scalar t
    h = blow_up(m_ideal(_sg(2, 2, 3)))[1]
    assert h.scalar_gen is None and h.embed_exp == 2
    base = h.base
    # t^1 acting as t*I commutes with itself and the module is free, so it
    # passes every other check, but (t^1)^2 acts as t^2*I
    M = CoeffModule(h, (None,), {"t^1": _t_identity(base, 1)})
    with pytest.raises(NotAModuleError,
                       match="generators do not multiply to the D-scalar"):
        validate_module(M)
    for X in _pool(h):  # k, R, m and B(m)
        assert validate_module(X)


def test_is_r_linear_still_rejects_the_other_generator_and_torsion():
    h = _sg(3, 2, 5)
    R = regular_module(h)
    base = h.base
    one, z = base.one(), base.zero()
    # onto D*1 along D*t^5: D-linear, commutes with t^2, but sends
    # t^5 * 1 = t^5 to 0 and 1 to 1, whose t^5 multiple is t^5
    f = ModMap(R, R, Mat(base, [[one, z], [z, z]]))
    assert not f.is_r_linear() and not _old_is_r_linear(f)
    assert ModMap.identity(R).is_r_linear()
    # over a DVR: k -> D, 1 -> 1 is D-linear on coordinates but t kills 1
    # in k and not in D; the scalar generator is the only one, so the
    # torsion check alone rejects it
    D = _dvr(2)
    k, F = residue_field(D), regular_module(D)
    g = ModMap(k, F, Mat(D.base, [[D.base.one()]]))
    assert not g.is_r_linear() and not _old_is_r_linear(g)
    assert ModMap(k, F, Mat(D.base, [[D.base.zero()]])).is_r_linear()


def test_the_zero_artin_ring_is_refused():
    with pytest.raises(SubextError, match="contains 1"):
        build_ring(RingSpec(family="artin_monomial", p=2,
                            variables=("x", "y"),
                            ideal_monomials=((0, 0), (2, 0), (0, 2))))

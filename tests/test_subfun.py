import pytest
from hypothesis import given, settings, strategies as st

from subext.dcoeff import Mat
from subext.errors import CertificateError
from subext.ext import SES, ext, enumerate_classes, middle, split_sequence
from subext.modules import (
    ModMap, direct_sum, from_fractional_ideal, from_quotient_ideal,
    is_mcm, length, mu, nu, regular_module, residue_field, submodule,
    quotient_module, torsion_part,
)
from subext.rings import FracIdeal, RingSpec, build_ring, m_ideal
from subext.subfun import (
    additive, check_closure_axioms, default_pairs, ext1_additive,
    ext1_subfunctor, ext1_ulrich, fn_colength, fn_hom_from, fn_hom_to, fn_mu,
    fn_tensor, fn_tor_mult, half_exact_agreement, ideal_times_ext,
    is_additive_on, member_coords, submodule_members, tensor_length,
    tor_multiplicity,
)


def semigroup(p, *gens):
    return build_ring(RingSpec(family="semigroup", p=p, semigroup_gens=tuple(gens)))


def dvr(p):
    return build_ring(RingSpec(family="dvr", p=p))


def cyclic(handle, a):
    return from_quotient_ideal(handle, FracIdeal(handle, [handle.t_elt(a)]))


# ---------------------------------------------------------------------------
# numerical functions
# ---------------------------------------------------------------------------

def test_tensor_length_matches_colength():
    R = semigroup(2, 2, 3)
    m = m_ideal(R)
    for X in (regular_module(R), residue_field(R),
              from_fractional_ideal(R, m)):
        for J in (m, m.power(2)):
            C = from_quotient_ideal(R, J)
            assert tensor_length(X, C) == nu(J, X)


def test_tensor_length_symmetric():
    D = dvr(3)
    mods = [cyclic(D, 1), cyclic(D, 2), direct_sum([cyclic(D, 1), cyclic(D, 3)])[0]]
    for X in mods:
        for C in mods:
            assert tensor_length(X, C) == tensor_length(C, X)


def test_tor_multiplicity_free_vanishes():
    R = semigroup(2, 2, 3)
    assert tor_multiplicity(m_ideal(R), regular_module(R)) == 0


def test_tor_multiplicity_additive_on_sums():
    R = semigroup(2, 2, 3)
    m = m_ideal(R)
    Mm = from_fractional_ideal(R, m)
    v = tor_multiplicity(m, Mm)
    S, _, _ = direct_sum([Mm, Mm])
    assert tor_multiplicity(m, S) == 2 * v


def test_mu_not_additive_on_nonsplit():
    R = semigroup(2, 2, 3)
    F = regular_module(R)
    m = m_ideal(R)
    Mm, incl = submodule(F, m.span_basis())
    Q, proj = quotient_module(F, m.span_basis())
    ses = SES(A=Mm, B=F, C=Q, i=incl, p=proj)
    assert not is_additive_on(fn_mu(), ses)  # 1 != 2 + 1
    assert is_additive_on(fn_mu(), split_sequence(Mm, Q))


# ---------------------------------------------------------------------------
# half-exactness agreement
# ---------------------------------------------------------------------------

def _sample_sequences(handle):
    F = regular_module(handle)
    m = m_ideal(handle)
    Mm, incl = submodule(F, m.span_basis())
    Q, proj = quotient_module(F, m.span_basis())
    out = [SES(A=Mm, B=F, C=Q, i=incl, p=proj),
           split_sequence(Mm, Q),
           split_sequence(residue_field(handle), F)]
    k = residue_field(handle)
    pres = ext(k, F, 1)
    out.extend(middle(c) for c in enumerate_classes(pres) if not c.is_zero())
    return out


def test_half_exact_agreement_many():
    R = semigroup(2, 2, 3)
    k = residue_field(R)
    m = m_ideal(R)
    fns = [fn_mu(), fn_colength(m), fn_hom_to(k), fn_hom_from(k),
           fn_tensor(k)]
    for ses in _sample_sequences(R):
        for fn in fns:
            half_exact_agreement(fn, ses)  # raises on disagreement


def test_half_exact_agreement_dvr():
    D = dvr(2)
    k = residue_field(D)
    fns = [fn_mu(), fn_colength(m_ideal(D)), fn_hom_to(k), fn_tensor(k)]
    pres = ext(cyclic(D, 2), cyclic(D, 2), 1)
    for cls in enumerate_classes(pres):
        ses = middle(cls)
        for fn in fns:
            half_exact_agreement(fn, ses)


# ---------------------------------------------------------------------------
# Ext subfunctors
# ---------------------------------------------------------------------------

def test_mu_subfunctor_is_m_ext_dvr():
    # over a discrete valuation ring the mu-additive classes of
    # Ext^1(R/t^a, R/t^b) are exactly m . Ext^1
    D = dvr(2)
    m = m_ideal(D)
    for a, b in [(1, 1), (2, 2), (2, 1), (1, 3)]:
        pres = ext(cyclic(D, a), cyclic(D, b), 1)
        res = ext1_additive(pres, fn_mu())
        assert res.certified
        assert member_coords(res) == ideal_times_ext(pres, m), (a, b)


def test_mu_subfunctor_certified_23():
    R = semigroup(2, 2, 3)
    k = residue_field(R)
    m = m_ideal(R)
    pres = ext(k, regular_module(R), 1)
    res = ext1_additive(pres, fn_mu())
    assert res.certified
    # Ext^1(k, R) = k; the nonsplit extension is 0 -> R -> m-dual -> k -> 0
    # with mu(m-dual) = 2, so mu is additive on every class here
    assert member_coords(res) == {c.coords for c in enumerate_classes(pres)}
    # the middle of the nonsplit class is m-Ulrich, so the colength function
    # against m is additive everywhere as well
    resc = ext1_additive(pres, fn_colength(m))
    assert resc.certified
    assert member_coords(resc) == member_coords(res)


def test_ulrich_subfunctor_matches_colength_subfunctor():
    R = semigroup(2, 2, 3)
    m = m_ideal(R)
    Mm = from_fractional_ideal(R, m)
    pres = ext(Mm, Mm, 1)
    ul = ext1_ulrich(pres, m)
    ad = ext1_additive(pres, fn_colength(m))
    assert ul.certified and ad.certified
    assert member_coords(ul) == member_coords(ad)
    assert member_coords(ul) == ideal_times_ext(pres, m)


def test_submodule_members_counts():
    D = dvr(2)
    M = cyclic(D, 3)
    base = D.base
    cols = Mat.from_cols(base, 1, [[base.t_power(1)]])
    members = submodule_members(M, cols)
    assert len(members) == 4  # t R/t^3 has length 2 over F_2


# ---------------------------------------------------------------------------
# closure axioms
# ---------------------------------------------------------------------------

def test_closure_axioms_mu():
    R = semigroup(2, 2, 3)
    fn = fn_mu()
    report = check_closure_axioms(
        R, lambda ses: is_additive_on(fn, ses), default_pairs(R))
    assert report.checks >= 20
    assert report.violations == []


def test_closure_axioms_colength():
    R = semigroup(2, 2, 3)
    m = m_ideal(R)
    fn = fn_colength(m)
    report = check_closure_axioms(
        R, lambda ses: is_additive_on(fn, ses), default_pairs(R))
    assert report.violations == []


def test_closure_axioms_negative_control():
    # "middle is maximal Cohen-Macaulay" is not closed under the axioms:
    # it already rejects split sequences with torsion ends
    R = semigroup(2, 2, 3)
    report = check_closure_axioms(
        R, lambda ses: is_mcm(ses.B), default_pairs(R))
    assert len(report.violations) >= 1


@given(st.sampled_from([2, 3]), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_dvr_cyclic_sweep_laws(p, a, b):
    """Over F_p[t]_(t): |Ext^1(R/t^a, R/t^b)| = p^min(a, b), and the
    mu-additive classes, read from the ends once or from each sequence,
    are the same certified submodule m.Ext^1 (the dvr-mu theorem)."""
    D = dvr(p)
    pres = ext(cyclic(D, a), cyclic(D, b), 1)
    assert len(enumerate_classes(pres)) == p ** min(a, b)
    by_ends, by_sequence = ext1_subfunctor(
        pres, [additive(fn_mu(), pres),
               lambda ses: is_additive_on(fn_mu(), ses)])
    assert by_ends.certified and by_sequence.certified
    assert (member_coords(by_ends) == member_coords(by_sequence)
            == ideal_times_ext(pres, m_ideal(D)))

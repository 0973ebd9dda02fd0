import pytest
from hypothesis import assume, given, settings, strategies as st

from subext.errors import CertificateError, StabilizationBudget, SubextError
from subext.ext import (classify, enumerate_classes, ext, group_order,
                        is_split, middle)
from subext.modules import (
    direct_sum, from_fractional_ideal, from_quotient_ideal, is_isomorphic,
    length, mu, regular_module, residue_field, zero_module,
)
from subext.rings import (
    FracIdeal, RingSpec, blow_up, build_ring, m_ideal, principal_reduction,
    ring_invariants,
)
from subext.ulrich import (
    blowup_sequence_comparison, in_add, is_ulrich, mcm_approximation_of_k,
    multiplicity, multiplicity_hilbert, multiplicity_reduction, phi,
    SETTLE_RUN, SETTLE_STEPS, _stabilized, restrict_to_base,
    restrict_to_blowup, ulrich_middle, ulrich_samples,
)
from subext.subfun import _composed_deflation


def semigroup(p, *gens):
    return build_ring(RingSpec(family="semigroup", p=p, semigroup_gens=tuple(gens)))


def dvr(p):
    return build_ring(RingSpec(family="dvr", p=p))


def cyclic(handle, a):
    return from_quotient_ideal(handle, FracIdeal(handle, [handle.t_elt(a)]))


# ---------------------------------------------------------------------------
# multiplicity
# ---------------------------------------------------------------------------

def test_multiplicity_of_ring():
    for gens in ([2, 3], [3, 4, 5], [2, 5], [5, 6, 7]):
        R = semigroup(2, *gens)
        e = multiplicity(regular_module(R))
        assert e == ring_invariants(R).mult == min(gens), gens


def test_multiplicity_routes_agree_on_ideals():
    R = semigroup(2, 3, 4, 5)
    m = m_ideal(R)
    M = from_fractional_ideal(R, m)
    assert multiplicity_reduction(M, m) == multiplicity_hilbert(M, m) == 3


def test_stabilized_returns_the_settled_value():
    seen = []

    def value(n):
        seen.append(n)
        return max(5 - n, 2)            # 5, 4, 3, 2, 2, 2, 2
    assert _stabilized(value, "toy lengths") == 2
    assert seen == list(range(3 + SETTLE_RUN))
    # a run one short of SETTLE_RUN does not settle the sequence
    vals = [1] * (SETTLE_RUN - 1) + [0] * SETTLE_RUN
    assert _stabilized(vals.__getitem__, "toy lengths") == 0


def test_stabilized_raises_naming_the_quantity_and_the_values_seen():
    vals = [n % 2 for n in range(SETTLE_STEPS + 1)]
    with pytest.raises(StabilizationBudget) as err:
        _stabilized(lambda n: n % 2, "Parity lengths")
    assert str(err.value) == (f"Parity lengths did not stabilize within "
                              f"{SETTLE_STEPS} steps: {vals}")


def test_multiplicity_of_finite_length_module_is_zero():
    R = semigroup(2, 2, 3)
    assert multiplicity(residue_field(R)) == 0


def test_multiplicity_with_respect_to_m_squared():
    # e_{m^2}(R) = 2 e_m(R) in dimension one (reduction t^4 over <2,3>)
    R = semigroup(2, 2, 3)
    m2 = m_ideal(R).power(2)
    assert multiplicity(regular_module(R), m2) == 4


def test_multiplicity_additive_on_sums():
    R = semigroup(2, 2, 3)
    F = regular_module(R)
    Mm = from_fractional_ideal(R, m_ideal(R))
    S, _, _ = direct_sum([F, Mm])
    assert multiplicity(S) == multiplicity(F) + multiplicity(Mm)


# ---------------------------------------------------------------------------
# the Ulrich predicate
# ---------------------------------------------------------------------------

def test_ring_is_ulrich_iff_regular():
    D = dvr(3)
    assert is_ulrich(m_ideal(D), regular_module(D))
    R = semigroup(2, 2, 3)
    assert not is_ulrich(m_ideal(R), regular_module(R))
    assert phi(m_ideal(R), regular_module(R)) == 1 - 2


def test_maximal_ideal_is_ulrich_in_minimal_multiplicity():
    for gens in ([2, 3], [3, 4, 5], [2, 5]):
        R = semigroup(2, *gens)
        m = m_ideal(R)
        assert is_ulrich(m, from_fractional_ideal(R, m)), gens


def test_non_mcm_is_not_ulrich():
    R = semigroup(2, 2, 3)
    assert not is_ulrich(m_ideal(R), residue_field(R))


def test_ulrich_samples_are_ulrich():
    for gens in ([2, 3], [3, 4, 5]):
        R = semigroup(2, *gens)
        m = m_ideal(R)
        for name, M in ulrich_samples(R, m, powers=2):
            assert is_ulrich(m, M), (gens, name)


def test_blowup_module_is_ulrich_for_m_squared():
    R = semigroup(2, 2, 3)
    m2 = m_ideal(R).power(2)
    B, _ = blow_up(m2)
    assert is_ulrich(m2, from_fractional_ideal(R, B))


# ---------------------------------------------------------------------------
# Ulrich middles: e_I(B) = e_I(M) + e_I(N) on every sequence
# ---------------------------------------------------------------------------

def check_ulrich_middles(I, M, N):
    """On every middle B of Ext^1(M, N), at most 27 of them: e_I is
    additive (multiplicity raises if its two routes disagree), and the
    predicate taking e_I from the ends agrees with is_ulrich(I, B)."""
    pres = ext(M, N, 1)
    assert group_order(pres) <= 27
    ends = multiplicity(M, I) + multiplicity(N, I)
    ulrich = ulrich_middle(I, pres)
    for ses in [middle(c) for c in enumerate_classes(pres)]:
        assert multiplicity(ses.B, I) == ends
        assert ulrich(ses) == is_ulrich(I, ses.B)


@given(st.sampled_from([2, 3]), st.sampled_from([3, 5, 7]),
       st.sampled_from(["m,m", "B(m),B(m)", "m,B(m)"]))
@settings(max_examples=18, deadline=None)
def test_ulrich_middles_of_ulrich_pairs(p, b, pair):
    R = semigroup(p, 2, b)
    m = m_ideal(R)
    mods = {"m": from_fractional_ideal(R, m),
            "B(m)": from_fractional_ideal(R, blow_up(m)[0])}
    M, N = pair.split(",")
    check_ulrich_middles(m, mods[M], mods[N])


@st.composite
def dvr_sums(draw):
    """(I, M, N) over D = F_p[t]_(t): I = m or m^2, and M, N sums of at
    most one copy of D and up to two R/t^a, with |Ext^1(M, N)| <= 27."""
    p = draw(st.sampled_from([2, 3]))
    D = dvr(p)
    summands = st.tuples(st.integers(0, 1),
                         st.lists(st.integers(1, 3), max_size=2))
    (fm, am), (fn, an) = draw(summands), draw(summands)
    # Ext^1(R/t^a, R) = R/t^a and Ext^1(R/t^a, R/t^b) = R/t^min(a, b)
    assume(p ** sum(fn * a + sum(min(a, b) for b in an) for a in am) <= 27)

    def module(free, exps):
        parts = [regular_module(D)] * free + [cyclic(D, a) for a in exps]
        return direct_sum(parts)[0] if parts else zero_module(D)
    I = m_ideal(D).power(draw(st.integers(1, 2)))
    return I, module(fm, am), module(fn, an)


@given(dvr_sums())
@settings(max_examples=60, deadline=None)
def test_ulrich_middles_of_dvr_sums(case):
    check_ulrich_middles(*case)


def test_ulrich_middle_rejects_other_ends():
    R = semigroup(2, 2, 3)
    m = m_ideal(R)
    Mm = from_fractional_ideal(R, m)
    pres = ext(Mm, Mm, 1)
    ses = next(middle(c) for c in enumerate_classes(pres) if not c.is_zero())
    ulrich = ulrich_middle(m, pres)
    assert ulrich(middle(pres.zero_class()))
    with pytest.raises(SubextError, match="ends"):
        ulrich(_composed_deflation(ses))


# ---------------------------------------------------------------------------
# blow-up module structures
# ---------------------------------------------------------------------------

def test_restrict_to_blowup_gives_free_module():
    R = semigroup(2, 2, 3)
    m = m_ideal(R)
    B, bh = blow_up(m)
    red, _ = principal_reduction(m)
    Bmod = from_fractional_ideal(R, B)
    Mb = restrict_to_blowup(Bmod, bh, red)
    assert is_isomorphic(Mb, regular_module(bh))


def test_restrict_round_trip():
    R = semigroup(2, 3, 4, 5)
    m = m_ideal(R)
    B, bh = blow_up(m)
    red, _ = principal_reduction(m)
    Bmod = from_fractional_ideal(R, B)
    Mb = restrict_to_blowup(Bmod, bh, red)
    back = restrict_to_base(Mb, R, bh)
    assert is_isomorphic(back, Bmod)


def test_non_blowup_module_rejected():
    # R itself is not a module over B(m) when R is singular
    from subext.errors import SubextError
    R = semigroup(2, 2, 3)
    m = m_ideal(R)
    _, bh = blow_up(m)
    red, _ = principal_reduction(m)
    with pytest.raises(SubextError):
        restrict_to_blowup(regular_module(R), bh, red)


def test_blowup_extension_classes_stay_distinct_over_base():
    # Ext^1 over B(m) of k_B by B embeds into Ext^1 over R of the
    # restrictions
    R = semigroup(2, 2, 3)
    m = m_ideal(R)
    B, bh = blow_up(m)
    red, _ = principal_reduction(m)
    kb = residue_field(bh)
    Fb = regular_module(bh)
    from subext.ext import ext
    kR = restrict_to_base(kb, R, bh)
    BR = restrict_to_base(Fb, R, bh)
    pres_R = ext(kR, BR, 1)
    pairs = blowup_sequence_comparison(kb, Fb, R, bh, pres_R)
    assert len(pairs) == 2  # Ext^1_B(k, B) = k over the blown-up DVR
    rclasses = [rc.coords for _, rc in pairs]
    assert len(set(rclasses)) == len(rclasses)


# ---------------------------------------------------------------------------
# add-closure
# ---------------------------------------------------------------------------

def test_in_add_basics():
    D = dvr(2)
    A, B = cyclic(D, 1), cyclic(D, 2)
    assert in_add(A, A)
    assert in_add(A, direct_sum([A, B])[0])
    assert not in_add(A, B)
    assert not in_add(B, A)
    assert in_add(direct_sum([A, A])[0], A)
    R = semigroup(2, 2, 3)
    assert in_add(regular_module(R), regular_module(R))
    Mm = from_fractional_ideal(R, m_ideal(R))
    assert not in_add(Mm, regular_module(R))


# ---------------------------------------------------------------------------
# MCM approximation of the residue field
# ---------------------------------------------------------------------------

def test_mcm_approximation_23():
    R = semigroup(2, 2, 3)
    ses, pres = mcm_approximation_of_k(R)
    assert mu(ses.A) == 1            # omega is principal (Gorenstein)
    assert mu(ses.B) == 2            # r + 1
    assert length(ses.C) == 1        # cokernel is the residue field
    assert not classify(ses, pres).is_zero()
    assert mu(ses.B) == mu(ses.A) + mu(ses.C)


def test_mcm_approximation_345():
    R = semigroup(2, 3, 4, 5)
    ses, pres = mcm_approximation_of_k(R)
    assert mu(ses.A) == 2            # type r = 2
    assert mu(ses.B) == 3            # r + 1
    assert length(ses.C) == 1
    assert not is_split(ses, pres)

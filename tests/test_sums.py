"""Slot-major direct sums and the Yoneda constructions built on them.

`direct_sum` and `power` share one layout: each summand's coordinates follow
those of the summands before it.  Guards: `is_isomorphic` compares invariant
factors as multisets, so a sum listed in another order or built by `power`
is still isomorphic.  Laws on the generated groups of `tests/test_orbits.py`
(DVR sums in unsorted order, `<2,b>` pairs, artin pairs): Baer sums by
construction add classes, componentwise sums of sequences are exact, the
six-term sequence is exact, and the injections and projections of a sum are
R-linear with `proj_i o inj_j = delta_ij id` and `sum inj_i o proj_i = id`.
"""

from hypothesis import given, settings, strategies as st

from subext.ext import (baer_sum_by_construction, classify, direct_sum_seq,
                        enumerate_classes, ext, middle, six_term_check)
from subext.modules import (ModMap, direct_sum, from_quotient_ideal,
                            is_isomorphic, power, regular_module,
                            residue_field)
from subext.rings import FracIdeal, RingSpec, build_ring
from test_orbits import orbit_groups


def test_is_isomorphic_compares_invariant_factors_as_multisets():
    h = build_ring(RingSpec(family="dvr", p=2))
    A = regular_module(h)
    B = from_quotient_ideal(h, FracIdeal(h, [h.t_elt(2)]))
    N = direct_sum([A, B])[0]
    assert is_isomorphic(power(N, 2), direct_sum([N, N])[0])
    assert is_isomorphic(direct_sum([A, B])[0], direct_sum([B, A])[0])
    assert not is_isomorphic(A, B)


@given(orbit_groups(), st.data())
@settings(max_examples=40, deadline=None)
def test_yoneda_laws_on_generated_groups(case, data):
    h, M, N = case
    pres = ext(M, N, 1)
    classes = enumerate_classes(pres)
    a = data.draw(st.sampled_from(classes))
    b = data.draw(st.sampled_from(classes))
    sa, sb = middle(a), middle(b)
    assert classify(baer_sum_by_construction(sa, sb), pres) == a + b
    assert direct_sum_seq(sa, sb).certify()
    six_term_check(sa, residue_field(h))


@given(orbit_groups(), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_direct_sum_is_slot_major(case, k):
    h, M, N = case
    S = direct_sum([N] * k)[0]
    P = power(N, k)
    assert S.exps == P.exps
    assert all(S.actions[g] == P.actions[g] for g in h.gen_names)
    mods = [M, N, M]
    S, injs, projs = direct_sum(mods)
    assert S.exps == M.exps + N.exps + M.exps
    total = ModMap.zero(S, S)
    for i, (X, inj, proj) in enumerate(zip(mods, injs, projs)):
        assert inj.is_r_linear() and proj.is_r_linear()
        total = total + inj @ proj
        for j, Y in enumerate(mods):
            want = ModMap.identity(X) if i == j else ModMap.zero(Y, X)
            assert proj @ injs[j] == want
    assert total == ModMap.identity(S)

"""Shared objects: the constructors that hand one object to every caller,
the Base shared by the rings over one coefficient ring, and the pushout
scaffolding kept on a sequence.

residue_field, free_module, regular_module and m_ideal keep one object per
ring handle; from_quotient_ideal keeps R/J on the ideal J; pushout_seq
keeps, per sequence and target module, the parts of the pushout that do not
depend on the map; middle pushes out the presentation sequence kept on its
Ext group.  These tests check that sharing changes no answer.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from subext import rings as rings_mod
from subext.dcoeff import Base
from subext.ext import (SES, classify, enumerate_classes, ext, ext_length,
                        group_order, middle, pushout_seq, scalar_by_pushout)
from subext.modules import (ModMap, direct_sum, free_module,
                            from_fractional_ideal, from_quotient_ideal, hom,
                            quotient_module, regular_module, residue_field,
                            resolution)
from subext.rings import FracIdeal, RingSpec, blow_up, build_ring, m_ideal
from subext.subfun import (ext1_additive, ext1_ulrich, fn_colength,
                           ideal_times_ext, member_coords)

MAX_CLASSES = 27


def _dvr(p):
    return RingSpec(family="dvr", p=p)


def _semigroup(p, *gens):
    return RingSpec(family="semigroup", p=p, semigroup_gens=gens)


def _artin(p, variables, monos):
    return RingSpec(family="artin_monomial", p=p, variables=tuple(variables),
                    ideal_monomials=tuple(tuple(m) for m in monos))


SPECS = [_dvr(2), _semigroup(3, 2, 3), _semigroup(2, 3, 4, 5),
         _artin(2, "xy", [(2, 0), (1, 1), (0, 2)]),
         _artin(3, "xy", [(2, 0), (0, 2)])]
SPEC_IDS = ["dvr-F2", "<2,3>-F3", "<3,4,5>-F2", "F2[x,y]/m^2",
            "F3[x,y]/(x^2,y^2)"]


# ---------------------------------------------------------------------------
# sharing laws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_shared_constructors_return_one_object(spec):
    h = build_ring(spec)
    J = FracIdeal(h, h.m_gens()[:1])
    assert residue_field(h) is residue_field(h)
    assert free_module(h, 2) is free_module(h, 2)
    assert regular_module(h) is regular_module(h) is free_module(h, 1)
    assert m_ideal(h) is m_ideal(h)
    assert from_quotient_ideal(h, J) is from_quotient_ideal(h, J)
    # an equal ideal built again is another ideal, with its own R/J
    J2 = FracIdeal(h, h.m_gens()[:1])
    assert from_quotient_ideal(h, J2) is not from_quotient_ideal(h, J)
    # the free modules of a resolution are the shared ones
    res = resolution(residue_field(h), 2)
    assert all(F is free_module(h, b) for F, b in zip(res.frees, res.betti))


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_two_handles_from_one_spec_share_nothing(spec):
    # nothing but their Base, which every ring over F_p or F_p[t]_(t) shares
    h1, h2 = build_ring(spec), build_ring(spec)
    assert h1.base is h2.base
    for make in (residue_field, regular_module, m_ideal,
                 lambda h: free_module(h, 2),
                 lambda h: from_quotient_ideal(h, m_ideal(h))):
        a, b = make(h1), make(h2)
        assert a is not b
        assert a.handle is h1 and b.handle is h2
    assert not set(map(id, h1._cache.values())) & set(
        map(id, h2._cache.values()))


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_shared_test_modules_have_the_invariants_of_direct_ones(spec):
    h = build_ring(spec)
    # R/m built through quotient_module, with an ideal of its own
    direct, _ = quotient_module(regular_module(h),
                                FracIdeal(h, h.m_gens()).span_basis())
    others = [regular_module(h), residue_field(h)]
    if h.dim == 1:
        others.append(from_fractional_ideal(h, m_ideal(h)))

    def invariants(X):
        out = [resolution(X, 2).betti]
        for T in others:
            out += [hom(X, T).module.exps, hom(T, X).module.exps,
                    ext(X, T, 1).module.exps, ext(T, X, 1).module.exps]
        return out

    for shared in (residue_field(h), from_quotient_ideal(h, m_ideal(h))):
        assert shared.exps == direct.exps
        assert invariants(shared) == invariants(direct)


# ---------------------------------------------------------------------------
# rings over one coefficient ring share a Base, and that changes no answer
# ---------------------------------------------------------------------------

# minimal-multiplicity semigroup rings, where m and B(m) are Ulrich
MINMULT = [(2, 3), (2, 5), (3, 4, 5), (3, 5, 7)]
PAIRS = [("m", "m"), ("B(m)", "B(m)"), ("m", "B(m)"), ("k", "m")]
MAX_GROUP = 64


def _subfunctor_answers(p, gens_list, pairs):
    """For each ring <gens> over F_p, built one after the other and all
    kept alive, and each pair (M, N): the lengths of Ext^1 and Ext^2, and
    the Ulrich-middle, colength-additive and m.Ext^1 member sets of
    Ext^1(M, N) with the certified flags (left out past MAX_GROUP
    classes); and whether the rings had one Base."""
    handles, out = [], []
    for gens in gens_list:
        h = build_ring(_semigroup(p, *gens))
        handles.append(h)
        m = m_ideal(h)
        mods = {"m": from_fractional_ideal(h, m), "k": residue_field(h),
                "B(m)": from_fractional_ideal(h, blow_up(m)[0])}
        for a, b in pairs:
            M, N = mods[a], mods[b]
            pres = ext(M, N, 1)
            answer = [ext_length(M, N, 1), ext_length(M, N, 2)]
            if group_order(pres) <= MAX_GROUP:
                ul = ext1_ulrich(pres, m)
                col = ext1_additive(pres, fn_colength(m))
                answer += [member_coords(ul), ul.certified,
                           member_coords(col), col.certified,
                           ideal_times_ext(pres, m)]
            out.append(answer)
    return out, handles[0].base is handles[1].base


@given(st.sampled_from([2, 3]),
       st.lists(st.sampled_from(MINMULT), min_size=2, max_size=2,
                unique=True),
       st.lists(st.sampled_from(PAIRS), min_size=1, max_size=2,
                unique=True))
@settings(max_examples=12, deadline=None)
def test_a_shared_base_gives_the_answers_of_private_ones(p, gens_list, pairs):
    shared, one_base = _subfunctor_answers(p, gens_list, pairs)
    with mock.patch.object(rings_mod, "shared_base", Base):
        private, one_private_base = _subfunctor_answers(p, gens_list, pairs)
    assert one_base and not one_private_base
    assert shared == private


# ---------------------------------------------------------------------------
# cached pushouts equal fresh ones
# ---------------------------------------------------------------------------

def _fresh_presentation(pres):
    """A newly built sequence F_1 -d_1-> F_0 -> M of pres, with an empty
    pushout cache."""
    res = pres.res
    F0, F1 = res.frees[0], res.frees[1]
    return SES(A=F1, B=F0, C=pres.M, i=ModMap(F1, F0, res.diffs[0]),
               p=res.cover)


def _same_sequence(s, t):
    return (s.B.exps == t.B.exps and s.B.actions == t.B.actions
            and s.i.mat == t.i.mat and s.p.mat == t.p.mat)


def _dvr_sum(h, exps):
    """A direct sum of R (exponent 0) and R/t^a over a DVR."""
    parts = [regular_module(h) if a == 0 else
             from_quotient_ideal(h, FracIdeal(h, [h.t_elt(a)])) for a in exps]
    return parts[0] if len(parts) == 1 else direct_sum(parts)[0]


@st.composite
def ext_cases(draw):
    """(handle, M, two distinct targets N) over a DVR, <2,b> or a
    monomial artin ring."""
    family = draw(st.sampled_from(["dvr", "two-b", "artin"]))
    p = draw(st.sampled_from([2, 3]))
    if family == "dvr":
        h = build_ring(_dvr(p))
        sums = st.lists(st.integers(0, 2), min_size=1, max_size=2)
        M = _dvr_sum(h, draw(st.lists(st.integers(1, 2), min_size=1,
                                       max_size=2)))
        return h, M, [_dvr_sum(h, draw(sums)), _dvr_sum(h, draw(sums))]
    if family == "two-b":
        h = build_ring(_semigroup(p, 2, draw(st.sampled_from([3, 5]))))
        pool = [residue_field(h), regular_module(h),
                from_fractional_ideal(h, m_ideal(h))]
    else:
        h = build_ring(draw(st.sampled_from([
            _artin(p, "x", [(3,)]),
            _artin(p, "xy", [(2, 0), (1, 1), (0, 2)]),
            _artin(p, "xy", [(2, 0), (0, 2)])])))
        pool = [residue_field(h), regular_module(h),
                from_quotient_ideal(h, FracIdeal(h, h.m_gens()[:1]))]
    M = draw(st.sampled_from(pool))
    targets = draw(st.permutations(pool))[:2]
    return h, M, targets


@given(ext_cases(), st.data())
@settings(max_examples=40, deadline=None)
def test_cached_pushouts_equal_fresh_ones(case, data):
    h, M, targets = case
    r = data.draw(st.sampled_from(h.m_gens() + [h.one_elt()]))
    # one presentation sequence pushed out into both targets, so its cache
    # holds one entry per target module
    shared = None
    for N in targets:
        pres = ext(M, N, 1)
        if group_order(pres) > MAX_CLASSES:
            continue
        if shared is None:
            shared = _fresh_presentation(pres)
        for cls in enumerate_classes(pres, MAX_CLASSES):
            ses = middle(cls)
            fresh = pushout_seq(_fresh_presentation(pres), cls.cocycle())
            assert _same_sequence(ses, fresh)
            assert _same_sequence(pushout_seq(shared, cls.cocycle()), fresh)
            assert ses.certify()
            assert classify(ses, pres) == cls
            assert scalar_by_pushout(cls, r) == cls.scale(r)

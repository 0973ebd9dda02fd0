"""SES.certify and classify read two Smith forms kept on the sequence.

certify decides injectivity, surjectivity and exactness in the middle from
the Smith forms of [i | rel_B] and [p | rel_C], and classify solves against
the same two.  These tests compare certify with a reference copy of the
route that ran seven eliminations per sequence, on valid and on broken
sequences, and pin how many eliminations certify and classify make.
"""

import pytest
from hypothesis import given, settings, strategies as st

import subext.dcoeff as dcoeff
import subext.ext as ext_mod
import subext.modules as modules_mod
import subext.rings as rings_mod
from subext.dcoeff import Mat, preimage
from subext.errors import CertificateError
from subext.ext import (SES, chain_lift, classify, enumerate_classes, ext,
                        group_order, middle, split_sequence)
from subext.modules import (ModMap, canonical_module, direct_sum,
                            from_fractional_ideal, from_quotient_ideal,
                            regular_module, residue_field, resolution,
                            zero_module)
from subext.rings import FracIdeal, RingSpec, build_ring, m_ideal

MAX_CLASSES = 27


def certify_by_seven_eliminations(ses):
    """The certify route that reduced [p | rel_C] twice and never reused a
    Smith form: three eliminations for injectivity, one for surjectivity
    and three for exactness in the middle."""
    if not ses.i.is_r_linear() or not ses.p.is_r_linear():
        raise CertificateError("sequence maps are not R-linear")
    if not (ses.p @ ses.i).is_zero_map():
        raise CertificateError("p o i is not zero")
    if ses.A.quotient([preimage(ses.i.mat, ses.B.rel())]).exps:
        raise CertificateError("i is not injective")
    if ses.C.quotient(None, [ses.p.mat]).exps:
        raise CertificateError("p is not surjective")
    Z = preimage(ses.p.mat, ses.C.rel())
    if ses.B.quotient([Z], [ses.i.mat]).exps:
        raise CertificateError("sequence is not exact in the middle")
    return True


def _verdict(certify, ses):
    try:
        return certify(ses)
    except CertificateError as err:
        return str(err)


def _dvr(p):
    return build_ring(RingSpec(family="dvr", p=p))


def _semigroup(p, *gens):
    return build_ring(RingSpec(family="semigroup", p=p,
                               semigroup_gens=tuple(gens)))


def _artin(p, variables, monos):
    return build_ring(RingSpec(family="artin_monomial", p=p,
                               variables=tuple(variables),
                               ideal_monomials=tuple(tuple(m) for m in monos)))


def _cyclic(h, a):
    return from_quotient_ideal(h, FracIdeal(h, [h.t_elt(a)]))


def _dvr_sum(h, exps):
    """A direct sum of R (exponent 0) and R/t^a over a DVR."""
    parts = [regular_module(h) if a == 0 else _cyclic(h, a) for a in exps]
    return parts[0] if len(parts) == 1 else direct_sum(parts)[0]


# ---------------------------------------------------------------------------
# both routes on middles and on multiples of their maps
# ---------------------------------------------------------------------------

@st.composite
def ext_groups(draw):
    """(handle, M, N) over a DVR, <2,b> or a monomial artin ring."""
    family = draw(st.sampled_from(["dvr", "two-b", "artin"]))
    p = draw(st.sampled_from([2, 3]))
    if family == "dvr":
        h = _dvr(p)
        sums = st.lists(st.integers(0, 2), min_size=1, max_size=2)
        M = _dvr_sum(h, draw(st.lists(st.integers(1, 2), min_size=1,
                                       max_size=2)))
        return h, M, _dvr_sum(h, draw(sums))
    if family == "two-b":
        h = _semigroup(p, 2, draw(st.sampled_from([3, 5])))
        pool = [residue_field(h), regular_module(h),
                from_fractional_ideal(h, m_ideal(h))]
    else:
        h = draw(st.sampled_from([
            _artin(p, "x", [(3,)]),
            _artin(p, "xy", [(2, 0), (1, 1), (0, 2)]),
            _artin(p, "xy", [(2, 0), (0, 2)])]))
        pool = [residue_field(h), regular_module(h),
                from_quotient_ideal(h, FracIdeal(h, h.m_gens()[:1]))]
    return h, draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


@given(ext_groups(), st.data())
@settings(max_examples=30, deadline=None)
def test_certify_agrees_with_the_seven_elimination_route(case, data):
    h, M, N = case
    pres = ext(M, N, 1)
    if group_order(pres) > MAX_CLASSES:
        return
    # multiplying i or p by r in m keeps the maps R-linear and p o i = 0,
    # and breaks injectivity, surjectivity or exactness in the middle
    side = data.draw(st.sampled_from(["i", "p"]))
    r = data.draw(st.sampled_from(h.m_gens() + [h.zero_elt()]))
    for cls in enumerate_classes(pres, MAX_CLASSES):
        ses = middle(cls)
        assert certify_by_seven_eliminations(ses) is True
        assert ses.certify() is True
        assert classify(ses, pres) == cls
        i, p = ses.i.mat, ses.p.mat
        if side == "i":
            i = ses.B.element_action(r) @ i
        else:
            p = ses.C.element_action(r) @ p
        scaled = SES(A=ses.A, B=ses.B, C=ses.C, i=ModMap(ses.A, ses.B, i),
                     p=ModMap(ses.B, ses.C, p))
        assert (_verdict(SES.certify, scaled)
                == _verdict(certify_by_seven_eliminations, scaled))


# ---------------------------------------------------------------------------
# one broken sequence per message
# ---------------------------------------------------------------------------

def _not_r_linear():
    # over <2,3> the ring is D + D t^3; keeping the D-coordinate of 1 and
    # dropping that of t^3 is D-linear but does not commute with t^3
    h = _semigroup(2, 2, 3)
    R, base = regular_module(h), h.base
    keep_one = Mat(base, [[base.one(), base.zero()],
                          [base.zero(), base.zero()]])
    Z = zero_module(h)
    return SES(A=R, B=R, C=Z, i=ModMap(R, R, keep_one), p=ModMap.zero(R, Z))


def _p_after_i_nonzero():
    h = _dvr(2)
    k = _cyclic(h, 1)
    return SES(A=k, B=k, C=k, i=ModMap.identity(k), p=ModMap.identity(k))


def _not_injective():
    # R/t^2 -> R/t -> 0
    h = _dvr(2)
    A, B, Z = _cyclic(h, 2), _cyclic(h, 1), zero_module(h)
    return SES(A=A, B=B, C=Z, i=ModMap(A, B, Mat(h.base, [[h.base.one()]])),
               p=ModMap.zero(B, Z))


def _not_surjective():
    h = _dvr(2)
    k = _cyclic(h, 1)
    B, injs, _ = direct_sum([k, k])
    return SES(A=k, B=B, C=k, i=injs[0], p=ModMap.zero(B, k))


def _not_exact_in_the_middle():
    # i = e_1 and p = e_2^* on (R/t)^3: ker p = <e_1, e_3> is larger than
    # im i
    h = _dvr(2)
    k = _cyclic(h, 1)
    B, injs, projs = direct_sum([k, k, k])
    return SES(A=k, B=B, C=k, i=injs[0], p=projs[1])


BROKEN = [(_not_r_linear, "sequence maps are not R-linear"),
          (_p_after_i_nonzero, "p o i is not zero"),
          (_not_injective, "i is not injective"),
          (_not_surjective, "p is not surjective"),
          (_not_exact_in_the_middle, "sequence is not exact in the middle")]


@pytest.mark.parametrize("make, message", BROKEN,
                         ids=[m for _, m in BROKEN])
def test_broken_sequences_raise_the_message_of_both_routes(make, message):
    ses = make()
    with pytest.raises(CertificateError, match=f"^{message}$"):
        certify_by_seven_eliminations(ses)
    with pytest.raises(CertificateError, match=f"^{message}$"):
        ses.certify()
    # and again on the forms the first call kept
    with pytest.raises(CertificateError, match=f"^{message}$"):
        ses.certify()


# ---------------------------------------------------------------------------
# how many eliminations run
# ---------------------------------------------------------------------------

@pytest.fixture
def smith_calls(monkeypatch):
    """A list that grows by one on each dcoeff.smith call, wherever the
    engine calls it from."""
    calls = []
    original = dcoeff.smith

    def counted(A):
        calls.append((A.m, A.n))
        return original(A)

    for module in (dcoeff, ext_mod, modules_mod, rings_mod):
        if getattr(module, "smith", None) is original:
            monkeypatch.setattr(module, "smith", counted)
    return calls


def _nonzero_middle(M, N):
    pres = ext(M, N, 1)
    cls = next(c for c in enumerate_classes(pres) if not c.is_zero())
    return pres, cls, middle(cls)


@pytest.mark.parametrize("ring", ["dvr", "<2,3>"])
def test_certify_and_classify_eliminate_each_map_once(ring, smith_calls):
    if ring == "dvr":
        h = _dvr(2)
        pres, cls, ses = _nonzero_middle(_cyclic(h, 2), _dvr_sum(h, [0, 1]))
    else:
        h = _semigroup(3, 2, 3)
        pres, cls, ses = _nonzero_middle(residue_field(h),
                                         canonical_module(h))
    del smith_calls[:]
    assert ses.certify()
    assert classify(ses, pres) == cls
    assert len(smith_calls) == 2
    # a second certify and classify reuse both forms
    assert ses.certify() and classify(ses, pres) == cls
    assert len(smith_calls) == 2


def test_classify_out_of_R_builds_no_form_for_the_empty_pull_back(
        smith_calls):
    h = _semigroup(2, 2, 3)
    R, k = regular_module(h), residue_field(h)
    pres = ext(R, k, 1)
    assert pres.beta == 0
    ses = split_sequence(k, R)
    del smith_calls[:]
    assert classify(ses, pres).is_zero()
    # only the cover lifts through p; no boundary is pulled back through i
    assert len(smith_calls) == 1
    assert ses.certify()
    assert len(smith_calls) == 2


def test_chain_lift_runs_one_smith_per_level_it_lifts(smith_calls):
    # the identity of k lifts at levels 0-2; the cover R -> k at level 0
    # only (R has no syzygies); a map out of the zero module has no targets.
    # A resolution keeps the forms maps are lifted through, so each case
    # takes a fresh ring, and a second lift runs no smith at all.
    for case, smiths in [("identity", 3), ("cover", 1), ("zero", 0)]:
        h = _semigroup(2, 2, 3)
        k = residue_field(h)
        res = resolution(k, 2)
        assert res.betti == [1, 2, 2]
        f = {"identity": ModMap.identity(k), "cover": res.cover,
             "zero": ModMap.zero(zero_module(h), k)}[case]
        resolution(f.src, 2)
        del smith_calls[:]
        assert len(chain_lift(f, 2)) == 3
        assert len(smith_calls) == smiths
        del smith_calls[:]
        chain_lift(f, 2)
        assert smith_calls == []

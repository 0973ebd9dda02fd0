import gc
import weakref

import pytest

from subext import dcoeff
from subext import rings as rings_mod
from subext.dcoeff import Base, Mat, smith
from subext.errors import SubextError
from subext.rings import (
    FracIdeal, RingSpec, apery_set, blow_up, build_ring, canonical_ideal,
    colon, frobenius_number, is_symmetric_semigroup, m_ideal,
    principal_reduction, pseudo_frobenius, ring_invariants, semigroup_gaps,
    trace_ideal, value_semigroup,
)


def semigroup(p, *gens):
    return build_ring(RingSpec(family="semigroup", p=p, semigroup_gens=tuple(gens)))


def dvr(p):
    return build_ring(RingSpec(family="dvr", p=p))


def artin(p, variables, monos):
    return build_ring(RingSpec(family="artin_monomial", p=p,
                               variables=tuple(variables),
                               ideal_monomials=tuple(tuple(m) for m in monos)))


# ---------------------------------------------------------------------------
# semigroup combinatorics (independent oracles are small and explicit)
# ---------------------------------------------------------------------------

def test_frobenius_and_gaps():
    assert frobenius_number([2, 3]) == 1
    assert frobenius_number([3, 4, 5]) == 2
    assert frobenius_number([2, 5]) == 3
    assert frobenius_number([3, 5]) == 7
    assert semigroup_gaps([3, 5]) == [1, 2, 4, 7]
    assert frobenius_number([1]) == -1


def test_symmetry():
    assert is_symmetric_semigroup([2, 3])
    assert is_symmetric_semigroup([2, 5])
    assert is_symmetric_semigroup([3, 5])
    assert not is_symmetric_semigroup([3, 4, 5])
    assert is_symmetric_semigroup([1])


def test_pseudo_frobenius():
    assert pseudo_frobenius([2, 3]) == [1]
    assert pseudo_frobenius([3, 4, 5]) == [1, 2]
    assert pseudo_frobenius([5, 6, 7]) == [8, 9]


def test_apery():
    exps, factor = apery_set([3, 4, 5], 3)
    assert exps == [0, 4, 5]
    for w, fac in zip(exps, factor):
        assert sum(fac) == w
    exps2, _ = apery_set([2, 3], 2)
    assert exps2 == [0, 3]


# ---------------------------------------------------------------------------
# ring handles
# ---------------------------------------------------------------------------

def test_semigroup_regular_representation():
    R = semigroup(5, 2, 3)
    t2, t3 = R.t_elt(2), R.t_elt(3)
    assert (t2 * t3) == R.t_elt(5)
    assert (t3 * t3) == R.t_elt(6)
    assert (t2 * t2 * t2) == (t3 * t3)  # t^6 both ways
    one = R.one_elt()
    assert (one * t2) == t2
    assert t2.valuation() == 2 and (t2 * t3).valuation() == 5
    assert t2.is_nzd()


def test_designated_scalar_embedding():
    # multiplication by t^(a_1) equals the D-scalar t acting coordinatewise
    R = semigroup(3, 3, 4, 5)
    A = R.gen_action["t^3"]
    s = R.base.t_power(1)
    for i in range(R.nR):
        for j in range(R.nR):
            want = s if i == j else R.base.zero()
            assert A.rows[i][j] == want


def test_artin_handle():
    R = artin(2, ["x", "y"], [(2, 0), (1, 1), (0, 2)])  # (x,y)^2
    assert R.nR == 3  # 1, x, y
    x, y = R.gen_elt("x"), R.gen_elt("y")
    assert (x * y).is_zero()
    assert (x * x).is_zero()
    assert not x.is_zero()
    assert not x.is_nzd()


def test_artin_non_primary_rejected():
    with pytest.raises(SubextError):
        artin(2, ["x", "y"], [(2, 0)])  # no pure power of y


def test_dvr_handle():
    R = dvr(5)
    assert R.nR == 1
    t = R.t_elt(1)
    assert (t * t) == R.t_elt(2)


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

def test_quotient_lengths():
    R = semigroup(2, 2, 3)
    m = m_ideal(R)
    assert m.quotient_length() == 1
    m2 = m.power(2)
    assert m2.quotient_length() == 3  # R/m^2 spanned by 1, t^2, t^3
    assert m.length_over(m2) == 2


def test_ideal_equality_and_sum():
    R = semigroup(3, 2, 3)
    m = m_ideal(R)
    J = FracIdeal(R, [R.t_elt(2), R.t_elt(3), R.t_elt(4)])
    assert m == J
    assert (m + m.power(2)) == m


def test_colon_and_trace():
    R = semigroup(2, 2, 3)
    m = m_ideal(R)
    inv = colon(FracIdeal.unit_ideal(R), m)  # (R : m) = R + tR
    assert inv.contains_element(R.one_elt())
    # t = t^3 / t^2 is in (R : m)
    assert inv.contains_element(R.t_elt(3), elem_den=R.t_elt(2))
    tr = trace_ideal(m)
    assert tr == m  # tr(m) = (R:m) m = m over <2,3>


def test_trace_of_principal_is_ring():
    R = semigroup(2, 2, 3)
    J = FracIdeal(R, [R.t_elt(2)])
    assert trace_ideal(J) == FracIdeal.unit_ideal(R)


def test_colon_in_ring_artin():
    R = artin(3, ["x", "y"], [(2, 0), (1, 1), (0, 2)])
    zero = FracIdeal(R, [R.zero_elt()])
    socle = colon(zero, m_ideal(R), ambient="ring")
    # socle of (x,y)^2-quotient is m itself (dim 2)
    assert socle == m_ideal(R)


def test_principal_reduction():
    R = semigroup(2, 2, 3)
    m = m_ideal(R)
    red, n = principal_reduction(m)
    assert red.num == R.t_elt(2) and red.den == R.one_elt()
    assert m.power(n + 1) == (m.power(n) * red.ideal(R))
    R2 = semigroup(3, 3, 4, 5)
    red2, _ = principal_reduction(m_ideal(R2))
    assert red2.num == R2.t_elt(3)
    # reduction of the canonical ideal of <3,4,5> is 1 (valuation 0)
    w = canonical_ideal(R2)
    redw, _ = principal_reduction(w)
    assert redw.num.valuation() == redw.den.valuation()


def test_blow_up_to_dvr():
    for gens in ([2, 3], [3, 4, 5]):
        R = semigroup(2, *gens)
        B, bh = blow_up(m_ideal(R))
        assert bh.semigroup == [1]
        assert is_symmetric_semigroup(bh.semigroup)


def test_blow_up_value_semigroup_m2():
    R = semigroup(2, 2, 3)
    m2 = m_ideal(R).power(2)
    B, bh = blow_up(m2)
    # x = t^4 reduces m^2; B = union (m^2)^n / t^(4n) -> value set N
    assert bh.semigroup == [1]


def test_value_semigroup_of_ring_itself():
    R = semigroup(2, 3, 4, 5)
    gens, mins = value_semigroup(FracIdeal.unit_ideal(R))
    assert gens == [3, 4, 5]
    assert mins == [0, 4, 5]


def test_canonical_ideal():
    R = semigroup(3, 3, 4, 5)
    w = canonical_ideal(R)
    # omega = <1, t> as a fractional ideal
    assert w.contains_element(R.one_elt())
    assert w.contains_element(R.t_elt(4), elem_den=R.t_elt(3))  # t = t^4/t^3
    assert not w.contains_element(R.t_elt(4), elem_den=R.t_elt(5))
    # Gorenstein ring: omega is principal (the unit ideal here)
    R2 = semigroup(3, 2, 3)
    w2 = canonical_ideal(R2)
    assert w2.min_gen_count() == 1


def test_canonical_ideal_length_identity():
    # lambda(omega / R-part): for any S, omega >= R and
    # lambda(omega/R) = number of gaps g with F - g not in S = type-related;
    # check the well-known lambda(omega) - type relations indirectly:
    R = semigroup(2, 3, 4, 5)
    w = canonical_ideal(R)
    unit = FracIdeal.unit_ideal(R)
    assert w.contains_ideal(unit)
    # lambda(omega/R) = n(S) gaps count - ... use direct oracle:
    # omega/R has k-basis {t^(F-g) : F-g not in S}; here F=2, gaps {1,2},
    # F-gaps = {0,1}, of which 1 is not in S -> length 1
    assert w.length_over(unit) == 1


# ---------------------------------------------------------------------------
# ring invariants against combinatorial oracles
# ---------------------------------------------------------------------------

def test_invariants_23():
    inv = ring_invariants(semigroup(2, 2, 3))
    assert (inv.dim, inv.depth) == (1, 1)
    assert inv.emb_dim == 2 and inv.mult == 2
    assert inv.cm_type == 1 and inv.gorenstein
    assert inv.min_mult
    assert inv.almost_gorenstein
    assert not inv.regular


def test_invariants_345():
    inv = ring_invariants(semigroup(3, 3, 4, 5))
    assert inv.emb_dim == 3 and inv.mult == 3
    assert inv.cm_type == 2 and not inv.gorenstein
    assert inv.min_mult and inv.almost_gorenstein


def test_invariants_25():
    inv = ring_invariants(semigroup(5, 2, 5))
    assert inv.mult == 2 and inv.emb_dim == 2
    assert inv.gorenstein and inv.min_mult


def test_invariants_567_not_almost_gorenstein():
    inv = ring_invariants(semigroup(2, 5, 6, 7))
    assert inv.cm_type == 2
    assert not inv.almost_gorenstein


def test_invariants_type_matches_pseudo_frobenius_count():
    for gens in ([2, 3], [3, 4, 5], [2, 5], [3, 5], [4, 5, 6], [5, 6, 7],
                 [4, 6, 9], [3, 7, 8]):
        inv = ring_invariants(semigroup(2, *gens))
        assert inv.cm_type == len(pseudo_frobenius(gens)), gens
        assert inv.gorenstein == is_symmetric_semigroup(gens), gens
        assert inv.mult == min(gens), gens


def test_almost_gorenstein_matches_almost_symmetric_oracle():
    def almost_symmetric(gens):
        frob = frobenius_number(gens)
        pf = set(pseudo_frobenius(gens))
        from subext.rings import semigroup_closure
        member = semigroup_closure(gens, frob + 1)
        for g in semigroup_gaps(gens):
            if not member[frob - g] and g not in pf:
                return False
        return True

    for gens in ([2, 3], [3, 4, 5], [5, 6, 7], [3, 5, 7], [4, 5, 6],
                 [4, 5, 7], [3, 7, 8]):
        inv = ring_invariants(semigroup(2, *gens))
        assert inv.almost_gorenstein == almost_symmetric(gens), gens


def test_invariants_dvr():
    inv = ring_invariants(dvr(3))
    assert inv.regular and inv.gorenstein and inv.mult == 1 and inv.cm_type == 1


def test_invariants_artin_square():
    inv = ring_invariants(artin(2, ["x", "y"], [(2, 0), (1, 1), (0, 2)]))
    assert (inv.dim, inv.depth) == (0, 0)
    assert inv.length == 3 and inv.mult == 3
    assert inv.emb_dim == 2 and inv.cm_type == 2
    assert inv.min_mult and not inv.gorenstein


def test_invariants_artin_xyz_square():
    R = artin(2, ["x", "y", "z"],
              [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
    inv = ring_invariants(R)
    assert inv.length == 4 and inv.emb_dim == 3 and inv.cm_type == 3


def test_invariants_artin_gorenstein():
    # F_2[x]/(x^3): Gorenstein artinian
    inv = ring_invariants(artin(2, ["x"], [(3,)]))
    assert inv.gorenstein and inv.cm_type == 1 and inv.length == 3


# ---------------------------------------------------------------------------
# one Base per coefficient ring
# ---------------------------------------------------------------------------

def test_rings_over_one_coefficient_ring_share_one_base():
    a, b, d = semigroup(3, 2, 3), semigroup(3, 3, 4, 5), dvr(3)
    _, blowup = blow_up(m_ideal(a))
    assert a.base is b.base is d.base is blowup.base
    # Base(p, local) stays a private Base, equal to the shared one
    private = Base(3, local=True)
    assert private == a.base and private is not a.base


def test_rings_over_other_coefficient_rings_do_not_share():
    d2, a2, d3 = dvr(2), artin(2, "x", [(2,)]), dvr(3)
    # F_2[t]_(t) and F_2 differ in local; F_2[t]_(t) and F_3[t]_(t) in p
    assert d2.base != a2.base and d2.base is not a2.base
    assert d2.base != d3.base and d2.base is not d3.base
    assert artin(2, "xy", [(2, 0), (0, 2)]).base is a2.base


def test_a_shared_base_is_freed_with_its_last_ring(monkeypatch):
    p = 241  # no other test builds a ring over F_241
    assert (p, True) not in dcoeff._SHARED
    rings = [dvr(p), semigroup(p, 2, 3)]
    base = rings[0].base
    assert rings[1].base is base
    ring_invariants(rings[1])
    assert base._forms and base._ops
    kept = weakref.ref(base)
    del base
    gc.collect()
    assert kept() is rings[0].base  # a ring over it still lives
    del rings
    gc.collect()
    assert kept() is None and (p, True) not in dcoeff._SHARED
    # a new ring starts from tables as empty as a ring with a private Base
    fresh = dvr(p).base
    with monkeypatch.context() as patch:
        patch.setattr(rings_mod, "shared_base", Base)
        private = dvr(p).base
    assert private is not fresh and private == fresh
    assert fresh._forms == private._forms == {}
    assert fresh._ops.keys() == private._ops.keys()
    assert fresh._powers.keys() == private._powers.keys()
    smith(Mat.identity(fresh, 2))
    assert len(fresh._forms) == 1

import random

import pytest
from hypothesis import given, settings, strategies as st

from subext.dcoeff import Base, Mat
from subext.errors import InfiniteLengthError
from subext.modules import (
    ModMap, annihilator, canonical_module, colon_in_module, direct_sum,
    dualize_omega, free_module, from_fractional_ideal, from_quotient_ideal,
    hom, is_isomorphic, is_mcm, length, loewy_length, mu, nu, power,
    power_rel, quotient_module, regular_module, residue_field, resolution, slot_map,
    socle, solve_like, submodule, subquotient_module, syzygy, torsion_part,
    transpose, validate_module, zero_module, assert_minimal,
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
    """R/t^a over a DVR handle."""
    J = FracIdeal(handle, [handle.t_elt(a)])
    return from_quotient_ideal(handle, J)


# ---------------------------------------------------------------------------
# constructors and validation
# ---------------------------------------------------------------------------

def test_constructors_validate():
    R1 = semigroup(2, 2, 3)
    R2 = artin(2, ["x", "y"], [(2, 0), (1, 1), (0, 2)])
    for h in (R1, R2, dvr(3)):
        validate_module(regular_module(h))
        validate_module(free_module(h, 2))
        validate_module(residue_field(h))
        validate_module(canonical_module(h))
    m = m_ideal(R1)
    validate_module(from_fractional_ideal(R1, m))
    validate_module(from_quotient_ideal(R1, m.power(2)))


def test_power_keeps_slot_major_order():
    A = artin(2, ["x", "y"], [(2, 0), (1, 1), (0, 2)])
    for h in (semigroup(2, 2, 3), A, dvr(3)):
        k, Rm = residue_field(h), from_quotient_ideal(h, m_ideal(h))
        for N in (k, Rm, canonical_module(h)):
            assert power(N, 1) is N
            for n in (0, 2, 3):
                P = power(N, n)
                assert P.exps == N.exps * n
                validate_module(P)
                for g in h.gen_names:
                    for b in range(n):
                        for c in range(n):
                            block = [row[c * N.n:(c + 1) * N.n]
                                     for row in P.actions[g].rows[
                                         b * N.n:(b + 1) * N.n]]
                            want = (N.actions[g].rows if b == c else
                                    [[h.base.zero()] * N.n] * N.n)
                            assert block == want
        assert regular_module(h) is free_module(h, 1)
        for n in (0, 2, 3):
            F = free_module(h, n)
            assert F is free_module(h, n)
            P = power(regular_module(h), n)
            assert F.exps == P.exps
            assert all(F.actions[g] == P.actions[g] for g in h.gen_names)


def test_power_rel_is_the_relation_block_of_the_power():
    D, S, A = dvr(3), semigroup(2, 2, 3), artin(2, ["x", "y"],
                                                [(2, 0), (1, 1), (0, 2)])
    for N in (direct_sum([regular_module(D), cyclic(D, 1), cyclic(D, 2)])[0],
              cyclic(D, 2), regular_module(D),
              direct_sum([regular_module(S), residue_field(S)])[0],
              canonical_module(S), residue_field(A),
              from_quotient_ideal(A, m_ideal(A))):
        for k in range(4):
            assert power_rel(N, k) == power(N, k).rel()


def _dual_by_mult_matrix(h, rmx, b0, b1):
    """The transpose of an R-matrix d : R^{b1} -> R^{b0}, as a D-matrix
    R^{b0} -> R^{b1}, placed block by block from RingElement.mult_matrix()."""
    cols = []
    for i in range(b0):
        for b in range(h.nR):
            col = [h.base.zero()] * (b1 * h.nR)
            for j in range(b1):
                em = rmx[i][j].mult_matrix()
                for r in range(h.nR):
                    col[j * h.nR + r] = em.rows[r][b]
            cols.append(col)
    return Mat.from_cols(h.base, b1 * h.nR, cols)


def test_slot_map_on_the_regular_module_transposes_the_differentials():
    A = artin(2, ["x", "y"], [(2, 0), (1, 1), (0, 2)])
    for h in (dvr(2), dvr(3), semigroup(2, 2, 3), A):
        R = regular_module(h)
        for M in (residue_field(h), from_quotient_ideal(h, m_ideal(h))):
            res = resolution(M, 2)
            for lev in (0, 1):
                b0, b1 = res.betti[lev], res.betti[lev + 1]
                got = slot_map(R, res.rmx[lev])
                assert (got.m, got.n) == (b1 * h.nR, b0 * h.nR)
                assert got == _dual_by_mult_matrix(h, res.rmx[lev], b0, b1)
        # R is free: d_1 = 0, and slot_map keeps the width of N^{beta_0}
        res = resolution(R, 1)
        assert res.betti[1] == 0 and len(res.rmx[0]) == res.betti[0]
        got = slot_map(residue_field(h), res.rmx[0])
        assert (got.m, got.n) == (0, res.betti[0])


def test_cyclic_modules_dvr():
    R = dvr(5)
    M = cyclic(R, 3)
    assert M.exps == (3,)
    assert length(M) == 3 and mu(M) == 1
    assert loewy_length(M) == 3
    k = residue_field(R)
    assert length(k) == 1 and mu(k) == 1


def test_solve_like_on_a_matrix_with_no_columns():
    # the empty span holds exactly the zero vector, over both kinds of base
    for base in (Base(2, local=True), Base(5, local=False)):
        A = Mat.zeros(base, 2, 0)
        assert solve_like(A, [base.zero(), base.zero()])
        assert not solve_like(A, [base.zero(), base.one()])
        assert solve_like(Mat.zeros(base, 0, 0), [])


def test_quotient_by_m_powers():
    R = semigroup(2, 2, 3)
    m = m_ideal(R)
    M = from_quotient_ideal(R, m.power(2))
    assert length(M) == 3  # basis 1, t^2, t^3
    assert mu(M) == 1
    assert loewy_length(M) == 2


def test_free_module_element_action_matches_regular_rep():
    R = semigroup(3, 3, 4, 5)
    F = regular_module(R)
    e = R.t_elt(4)
    assert e.mult_matrix() == F.element_action(e)


def test_direct_sum_additivity():
    R = dvr(3)
    A, B = cyclic(R, 2), cyclic(R, 3)
    S, injs, projs = direct_sum([A, B])
    assert length(S) == 5 and mu(S) == 2
    validate_module(S)
    # projections are one-sided inverses of injections
    assert (projs[0] @ injs[0]) == ModMap.identity(A)
    assert (projs[1] @ injs[0]).is_zero_map()


def test_submodule_and_quotient_lengths():
    R = dvr(2)
    M = cyclic(R, 4)
    base = R.base
    gens = Mat.from_cols(base, 1, [[base.t_power(2)]])  # t^2 * (R/t^4)
    K, incl = submodule(M, gens)
    assert length(K) == 2
    Q, proj = quotient_module(M, gens)
    assert length(Q) == 2
    assert (proj @ incl).is_zero_map()


# ---------------------------------------------------------------------------
# spans, quotients and lengths modulo relations
# ---------------------------------------------------------------------------

@st.composite
def cyclic_sums_with_blocks(draw):
    """(M, X, Y): M a sum of R/t^a (a <= 3) over F_p[t]_(t), p in {2, 3},
    and two random column blocks X, Y in its ambient (possibly empty)."""
    p = draw(st.sampled_from([2, 3]))
    R = dvr(p)
    exps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    M = direct_sum([cyclic(R, a) for a in exps])[0]

    def block():
        k = draw(st.integers(0, 2))
        cols = [[R.base.poly(draw(st.lists(st.integers(0, p - 1),
                                           min_size=3, max_size=3)))
                 for _ in range(M.n)] for _ in range(k)]
        return Mat.from_cols(R.base, M.n, cols)

    return M, block(), block()


@given(cyclic_sums_with_blocks())
@settings(max_examples=60, deadline=None)
def test_quotient_length_laws(data):
    M, X, Y = data
    # lambda(<X, Y>) = lambda(<X, Y> / <Y>) + lambda(<Y>), all modulo rel
    assert (M.quotient_length([X, Y])
            == M.quotient_length([X, Y], [Y]) + M.quotient_length([Y]))
    assert M.quotient_length() == M.length()
    assert M.quotient([X], [X]).exps == ()
    # a free summand makes the whole ambient infinite, reported as `what`
    F = direct_sum([M, regular_module(M.handle)])[0]
    with pytest.raises(InfiniteLengthError, match="^free summand seen$"):
        F.quotient_length(None, [], "free summand seen")


# ---------------------------------------------------------------------------
# Hom with classical length oracles
# ---------------------------------------------------------------------------

def test_hom_cyclic_dvr_oracle():
    R = dvr(5)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            H = hom(cyclic(R, a), cyclic(R, b))
            assert length(H.module) == min(a, b), (a, b)
            for phi in H.maps:
                assert phi.is_r_linear()


def test_hom_sum_oracle_random():
    # lambda Hom(sum R/t^a_i, sum R/t^b_j) = sum_ij min(a_i, b_j)
    R = dvr(2)
    rng = random.Random(23)
    for _ in range(6):
        As = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 3))]
        Bs = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 3))]
        M = direct_sum([cyclic(R, a) for a in As])[0]
        N = direct_sum([cyclic(R, b) for b in Bs])[0]
        want = sum(min(a, b) for a in As for b in Bs)
        assert length(hom(M, N).module) == want, (As, Bs)


def test_hom_free_source():
    R = dvr(3)
    N = cyclic(R, 2)
    H = hom(regular_module(R), N)
    assert H.module.exps == N.exps  # Hom(R, N) = N


def test_hom_k_to_ring():
    # Hom(k, R) = (0 : m) = 0 in a domain; = socle in the artin case
    R = semigroup(2, 2, 3)
    assert hom(residue_field(R), regular_module(R)).module.is_zero()
    A = artin(2, ["x", "y"], [(2, 0), (1, 1), (0, 2)])
    H = hom(residue_field(A), regular_module(A)).module
    assert length(H) == 2  # socle of the (x,y)^2-quotient has dim 2


def test_hom_endomorphisms_of_m():
    # End(m) = (m : m) = R + tR over <2,3>, which needs 2 generators
    R = semigroup(2, 2, 3)
    Mm = from_fractional_ideal(R, m_ideal(R))
    E = hom(Mm, Mm).module
    assert mu(E) == 2
    assert is_mcm(E)


def test_tensor_length_symmetry_dvr():
    R = dvr(3)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            J = FracIdeal(R, [R.t_elt(b)])
            assert nu(J, cyclic(R, a)) == min(a, b)


def test_nu_against_quotient_lengths():
    R = semigroup(2, 2, 3)
    m = m_ideal(R)
    F = regular_module(R)
    assert nu(m, F) == 1
    assert nu(m.power(2), F) == 3
    assert nu(m, residue_field(R)) == 1


# ---------------------------------------------------------------------------
# socle / annihilator / torsion / loewy
# ---------------------------------------------------------------------------

def test_socle_oracles():
    R = dvr(2)
    S, _ = socle(cyclic(R, 3))
    assert length(S) == 1
    A = artin(2, ["x", "y"], [(2, 0), (1, 1), (0, 2)])
    S2, _ = socle(regular_module(A))
    assert length(S2) == 2


def test_annihilator_oracles():
    R = semigroup(2, 2, 3)
    m = m_ideal(R)
    assert annihilator(residue_field(R)) == m.as_ring_ideal()
    assert annihilator(from_quotient_ideal(R, m.power(2))) == \
        m.power(2).as_ring_ideal()
    assert annihilator(regular_module(R)).is_zero()
    assert annihilator(zero_module(R)) == FracIdeal.unit_ideal(R)


def test_torsion_and_depth():
    R = semigroup(2, 2, 3)
    F = regular_module(R)
    T, _ = torsion_part(F)
    assert T.is_zero()
    assert is_mcm(F) and not is_mcm(residue_field(R))
    assert loewy_length(F) == 0
    assert loewy_length(residue_field(R)) == 1
    S, _, _ = direct_sum([F, residue_field(R)])
    T2, _ = torsion_part(S)
    assert length(T2) == 1
    assert not is_mcm(S)


def test_colon_in_module():
    # {x in R : t*x in (t^2)} = (t) over a DVR
    R = dvr(2)
    F = regular_module(R)
    base = R.base
    W = Mat.from_cols(base, 1, [[base.t_power(2)]])
    K, incl = colon_in_module(F, W, [R.t_elt(1)])
    Q, _ = quotient_module(F, incl.mat)
    assert length(Q) == 1


# ---------------------------------------------------------------------------
# resolutions / syzygies / transpose
# ---------------------------------------------------------------------------

def test_resolution_cyclic_dvr():
    R = dvr(3)
    M = cyclic(R, 2)
    res = resolution(M, 2)
    assert res.betti == [1, 1, 0]
    assert_minimal(res)
    assert is_isomorphic(syzygy(M, 1), regular_module(R))


def test_resolution_residue_field_23():
    R = semigroup(2, 2, 3)
    k = residue_field(R)
    res = resolution(k, 1)
    assert res.betti[:2] == [1, 2]  # mu(m) = 2
    assert_minimal(res)
    s1 = syzygy(k, 1)
    assert is_isomorphic(s1, from_fractional_ideal(R, m_ideal(R)))


def test_resolution_residue_field_345():
    R = semigroup(2, 3, 4, 5)
    res = resolution(residue_field(R), 1)
    assert res.betti[:2] == [1, 3]


def test_resolution_residue_field_artin():
    A = artin(2, ["x", "y"], [(2, 0), (1, 1), (0, 2)])
    res = resolution(residue_field(A), 2)
    # Omega^1 k = m = k^2 (since m^2 = 0), so Omega^2 k = k^4
    assert res.betti == [1, 2, 4]
    assert_minimal(res)


def test_transpose_cyclic_dvr_selfdual():
    R = dvr(2)
    M = cyclic(R, 3)
    T = transpose(M)
    assert is_isomorphic(T, M)


def test_transpose_k_artin_length():
    # Tr k over the (x,y)^2-quotient: cokernel of R -> R^2, 1 -> (x, y);
    # image has length 1, so lambda = 2*3 - 1 = 5
    A = artin(2, ["x", "y"], [(2, 0), (1, 1), (0, 2)])
    T = transpose(residue_field(A))
    assert length(T) == 5
    assert mu(T) == 2


def test_transpose_free_is_zero():
    R = semigroup(2, 2, 3)
    assert transpose(regular_module(R)).is_zero()


# ---------------------------------------------------------------------------
# canonical modules and duals
# ---------------------------------------------------------------------------

def test_canonical_module_mu_is_type():
    assert mu(canonical_module(semigroup(2, 2, 3))) == 1
    assert mu(canonical_module(semigroup(2, 3, 4, 5))) == 2
    assert mu(canonical_module(artin(2, ["x", "y"],
                                     [(2, 0), (1, 1), (0, 2)]))) == 2


def test_canonical_module_artin_matlis():
    A = artin(2, ["x", "y"], [(2, 0), (1, 1), (0, 2)])
    E = canonical_module(A)
    assert length(E) == 3
    S, _ = socle(E)
    assert length(S) == 1  # simple socle


def test_omega_dual_of_omega_dim1():
    # Hom(omega, omega) = R for a CM local ring with canonical module
    R = semigroup(2, 3, 4, 5)
    w = canonical_module(R)
    E = hom(w, w).module
    assert mu(E) == 1 and is_mcm(E)
    assert is_isomorphic(E, regular_module(R))


def test_omega_dual_preserves_mcm_length():
    # over artin rings dualizing preserves length
    A = artin(3, ["x"], [(3,)])
    M = from_quotient_ideal(A, FracIdeal(A, [A.gen_elt("x")]))
    Md = dualize_omega(M)
    assert length(Md) == length(M) == 1


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

def test_is_isomorphic_basics():
    R = dvr(2)
    A, B = cyclic(R, 2), cyclic(R, 3)
    S1 = direct_sum([A, B])[0]
    S2 = direct_sum([B, A])[0]
    assert is_isomorphic(S1, S2)
    assert not is_isomorphic(A, B)
    assert is_isomorphic(zero_module(R), zero_module(R))


def test_principal_ideal_isomorphic_to_ring():
    R = semigroup(2, 2, 3)
    J = FracIdeal(R, [R.t_elt(2)])
    assert is_isomorphic(from_fractional_ideal(R, J), regular_module(R))


def test_maximal_ideal_not_isomorphic_to_ring():
    R = semigroup(2, 2, 3)
    Mm = from_fractional_ideal(R, m_ideal(R))
    F = regular_module(R)
    assert Mm.exps == F.exps  # same D-module shape, yet not isomorphic
    assert not is_isomorphic(Mm, F)

import dataclasses
import gc
import itertools
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from subext.dcoeff import (
    Base, Mat, Scalar, Subquotient, cokernel_invariants, hstack, in_span,
    kernel, padd, pgcd, pinv_series, pmod_tk, pmul, pneg, preimage_all,
    pshift, smith, solve, solve_matrix, vstack,
)
from subext.errors import ExactDivisionError, NotInSpanError

F5 = Base(5, local=False)
L2 = Base(2, local=True)
L3 = Base(3, local=True)


def rand_scalar(base, rng, maxdeg=3, frac=True):
    p = base.p
    if not base.local:
        return base.from_int(rng.randrange(p))
    num = tuple(rng.randrange(p) for _ in range(rng.randrange(maxdeg + 1)))
    if frac and rng.random() < 0.3:
        den = (1,) + tuple(rng.randrange(p) for _ in range(rng.randrange(2)))
        return base.scalar(num, den)
    return base.poly(num)


def rand_mat(base, rng, m, n, **kw):
    return Mat(base, [[rand_scalar(base, rng, **kw) for _ in range(n)]
                      for _ in range(m)])


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def test_scalar_field_arithmetic():
    a = F5.from_int(3)
    b = F5.from_int(4)
    assert (a * b) == F5.from_int(12)
    assert (a + b) == F5.from_int(2)
    assert a.inverse() == F5.from_int(2)  # 3*2 = 6 = 1 mod 5


def test_scalar_local_normalization_is_canonical():
    # (t + t^2) / (1 + t) == t
    a = L2.scalar((0, 1, 1), (1, 1))
    assert a == L2.t_power(1)
    assert a.val() == 1
    # 2t == 0 over F_2
    assert L2.scalar((0, 2)).is_zero()


def test_scalar_unit_and_inverse():
    u = L3.scalar((1, 2), (1,))  # 1 + 2t, a unit
    assert u.is_unit()
    assert (u * u.inverse()) == L3.one()
    nonunit = L3.t_power(2)
    with pytest.raises(ExactDivisionError):
        nonunit.inverse()


def test_scalar_exact_division():
    a = L3.t_power(3)
    b = L3.scalar((0, 1, 1))  # t + t^2 = t(1+t)
    q = a.div(b)
    assert (q * b) == a
    with pytest.raises(ExactDivisionError):
        b.div(a)  # val 1 by val 3: quotient not in D


def test_reduce_mod_matches_series_inverse():
    a = L3.scalar((1,), (1, 1))  # 1/(1+t) = 1 - t + t^2 - ...
    r = a.reduce_mod(4)
    assert r.num == (1, 2, 1, 2)  # mod 3: 1, -1, 1, -1


@given(st.integers(0, 3 ** 5 - 1), st.integers(0, 3 ** 5 - 1), st.integers(0, 3 ** 5 - 1))
@settings(max_examples=60)
def test_scalar_ring_axioms_local(x, y, z):
    def dec(v):
        return L3.poly([(v // 3 ** i) % 3 for i in range(5)])
    a, b, c = dec(x), dec(y), dec(z)
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == L3.zero()


# The fast paths (den = (1,), division by t^v) against the gcd route.  A
# reference value is built from its raw num/den after scaling both by a
# non-trivial unit, so that den != (1,) and the gcd route normalizes it.

def _slow(base, num, den, unit):
    p = base.p
    if pmul(den, unit, p) == (1,):  # over F_p: c * den = 1, so c^2 * den = c
        unit = pmul(unit, unit, p)
    num, den = pmul(num, unit, p), pmul(den, unit, p)
    assert den != (1,)
    return Scalar(base, num, den)


def _outcome(f):
    try:
        s = f()
    except (ExactDivisionError, ZeroDivisionError) as exc:
        return type(exc)
    return s.num, s.den


@st.composite
def fraction_cases(draw):
    base = draw(st.sampled_from([L2, L3, F5]))
    p, deg = base.p, (3 if base.local else 0)

    def raw_poly(max_len, unit_first=False):
        # raw coefficients, some outside [0, p), so that reduction mod p matters
        c = draw(st.lists(st.integers(-p, 3 * p), max_size=max_len))
        if unit_first:
            c = [draw(st.integers(1, p - 1)) + p * draw(st.integers(0, 2))] + c
        return tuple(c)

    def raw_fraction():
        den = raw_poly(deg, unit_first=True) if draw(st.booleans()) else (1,)
        return raw_poly(deg + 1), den

    if base.local:  # a non-constant unit
        unit = ((draw(st.integers(1, p - 1)),) + (0,) * draw(st.integers(0, 1))
                + (draw(st.integers(1, p - 1)),))
    else:
        unit = (draw(st.integers(2, p - 1)),)
    return (base, raw_fraction(), raw_fraction(), unit,
            draw(st.integers(0, 3)), draw(st.integers(0, 4)))


@given(fraction_cases())
@settings(max_examples=300, deadline=None)
@example((L3, ((5,), (1,)), ((0, 1), (1,)), (1, 1), 2, 1))
@example((L3, ((0, 4, 3), (1,)), ((2, 1), (1,)), (1, 1), 1, 0))
def test_scalar_fast_paths_match_gcd_route(case):
    base, (an, ad), (bn, bd), unit, v, k = case
    p = base.p
    a, b = Scalar(base, an, ad), Scalar(base, bn, bd)
    assert (a.num, a.den) == _outcome(lambda: _slow(base, an, ad, unit))
    assert (b.num, b.den) == _outcome(lambda: _slow(base, bn, bd, unit))
    cross = (pmul(a.num, b.den, p), pmul(b.num, a.den, p), pmul(a.den, b.den, p))
    assert _outcome(lambda: a + b) == _outcome(
        lambda: _slow(base, padd(cross[0], cross[1], p), cross[2], unit))
    assert _outcome(lambda: a - b) == _outcome(
        lambda: _slow(base, padd(cross[0], pneg(cross[1], p), p), cross[2], unit))
    assert _outcome(lambda: a * b) == _outcome(lambda: _slow(
        base, pmul(a.num, b.num, p), pmul(a.den, b.den, p), unit))
    assert _outcome(lambda: -a) == _outcome(
        lambda: _slow(base, pneg(a.num, p), a.den, unit))
    tv = base.t_power(v) if base.local else base.one()
    assert _outcome(lambda: a.div(tv)) == _outcome(lambda: (
        a if a.is_zero() else _slow(base, a.num, pshift(a.den, tv.val()), unit)))
    if not b.is_zero():
        assert _outcome(lambda: a.div(b)) == _outcome(lambda: (
            a if a.is_zero() else
            _slow(base, pmul(a.num, b.den, p), pmul(a.den, b.num, p), unit)))
    assert _outcome(lambda: a.reduce_mod(k)) == _outcome(lambda: _slow(
        base, pmod_tk(pmul(a.num, pinv_series(a.den, k, p), p), k), (1,), unit))
    if a.is_unit():
        assert _outcome(a.inverse) == _outcome(
            lambda: _slow(base, a.den, a.num, unit))
    else:
        with pytest.raises(ExactDivisionError):
            a.inverse()


def test_scalar_checks_kept_by_the_fast_paths():
    with pytest.raises(ValueError):
        F5.scalar((1, 1))
    with pytest.raises(ValueError):
        F5.poly([1, 1])
    with pytest.raises(ValueError):
        F5.t_power(1)
    assert F5.t_power(0) is F5.one()
    for base, den in ((L3, ()), (L3, (3,)), (F5, (0,)), (F5, (5,))):
        with pytest.raises(ZeroDivisionError):
            base.scalar((1,), den)
    with pytest.raises(ExactDivisionError):
        L3.scalar((1,), (0, 1))
    with pytest.raises(ExactDivisionError):
        L3.t_power(1).div(L3.t_power(2))


# Shared across examples, so their operation tables warm up over the run.
WARM = {(b.p, b.local): Base(b.p, b.local) for b in (L2, L3, F5)}
OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
       "*": lambda a, b: a * b, "div": lambda a, b: a.div(b)}


@given(fraction_cases())
@settings(max_examples=200, deadline=None)
def test_operation_tables_match_a_fresh_base(case):
    base, (an, ad), (bn, bd), _, v, k = case
    p = base.p
    warm = WARM[(p, base.local)]
    a, b = Scalar(warm, an, ad), Scalar(warm, bn, bd)
    # the same numerators over den 1: a key without den would mix them up
    operands = [a, b, Scalar(warm, a.num), Scalar(warm, b.num)]
    for x, y in itertools.product(operands, repeat=2):
        for op, f in OPS.items():
            if op == "div" and y.is_zero():
                continue
            fresh = Base(p, base.local)
            want = _outcome(lambda: f(Scalar(fresh, x.num, x.den),
                                      Scalar(fresh, y.num, y.den)))
            assert _outcome(lambda: f(x, y)) == want  # miss or hit
            assert _outcome(lambda: f(x, y)) == want  # hit
            if not isinstance(want, type):  # a hit shares the stored Scalar
                first = f(x, y)
                assert f(x, y) is first and first.base is warm
    for x in operands:
        fresh = Base(p, base.local)
        assert -x == Scalar(fresh, pneg(x.num, p), x.den) and -x is -x
        if x.is_unit():
            assert x.inverse() == Scalar(fresh, x.den, x.num)
            assert x.inverse() is x.inverse()
        else:  # a non-unit raises every time and stores nothing
            size = len(warm._ops)
            for _ in range(2):
                with pytest.raises(ExactDivisionError):
                    x.inverse()
            assert len(warm._ops) == size
        r = x.reduce_mod(k)
        assert r == Scalar(fresh, pmod_tk(
            pmul(x.num, pinv_series(x.den, k, p), p), k))
        assert x.reduce_mod(k) is r
        # a value already reduced is its own residue
        assert (r is x) == (x.den == (1,) and len(x.num) <= k)
    if base.local and not a.is_zero():
        # a failing div raises every time and stores nothing
        tv = warm.t_power(a.val() + 1 + v)
        size = len(warm._ops)
        for _ in range(2):
            with pytest.raises(ExactDivisionError):
                a.div(tv)
        assert len(warm._ops) == size
    # one constant object per base
    fresh = Base(p, base.local)
    assert warm.zero() is warm.zero() and warm.one() is warm.one()
    assert warm.from_int(v) is warm.from_int(v) == fresh.from_int(v)
    assert fresh.one() is not warm.one() and fresh.one() == warm.one()
    if base.local:
        assert warm.t_power(v) is warm.t_power(v) == fresh.t_power(v)
    assert warm._ops
    assert warm == fresh and hash(warm) == hash(fresh)
    assert repr(warm) == repr(fresh)


def test_shared_scalars_are_immutable():
    s = L3.t_power(1) + L3.one()
    for name in ("num", "den", "base"):
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))
    assert s == L3.poly((1, 1)) and s is L3.t_power(1) + L3.one()


def test_pinv_series():
    a = (1, 1, 2)
    inv = pinv_series(a, 6, 3)
    assert pmod_tk(pmul(a, inv, 3), 6) == (1,)


def test_pgcd_monic():
    # (t+1)(t+2) and (t+1)t over F_3
    a = pmul((1, 1), (2, 1), 3)
    b = pmul((1, 1), (0, 1), 3)
    assert pgcd(a, b, 3) == (1, 1)


# ---------------------------------------------------------------------------
# smith / kernel / solve
# ---------------------------------------------------------------------------

def _replayed(base, replay_block, k):
    """The k x k matrix of a replayed transform: its block replay of the
    identity."""
    return replay_block(Mat.identity(base, k))


def _col(base, w):
    """The one-column block of the vector w."""
    return Mat.from_cols(base, len(w), [w])


def _det(M):
    """Determinant by the Leibniz formula (desk sizes only)."""
    base = M.base
    out = base.zero()
    for perm in itertools.permutations(range(M.n)):
        term = base.one()
        for i, j in enumerate(perm):
            term = term * M.rows[i][j]
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        out = out - term if odd else out + term
    return out


def check_smith(A):
    snf = smith(A)
    base = A.base
    U = _replayed(base, snf.u_block, A.m)
    V = _replayed(base, snf.v_block, A.n)
    S = U @ A @ V
    for i in range(A.m):
        for j in range(A.n):
            want = base.zero()
            if i == j and i < snf.rank:
                want = base.t_power(snf.exps[i])
            assert S.rows[i][j] == want, (i, j, S.rows[i][j], want)
    assert (U @ _replayed(base, snf.uinv_block, A.m)) == Mat.identity(base, A.m)
    assert _det(V).is_unit()  # V is unimodular
    assert list(snf.exps) == sorted(snf.exps)
    return snf


def test_smith_known_local():
    # diag-able example: [[t, t^2], [t^2, t^2]] over F_2[t]_(t)
    A = Mat(L2, [[L2.t_power(1), L2.t_power(2)],
                 [L2.t_power(2), L2.t_power(2)]])
    snf = check_smith(A)
    # det = t^3 + t^4 ~ val 3, min entry val 1 -> exps [1, 2]
    assert snf.exps == (1, 2)


def test_smith_random_roundtrip():
    rng = random.Random(7)
    for base in (F5, L2, L3):
        for _ in range(25):
            m, n = rng.randrange(1, 5), rng.randrange(1, 5)
            check_smith(rand_mat(base, rng, m, n))


def scalars(base):
    """Scalars of base: constants over F_p, fractions of degree <= 2 locally."""
    coeff = st.integers(0, base.p - 1)
    if not base.local:
        return coeff.map(base.from_int)
    return st.builds(base.scalar, st.lists(coeff, max_size=3).map(tuple),
                     st.one_of(st.just((1,)), coeff.map(lambda c: (1, c))))


@st.composite
def smith_cases(draw):
    """(A, x, w): A of 0..4 rows and 0..4 columns, x of length n, w of m."""
    base = draw(st.sampled_from([F5, L2, L3]))
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = scalars(base)
    A = Mat.zeros(base, m, n)
    A.rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    return (A, [draw(entry) for _ in range(n)],
            [draw(entry) for _ in range(m)])


@given(smith_cases())
@settings(max_examples=150, deadline=None)
@example((Mat.zeros(L3, 0, 2), [L3.one(), L3.t_power(1)], []))
@example((Mat.zeros(L3, 2, 0), [], [L3.one(), L3.zero()]))
def test_smith_replays_invert_and_solve(case):
    A, x, w = case
    snf = smith(A)
    W = _col(A.base, w)
    assert snf.u_block(W).col(0) == _ref_u(snf, w)
    assert snf.uinv_block(W).col(0) == _ref_uinv(snf, w)
    assert snf.uinv_block(snf.u_block(W)) == W
    assert snf.u_block(snf.uinv_block(W)) == W
    b = A @ x
    X = snf.coords_block(_col(A.base, b), A.n)
    assert X.col(0) == _ref_coords(snf, b, A.n)
    assert snf.image_block(X).col(0) == _ref_image(snf, X.col(0)) == b
    K = kernel(A)
    assert (K.m, K.n) == (A.n, A.n - snf.rank) and (A @ K).is_zero()
    got = solve(A, b)
    assert got is not None and A @ got == b
    got = solve(A, w)
    assert got is None or A @ got == w
    assert in_span(A, w) == (got is not None)
    # the form's own solve and kernel: the same answers, read off one form
    assert (snf.m, snf.n) == (A.m, A.n)
    assert snf.kernel_block() == K
    assert all(not a.num for k in K.cols() for a in A @ k)
    assert snf.solve(w) == got
    got = snf.solve(b)
    assert got is not None and A @ got == b


# ---------------------------------------------------------------------------
# the form table: smith keeps each SNF on the Base of its matrix
# ---------------------------------------------------------------------------

# Shared across examples, so their form tables fill up over the run.
WARM_FORMS = {(b.p, b.local): Base(b.p, b.local) for b in (L2, L3, F5)}


def _over(base, rows, n):
    """The matrix of the entries of rows (n columns) rebuilt over base."""
    out = Mat.zeros(base, len(rows), n)
    out.rows = [[Scalar(base, a.num, a.den) for a in row] for row in rows]
    return out


def _answers(snf, A, xs, ws):
    """What callers read off a form: exps, rank, solve, coords, kernel."""
    return (snf.exps, snf.rank, snf.kernel_block(), [snf.solve(w) for w in ws],
            [snf.coords_block(_col(A.base, w), A.n) for w in ws],
            [snf.solve(A @ x) for x in xs])


@given(smith_cases(), smith_cases())
@settings(max_examples=150, deadline=None)
def test_a_kept_form_equals_a_fresh_elimination(case, other):
    A, x, w = case
    warm = WARM_FORMS[(A.base.p, A.base.local)]
    A = _over(warm, A.rows, A.n)
    first = smith(A)
    assert smith(A) is first  # a hit returns the kept SNF itself
    assert smith(_over(warm, A.rows, A.n)) is first  # so does an equal copy
    fresh = _over(Base(warm.p, warm.local), A.rows, A.n)
    want = smith(fresh)
    assert first == want and first.base is warm  # the same recorded operations
    # more vectors of the right lengths, from the second case's entries
    pool = [a for row in other[0].rows for a in row] + other[1] + other[2]
    pool = [Scalar(warm, a.num, a.den) for a in pool if a.base.p == warm.p
            and a.base.local == warm.local] or [warm.one()]
    xs = [x] + [[pool[(i + k) % len(pool)] for i in range(A.n)]
                for k in (0, 1)]
    ws = [w] + [[pool[(i + k) % len(pool)] for i in range(A.m)]
                for k in (0, 1)]
    assert _answers(first, A, xs, ws) == _answers(want, fresh, xs, ws)


@st.composite
def fraction_matrices(draw):
    """A local matrix with at least one entry t/(1 + c t), whose den is not 1,
    over a warm base."""
    base = WARM_FORMS[(draw(st.sampled_from([2, 3])), True)]
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    A = Mat.zeros(base, m, n)
    A.rows = [[draw(scalars(base)) for _ in range(n)] for _ in range(m)]
    c = draw(st.integers(1, base.p - 1))
    A.rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = (
        base.scalar((0, 1), (1, c)))
    return A


@given(fraction_matrices())
@settings(max_examples=100, deadline=None)
def test_forms_of_equal_nums_and_other_dens_are_kept_apart(A):
    warm = A.base
    nums = _over(warm, [[Scalar(warm, a.num) for a in row] for row in A.rows],
                 A.n)
    assert nums != A
    kept = smith(A), smith(nums)
    assert kept[0] is not kept[1]
    for B, snf in zip((A, nums), kept):
        assert snf == smith(_over(Base(warm.p, True), B.rows, B.n))


def test_forms_of_other_shapes_are_kept_apart():
    base = Base(3, local=True)
    t = [base.t_power(k) for k in range(6)]
    mats = [Mat(base, [t[:3], t[3:]]), Mat(base, [t[:2], t[2:4], t[4:]]),
            Mat.zeros(base, 0, 2), Mat.zeros(base, 2, 0),
            Mat.zeros(base, 0, 3), Mat.zeros(base, 0, 0)]
    forms = [smith(A) for A in mats]
    assert len({id(f) for f in forms}) == len(forms)
    assert [(f.m, f.n) for f in forms] == [(A.m, A.n) for A in mats]
    assert len(base._forms) == len(mats)


def test_kept_forms_are_immutable_and_freed_with_their_base():
    base = Base(3, local=True)
    snf = smith(Mat(base, [[base.t_power(1), base.one()],
                           [base.zero(), base.t_power(2)]]))
    for name in ("base", "m", "n", "exps", "rank", "row_ops", "col_ops"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(snf, name, getattr(snf, name))
    assert all(isinstance(getattr(snf, name), tuple)
               for name in ("exps", "row_ops", "col_ops"))
    kept = weakref.ref(base)  # the table is a field of its Base
    del snf, base
    gc.collect()
    assert kept() is None


def test_kernel_is_saturated_and_exact():
    rng = random.Random(11)
    for base in (F5, L3):
        for _ in range(20):
            A = rand_mat(base, rng, rng.randrange(1, 4), rng.randrange(1, 5))
            K = kernel(A)
            assert (A @ K).is_zero()
            snfA = smith(A)
            assert K.n == A.n - snfA.rank
            if K.n:
                # saturated: invariant factors of the kernel basis are units
                assert all(e == 0 for e in smith(K).exps)


def test_solve_consistency():
    rng = random.Random(13)
    for base in (F5, L2):
        for _ in range(30):
            A = rand_mat(base, rng, rng.randrange(1, 4), rng.randrange(1, 4))
            x = [rand_scalar(base, rng) for _ in range(A.n)]
            b = A @ x
            got = solve(A, b)
            assert got is not None
            assert (A @ got) == b


def test_solve_insolvable():
    # t*x = 1 has no solution in D
    A = Mat(L2, [[L2.t_power(1)]])
    assert solve(A, [L2.one()]) is None


def test_solve_matrix():
    A = Mat(L3, [[L3.t_power(1), L3.one()], [L3.zero(), L3.t_power(2)]])
    B = A @ Mat(L3, [[L3.one(), L3.zero()], [L3.t_power(1), L3.one()]])
    X = solve_matrix(A, B)
    assert X is not None and (A @ X) == B


def test_cokernel_invariants():
    # D^2 / <(t,0),(0,t^3)> = D/t + D/t^3
    A = Mat(L2, [[L2.t_power(1), L2.zero()], [L2.zero(), L2.t_power(3)]])
    assert cokernel_invariants(A) == (0, (1, 3))
    # one free generator left
    B = Mat(L2, [[L2.t_power(2)], [L2.zero()]])
    assert cokernel_invariants(B) == (1, (2,))


@st.composite
def preimage_systems(draw):
    """(p, n, [(A_b, S_b, columns of S_b)]) over F_p, 0..3 blocks of 0..3
    rows."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4))
    entry = st.integers(0, p - 1)
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        m, k = draw(st.integers(0, 3)), draw(st.integers(0, 2))
        blocks.append(([[draw(entry) for _ in range(n)] for _ in range(m)],
                       [[draw(entry) for _ in range(k)] for _ in range(m)],
                       k))
    return p, n, blocks


def _int_mat(base, rows, n):
    out = Mat.zeros(base, len(rows), n)
    for i, row in enumerate(rows):
        out.rows[i] = [base.from_int(c) for c in row]
    return out


def _int_span(p, cols, n):
    """All F_p-combinations of integer column vectors of length n."""
    out = {(0,) * n}
    for c in cols:
        out = {tuple((v[i] + a * c[i]) % p for i in range(n))
               for v in out for a in range(p)}
    return out


@given(preimage_systems())
@settings(max_examples=80, deadline=None)
@example((2, 3, [([], [], 0)]))
@example((3, 2, []))
def test_preimage_matches_brute_force(system):
    # preimage_all stacks the blocks into one preimage(A, span) call
    p, n, blocks = system
    base = Base(p, local=False)
    got = preimage_all(base, n, [(_int_mat(base, rows, n),
                                  _int_mat(base, srows, k))
                                 for rows, srows, k in blocks])
    assert got.m == n and all(any(x.num for x in c) for c in got.cols())
    want = set()
    for x in itertools.product(range(p), repeat=n):
        for rows, srows, k in blocks:
            ax = tuple(sum(a * b for a, b in zip(r, x)) % p for r in rows)
            scols = [[r[j] for r in srows] for j in range(k)]
            if ax not in _int_span(p, scols, len(rows)):
                break
        else:
            want.add(x)
    cols = [[c.num[0] if c.num else 0 for c in col] for col in got.cols()]
    assert _int_span(p, cols, n) == want


# ---------------------------------------------------------------------------
# subquotients
# ---------------------------------------------------------------------------

def test_subquotient_basic():
    # U = D^2, V = <(t^2,0),(0,t^3)>: invariants (2,3) ascending
    U = Mat.identity(L2, 2)
    V = Mat(L2, [[L2.t_power(2), L2.zero()], [L2.zero(), L2.t_power(3)]])
    sq = Subquotient(L2, 2, U, V)
    assert sq.exps == (2, 3)
    assert sq.length() == 5
    # round trip project(lift) = id
    for coords in ([L2.one(), L2.zero()], [L2.t_power(1), L2.one()]):
        w = sq.lift(coords)
        back = sq.project(w)
        assert back == [c.reduce_mod(e) for c, e in zip(coords, sq.exps)]


def test_subquotient_free_part_and_membership():
    # U = <(1,0)>, V = 0 inside D^2: one free invariant
    U = Mat.from_cols(L3, 2, [[L3.one(), L3.zero()]])
    V = Mat.zeros(L3, 2, 0)
    sq = Subquotient(L3, 2, U, V)
    assert sq.exps == (None,)
    assert sq.length() is None
    assert sq.contains([L3.t_power(2), L3.zero()])
    assert not sq.contains([L3.zero(), L3.one()])
    with pytest.raises(NotInSpanError):
        sq.project([L3.zero(), L3.one()])


def test_subquotient_random_roundtrip():
    rng = random.Random(17)
    for base in (F5, L3):
        for _ in range(15):
            n = rng.randrange(1, 4)
            Ug = rand_mat(base, rng, n, rng.randrange(1, 4))
            # V: random D-combinations of U times non-units, plus t*U
            combos = []
            for _ in range(rng.randrange(0, 3)):
                coeffs = [rand_scalar(base, rng) for _ in range(Ug.n)]
                v = Ug @ coeffs
                s = base.t_power(rng.randrange(1, 3)) if base.local else base.zero()
                combos.append([x * s for x in v])
            Vg = Mat.from_cols(base, n, combos)
            sq = Subquotient(base, n, Ug, Vg)
            # every U generator projects and lifts consistently
            for j in range(Ug.n):
                w = Ug.col(j)
                c = sq.project(w)
                w2 = sq.lift(c)
                diff = [a - b for a, b in zip(w, w2)]
                # difference must lie in V + (torsion kill): project to zero
                assert all(x.is_zero() for x in sq.project(diff))
            # the canonical basis lifts into U and projects back to e_i
            B = sq.basis()
            k = len(sq.exps)
            assert (B.m, B.n) == (n, k)
            assert sq.project_cols(B) == Mat.identity(base, k)
            assert all(sq.contains(B.col(j)) for j in range(k))
            assert sq.project_cols(Ug) == Mat.from_cols(
                base, k, [sq.project(Ug.col(j)) for j in range(Ug.n)])


def _random_sub(base, rng, n, k):
    """k random D-combinations of the columns of an n x n matrix."""
    G = rand_mat(base, rng, n, n)
    return Mat.from_cols(base, n, [G @ [rand_scalar(base, rng) for _ in range(n)]
                                   for _ in range(k)])


def _subquotient_outputs(sq, ws, order):
    """exps, basis(), and project/lift of the ws, in the given call order."""
    out = {}
    for what in order:
        if what == "exps":
            out[what] = sq.exps
        elif what == "project":
            out[what] = [sq.project(w) for w in ws]
        elif what == "lift":
            out[what] = [sq.lift(sq.project(w)) for w in ws]
        else:
            out[what] = sq.basis()
    return out


@given(st.sampled_from([L2, L3]), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_subquotient_whole_ambient_and_call_order(base, n, k, seed):
    rng = random.Random(seed)
    V = _random_sub(base, rng, n, k)
    ws = [[rand_scalar(base, rng) for _ in range(n)] for _ in range(3)]
    orders = [("exps", "project", "lift", "basis"),
              ("lift", "project", "basis", "exps"),
              ("basis", "lift", "exps", "project")]
    ref = _subquotient_outputs(Subquotient(base, n, Mat.identity(base, n), V),
                               ws, orders[0])
    for order in orders:
        assert _subquotient_outputs(Subquotient(base, n, None, V),
                                    ws, order) == ref
    # a proper U: V inside t*U, vectors inside U, any call order
    U = hstack(base, [_random_sub(base, rng, n, n), V], m=n)
    tV = Mat.from_cols(base, n, [[x * base.t_power(1) for x in c]
                                 for c in V.cols()])
    inU = [U @ [rand_scalar(base, rng) for _ in range(U.n)] for _ in range(3)]
    ref = _subquotient_outputs(Subquotient(base, n, U, tV), inU, orders[0])
    for order in orders[1:]:
        assert _subquotient_outputs(Subquotient(base, n, U, tV),
                                    inU, order) == ref
    # V not inside U still fails at construction
    with pytest.raises(NotInSpanError):
        Subquotient(base, n, Mat.identity(base, n).scale(base.t_power(1)),
                    Mat.identity(base, n))


def test_in_span_and_hstack():
    A = Mat(L2, [[L2.t_power(1)], [L2.t_power(2)]])
    assert in_span(A, [L2.t_power(2), L2.t_power(3)])
    assert not in_span(A, [L2.one(), L2.zero()])
    H = hstack(L2, [A, Mat.identity(L2, 2)])
    assert H.n == 3 and in_span(H, [L2.one(), L2.zero()])
    # blocks with no rows keep their widths, and so does a transpose
    assert hstack(L2, [Mat.zeros(L2, 0, 3), Mat.zeros(L2, 0, 2)], m=0).n == 5
    assert hstack(L2, [A, A]).m == 2
    T = Mat.zeros(L2, 2, 0).transpose()
    assert (T.m, T.n) == (0, 2)


# ---------------------------------------------------------------------------
# matrix builders and products
# ---------------------------------------------------------------------------

F2, F3 = Base(2, local=False), Base(3, local=False)


@st.composite
def sparse_products(draw):
    """(A, B, v) with A of m x n, B of n x k and v of length n (each of
    0..4), over F_2, F_3 or the local base, with whole rows and columns of
    A and B set to zero."""
    base = draw(st.sampled_from([F2, F3, L2, L3]))
    m, n, k = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.one_of(st.just(base.zero()), scalars(base))

    def matrix(rows, cols):
        dead_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
        dead_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
        return Mat.from_cols(base, rows, [
            [base.zero() if i in dead_rows or j in dead_cols else draw(entry)
             for i in range(rows)] for j in range(cols)])
    return matrix(m, n), matrix(n, k), [draw(entry) for _ in range(n)]


def _dense_sum(base, terms):
    acc = base.zero()
    for t in terms:
        acc = acc + t
    return acc


@given(sparse_products())
@settings(max_examples=200, deadline=None)
def test_products_equal_the_dense_sums(case):
    A, B, v = case
    base = A.base
    Av = A @ v
    assert Av == [_dense_sum(base, [A.rows[i][j] * v[j] for j in range(A.n)])
                  for i in range(A.m)]
    AB = A @ B
    assert (AB.m, AB.n) == (A.m, B.n)
    assert AB.rows == [
        [_dense_sum(base, [A.rows[i][j] * B.rows[j][c] for j in range(A.n)])
         for c in range(B.n)] for i in range(A.m)]


def _row_ids(*mats):
    return [id(row) for mat in mats for row in mat.rows]


@given(sparse_products())
@settings(max_examples=50, deadline=None)
def test_builders_share_no_row_list(case):
    A, B, _ = case
    base = A.base
    built = [Mat.zeros(base, A.m, A.n), Mat.zeros(base, 3, 0),
             Mat.identity(base, A.m), Mat.identity(base, 3),
             Mat.from_cols(base, A.n, A.rows), Mat.from_cols(base, A.m, A.cols()),
             hstack(base, [A, A], m=A.m), hstack(base, [B], m=B.m),
             A.transpose(), B.transpose(), A @ B, A + A, -A, A.scale(base.one()),
             A.with_rows([list(r) for r in A.rows])]
    ids = _row_ids(A, B, *built)
    assert len(ids) == len(set(ids))
    # vstack copies the rows of its blocks, which stay theirs
    ids = _row_ids(A, B, vstack(base, [A, A, B.transpose()]))
    assert len(ids) == len(set(ids))


# ---------------------------------------------------------------------------
# block replays: one walk over the recorded operations for many columns
# ---------------------------------------------------------------------------

F2 = Base(2, local=False)
F3 = Base(3, local=False)


def _ref_u(snf, w):
    """U w by the documented meaning of row_ops, one entry at a time."""
    w = list(w)
    for kind, i, j, s in snf.row_ops:
        if kind == "swap":
            w[i], w[j] = w[j], w[i]
        elif kind == "scale":
            w[i] = w[i] * s
        else:
            w[i] = w[i] - s * w[j]
    return w


def _ref_uinv(snf, w):
    """U^-1 w: the inverse of each row operation, last first."""
    w = list(w)
    for kind, i, j, s in reversed(snf.row_ops):
        if kind == "swap":
            w[i], w[j] = w[j], w[i]
        elif kind == "scale":
            w[i] = w[i].div(s)
        else:
            w[i] = w[i] + s * w[j]
    return w


def _ref_v(snf, x):
    """V x: column j of the working matrix lost g times column i, so V x
    undoes the column operations in reverse on the coordinates."""
    x = list(x)
    for kind, i, j, g in reversed(snf.col_ops):
        if kind == "swap":
            x[i], x[j] = x[j], x[i]
        else:
            x[j] = x[j] - g * x[i]
    return x


def _ref_coords(snf, w, n):
    """The x with diag(t^e) x = U w, or None, one column at a time."""
    base = snf.base
    z = _ref_u(snf, w)
    if any(a.num for a in z[snf.rank:]):
        return None
    x = [base.zero()] * n
    for i, e in enumerate(snf.exps):
        try:
            x[i] = z[i].div(base.t_power(e))
        except ExactDivisionError:
            return None
    return x


def _ref_image(snf, c):
    """U^-1 diag(t^e) c, zero-padded to length m."""
    base = snf.base
    z = [base.zero()] * snf.m
    for i, e in enumerate(snf.exps):
        z[i] = c[i] * base.t_power(e)
    return _ref_uinv(snf, z)


def _cols_or_none(base, m, cols):
    """The Mat of the columns cols (m rows), or None when one is None."""
    if any(c is None for c in cols):
        return None
    return Mat.from_cols(base, m, cols)


@st.composite
def block_cases(draw):
    """(A, B, X): A of 0..4 rows and columns over F_2, F_3, F_5 or a local
    base, often rank-deficient (a product through fewer columns) and with
    local entries whose den is not 1; blocks B of A.m rows and X of A.n rows,
    each of width 0..3, whose columns are zero or drawn, and for B also
    images of A."""
    base = draw(st.sampled_from([F2, F3, F5, L2, L3]))
    entry = scalars(base)
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))

    def mat(rows, cols):
        return Mat(base, [[draw(entry) for _ in range(cols)]
                          for _ in range(rows)]) if rows else \
            Mat.zeros(base, 0, cols)
    r = draw(st.integers(0, 4))
    A = mat(m, r) @ mat(r, n) if r < min(m, n) else mat(m, n)
    if base.local and m and n and draw(st.booleans()):
        A.rows[0][0] = base.scalar((0, 1), (1, draw(st.integers(1, base.p - 1))))

    def block(rows, kinds):
        cols = []
        for _ in range(draw(st.integers(0, 3))):
            how = draw(st.sampled_from(kinds))
            if how == "image":
                cols.append(A @ [draw(entry) for _ in range(n)])
            else:
                cols.append([base.zero() if how == "zero" else draw(entry)
                             for _ in range(rows)])
        return Mat.from_cols(base, rows, cols)
    return A, block(m, ["image", "zero", "drawn"]), block(n, ["zero", "drawn"])


@given(block_cases())
@settings(max_examples=200, deadline=None)
@example((Mat.zeros(L3, 0, 2), Mat.zeros(L3, 0, 3), Mat.zeros(L3, 2, 0)))
@example((Mat.zeros(F3, 2, 0), Mat.zeros(F3, 2, 0), Mat.zeros(F3, 0, 2)))
def test_block_replays_equal_per_column_replays(case):
    A, B, X = case
    snf = smith(A)
    base, m, n = A.base, A.m, A.n
    assert snf.u_block(B) == Mat.from_cols(
        base, m, [_ref_u(snf, c) for c in B.cols()])
    assert snf.uinv_block(B) == Mat.from_cols(
        base, m, [_ref_uinv(snf, c) for c in B.cols()])
    assert snf.v_block(X) == Mat.from_cols(
        base, n, [_ref_v(snf, c) for c in X.cols()])
    # coords and solve: None for the block exactly when a column has none
    coords = [_ref_coords(snf, c, n) for c in B.cols()]
    assert snf.coords_block(B, n) == _cols_or_none(base, n, coords)
    got = snf.solve_block(B)
    assert got == _cols_or_none(base, n, [None if x is None else
                                          _ref_v(snf, x) for x in coords])
    assert (got is None) == any(snf.solve(c) is None for c in B.cols())
    if got is not None:
        assert A @ got == B
    # image of the columns of X, read as coordinates (n >= rank rows)
    assert snf.image_block(X) == Mat.from_cols(
        base, m, [_ref_image(snf, c) for c in X.cols()])
    # the kernel block: n - rank columns that A kills
    K = snf.kernel_block()
    assert (K.m, K.n) == (n, n - snf.rank) and (A @ K).is_zero()
    assert K == Mat.from_cols(base, n, [
        _ref_v(snf, [base.one() if i == j else base.zero() for i in range(n)])
        for j in range(snf.rank, n)])
    # each column on its own: the one-column blocks
    for c in B.cols():
        C = _col(base, c)
        assert snf.u_block(C).col(0) == _ref_u(snf, c)
        assert snf.uinv_block(C).col(0) == _ref_uinv(snf, c)
        got = snf.coords_block(C, n)
        assert (None if got is None else got.col(0)) == _ref_coords(snf, c, n)
    for c in X.cols():
        assert snf.v_block(_col(base, c)).col(0) == _ref_v(snf, c)
    # a block replay writes into no row of its argument and shares none
    before = [list(r) for r in B.rows]
    out = snf.u_block(B)
    assert [list(r) for r in B.rows] == before
    assert not {id(r) for r in out.rows} & {id(r) for r in B.rows}


@st.composite
def subquotient_blocks(draw):
    """(sq, W, inside): a Subquotient U/V of D^n over F_2, F_3 or a local
    base with a proper U (t times a drawn basis over a local base, a
    rank-deficient span over a field) and a block W of 0..3 columns, each in
    U or drawn; inside says which columns lie in U by construction."""
    base = draw(st.sampled_from([F2, F3, L2, L3]))
    entry = scalars(base)
    n = draw(st.integers(1, 3))
    G = Mat(base, [[draw(entry) for _ in range(n)] for _ in range(n)])
    if base.local:
        U = G.scale(base.t_power(1))
    else:
        U = hstack(base, [Mat.from_cols(base, n, G.cols()[:n - 1])], m=n)
    V = Mat.from_cols(base, n, [U @ [draw(entry) for _ in range(U.n)]
                                for _ in range(draw(st.integers(0, 2)))])
    sq = Subquotient(base, n, U, V)
    cols, inside = [], []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            cols.append(U @ [draw(entry) for _ in range(U.n)])
            inside.append(True)
        else:
            cols.append([draw(entry) for _ in range(n)])
            inside.append(None)  # in U or not, as it falls
    return sq, Mat.from_cols(base, n, cols), inside


def _project_or_raise(sq, w):
    try:
        return sq.project(w)
    except NotInSpanError:
        return None


@given(subquotient_blocks())
@settings(max_examples=200, deadline=None)
def test_subquotient_blocks_equal_their_columns(case):
    sq, W, inside = case
    base, k = sq.base, len(sq.exps)
    per_column = [_project_or_raise(sq, w) for w in W.cols()]
    assert all(p is not None for p, ok in zip(per_column, inside) if ok)
    if any(p is None for p in per_column):
        # one column outside U fails the whole block, as it fails alone
        with pytest.raises(NotInSpanError):
            sq.project_cols(W)
        assert not all(sq.contains(w) for w in W.cols())
        return
    assert all(sq.contains(w) for w in W.cols())
    P = sq.project_cols(W)
    assert P == Mat.from_cols(base, k, per_column)
    # lift: a block of coordinates lifts column by column, back to P
    L = sq.lift_cols(P)
    assert L == Mat.from_cols(base, sq.n, [sq.lift(c) for c in P.cols()])
    assert sq.project_cols(L) == P
    assert sq.basis() == Mat.from_cols(
        base, sq.n, [sq.lift(e) for e in Mat.identity(base, k).cols()])

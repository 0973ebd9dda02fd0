"""Exact scalars and linear algebra over the coefficient base D.

D is either the finite field F_p or the localization F_p[t]_(t).  Scalars of
the local base are stored as reduced fractions num/den of polynomials in t,
with den constant-term normalized to 1; this representation is canonical, so
equality and hashing are structural.  A reduced num over den = 1 is already
normal and t^v divides out by a shift of num, so these paths skip the gcd.

Each Base keeps one operation table for +, -, * and div, keyed by the op and
the (num, den) of both operands, holding the result Scalar itself, built once
on a miss; negation (0 - x), inverse (1 / x), reduction mod t^k and the
constants from_int share the same table.  zero and one are built with the
Base and held by it, and each t^k on its first use, so asking for a
constant is an attribute or dict read and builds no key.  A hit is exact:
the representation is canonical, so the key determines the value, and the
stored Scalar is the one a fresh computation would give.  The key is
structural, so operands from an equal but distinct Base hit safely.  Scalars
are immutable, so one shared object can serve every caller.  A failing div
or inverse raises before anything is stored, so it raises again on every
call.  The table is a field of the Base, excluded from its equality, hash
and repr; its Scalars point back to the Base, and the cyclic garbage
collector frees that cycle with the ring.

The linear algebra here is the workhorse for everything else: a local Smith
normal form (diagonal entries are exact powers of t, exponents nondecreasing),
kernels and preimages modulo relations, deterministic solves, cokernel
invariants, and a Subquotient helper that puts U/V (for V <= U <= D^n) into
the canonical form D^f + D/t^a1 + ... + D/t^ak together with coordinate maps.
Each matrix is eliminated once: smith records its row and column operations,
and every transform a caller needs (U, U^-1 or V) is applied by replaying
them, so no transform matrix is ever built.  A replay acts on a block, a
Mat whose columns are the vectors, one list operation on whole rows per
recorded operation, so a caller with many vectors (the actions a
Subquotient projects, its basis, a kernel, the right-hand sides of a
solve) walks each operation list once; one vector is the one-column case.
Mat(base, rows) copies rows that may belong to another matrix; the builders
(zeros, identity, from_cols, with_rows, transpose, hstack, products) make
fresh rows and keep them without a copy, so no two matrices share a row.
The one exception is a block built only to be replayed: the replays read
its rows, never write into them, and return fresh ones.  Products list
the nonzero entries of the right operand once and visit only those.

Each Base also keeps a form table beside its operation table: smith keys a
matrix by its shape and the (num, den) of every entry and keeps the SNF it
computes, so an equal matrix, built anew or over an equal but distinct
Base, is eliminated no second time.  The key determines the elimination
(pivots and operations read only the entries), so a kept SNF is the one a
fresh elimination would give; SNFs are frozen, so one serves every caller.
The table holds its SNFs for the life of the Base and is freed with it,
like the operation table.

Rings share their Base: shared_base(p, local) hands every ring over one
coefficient ring the same Base, so a matrix eliminated for one ring over
F_p[t]_(t) (a semigroup ring, its blow-ups, the DVR) is eliminated no
second time for another, and equal scalar operations hit one table.  The
keys are pure content and Bases are equal by (p, local), so sharing
changes no result.  The shared Base is held weakly: it lives while any
ring over it lives, and its tables are freed with the last such ring.
Base(p, local) itself stays a private Base with tables of its own.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .errors import ExactDivisionError, NotInSpanError

# ---------------------------------------------------------------------------
# polynomials over F_p, as coefficient tuples (index = power of t)
# ---------------------------------------------------------------------------


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padd(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return _trim(out)


def pneg(a, p):
    return tuple((-x) % p for x in a)


def pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def pdivmod(a, b, p):
    """Polynomial division; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return _trim(q), _trim(a)


def pgcd(a, b, p):
    """Monic gcd."""
    while b:
        a, b = b, pdivmod(a, b, p)[1]
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = tuple((x * inv_lead) % p for x in a)
    return a


def pord(a):
    """t-adic order; None for the zero polynomial."""
    for i, x in enumerate(a):
        if x:
            return i
    return None


def pshift(a, k):
    """Multiply by t^k (k >= 0)."""
    if not a:
        return ()
    return (0,) * k + tuple(a)


def pmod_tk(a, k):
    return _trim(a[:k])


def pinv_series(a, k, p):
    """Inverse of a (a[0] != 0) modulo t^k."""
    inv0 = pow(a[0], p - 2, p)
    out = (inv0,)
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        # Newton: out <- out * (2 - a*out) mod t^prec
        t2 = padd(pconst(2, p), pneg(pmul(pmod_tk(a, prec), out, p), p), p)
        out = pmod_tk(pmul(out, t2, p), prec)
    return pmod_tk(out, k)


def pconst(c, p):
    c = c % p
    return (c,) if c else ()


# ---------------------------------------------------------------------------
# the base D and its scalars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Base:
    """Coefficient base: F_p (local=False) or F_p[t] localized at (t)."""

    p: int
    local: bool = False
    # operation key -> the shared result Scalar (see the module docstring)
    _ops: dict = field(default_factory=dict, init=False, compare=False,
                       hash=False, repr=False)
    # matrix key -> the shared SNF that smith returns for it
    _forms: dict = field(default_factory=dict, init=False, compare=False,
                         hash=False, repr=False)
    # k -> the shared t^k, and the shared zero and one, held as attributes
    _powers: dict = field(default_factory=dict, init=False, compare=False,
                          hash=False, repr=False)
    _zero: object = field(default=None, init=False, compare=False,
                          hash=False, repr=False)
    _one: object = field(default=None, init=False, compare=False,
                         hash=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_zero", self._canonical(()))
        object.__setattr__(self, "_one", self._canonical((1,)))

    def scalar(self, num, den=(1,)):
        return Scalar(self, num, den)

    def _canonical(self, num):
        """The shared Scalar num/1, for num trimmed with entries in [0, p)."""
        key = ("=", num)
        s = self._ops.get(key)
        if s is None:
            s = self._ops[key] = Scalar(self, num, (1,), _normalized=True)
        return s

    def from_int(self, c):
        return self._canonical(pconst(c, self.p))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def t_power(self, k):
        """t^k; over a field base only t^0 = 1 exists."""
        s = self._powers.get(k)
        if s is None:
            if k and not self.local:
                raise ValueError("t only exists over the local base")
            s = self._powers[k] = self._canonical(pshift((1,), k))
        return s

    def poly(self, coeffs):
        return Scalar(self, coeffs, (1,))


# (p, local) -> the Base shared by every live ring over that coefficient ring
_SHARED = weakref.WeakValueDictionary()


def shared_base(p, local):
    """The Base every ring over (p, local) shares, built on first use and
    freed with the last ring over it (see the module docstring)."""
    base = _SHARED.get((p, local))
    if base is None:
        base = _SHARED[(p, local)] = Base(p, local)
    return base


class Scalar:
    """Element of D, stored as a reduced fraction num/den with den[0] = 1.

    A trimmed num with coefficients in [0, p) over den = (1,) is already
    normal, so polynomial sums and products skip the gcd; dividing a reduced
    fraction by t^v shifts num by v and keeps den, which stays reduced.
    Scalars are immutable: one object serves every caller of an operation.
    """

    __slots__ = ("base", "num", "den")

    def __init__(self, base, num, den=(1,), _normalized=False):
        if not _normalized:
            num, den = self._norm(base, num, _trim(den))
        init = object.__setattr__
        init(self, "base", base)
        init(self, "num", num)
        init(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"Scalar is immutable: cannot set {name!r}")

    @staticmethod
    def _norm(base, num, den):
        p = base.p
        num = _trim(tuple(x % p for x in num))
        if den != (1,):
            den = _trim(tuple(x % p for x in den))
            if not den:
                raise ZeroDivisionError("zero denominator")
        if not base.local and (len(num) > 1 or len(den) > 1):
            raise ValueError("non-constant polynomial over a field base")
        if den == (1,):  # a reduced polynomial is already normal
            return num, den
        if not num:
            if den[0] == 0:
                raise ExactDivisionError("denominator must be a unit of D")
            return (), (1,)
        g = pgcd(num, den, p)
        if len(g) > 1 or (g and g != (1,)):
            num = pdivmod(num, g, p)[0]
            den = pdivmod(den, g, p)[0]
        if den[0] == 0:
            raise ExactDivisionError("denominator must be a unit of D")
        # scale so den[0] == 1
        if den[0] != 1:
            inv0 = pow(den[0], p - 2, p)
            num = tuple((x * inv0) % p for x in num)
            den = tuple((x * inv0) % p for x in den)
        return num, den

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_unit(self):
        return bool(self.num) and self.num[0] != 0

    def val(self):
        """t-adic valuation; None for zero.  Over a field: 0 for nonzero."""
        return pord(self.num)

    # -- arithmetic ---------------------------------------------------------
    # Each operation looks its operands up in the base's operation table and
    # builds the canonical result only on a miss (see the module docstring).

    def __add__(self, other):
        ops = self.base._ops
        key = ("+", self.num, self.den, other.num, other.den)
        s = ops.get(key)
        if s is None:
            s = ops[key] = Scalar(self.base, *_add_pair(
                self.base, self.num, self.den, other.num, other.den),
                _normalized=True)
        return s

    def __sub__(self, other):
        ops = self.base._ops
        key = ("-", self.num, self.den, other.num, other.den)
        s = ops.get(key)
        if s is None:
            s = ops[key] = Scalar(self.base, *_add_pair(
                self.base, self.num, self.den, pneg(other.num, self.base.p),
                other.den), _normalized=True)
        return s

    def __neg__(self):
        return self.base.zero() - self

    def __mul__(self, other):
        if not self.num or not other.num:
            return self.base.zero()
        ops = self.base._ops
        key = ("*", self.num, self.den, other.num, other.den)
        s = ops.get(key)
        if s is None:
            s = ops[key] = Scalar(self.base, *_mul_pair(
                self.base, self.num, self.den, other.num, other.den),
                _normalized=True)
        return s

    def inverse(self):
        if not self.is_unit():  # raises before anything is stored
            raise ExactDivisionError("not a unit of D")
        return self.base.one().div(self)

    def div(self, other):
        """Exact division in D; raises if the quotient is not in D."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if self.is_zero():
            return self
        ops = self.base._ops
        key = ("/", self.num, self.den, other.num, other.den)
        s = ops.get(key)
        if s is None:  # a failing division raises here and stores nothing
            s = ops[key] = Scalar(self.base, *_div_pair(
                self.base, self.num, self.den, other.num, other.den),
                _normalized=True)
        return s

    def reduce_mod(self, k):
        """Canonical polynomial representative modulo t^k (degree < k)."""
        if self.den == (1,):  # zero included
            if len(self.num) <= k:  # already its own residue
                return self
            return self.base._canonical(pmod_tk(self.num, k))
        ops = self.base._ops
        key = ("mod", self.num, self.den, k)
        s = ops.get(key)
        if s is None:
            p = self.base.p
            s = ops[key] = self.base._canonical(
                pmod_tk(pmul(self.num, pinv_series(self.den, k, p), p), k))
        return s

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Scalar) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        def side(c):
            terms = []
            for i, x in enumerate(c):
                if x:
                    if i == 0:
                        terms.append(str(x))
                    elif i == 1:
                        terms.append(f"{x}t" if x != 1 else "t")
                    else:
                        terms.append(f"{x}t^{i}" if x != 1 else f"t^{i}")
            return "+".join(terms) or "0"

        if self.den == (1,):
            return side(self.num)
        return f"({side(self.num)})/({side(self.den)})"


def _add_pair(base, an, ad, bn, bd):
    """Canonical (num, den) of an/ad + bn/bd."""
    p = base.p
    if ad == bd:
        num = padd(an, bn, p)
        return (num, ad) if ad == (1,) else Scalar._norm(base, num, ad)
    return Scalar._norm(base, padd(pmul(an, bd, p), pmul(bn, ad, p), p),
                        pmul(ad, bd, p))


def _mul_pair(base, an, ad, bn, bd):
    """Canonical (num, den) of (an/ad) * (bn/bd), both nonzero."""
    p = base.p
    num = pmul(an, bn, p)
    if ad == bd == (1,):
        return num, ad
    return Scalar._norm(base, num, pmul(ad, bd, p))


def _div_pair(base, an, ad, bn, bd):
    """Canonical (num, den) of (an/ad) / (bn/bd), both nonzero; raises
    ExactDivisionError when the quotient is not in D."""
    if bd == (1,):
        v = pord(bn)
        if bn[v:] == (1,):  # bn = t^v: shift an by v
            if pord(an) < v:
                raise ExactDivisionError("denominator must be a unit of D")
            return an[v:], ad
    p = base.p
    return Scalar._norm(base, pmul(an, bd, p), pmul(ad, bn, p))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class Mat:
    """Dense matrix of Scalars (desk scale; row operations skip zeros)."""

    __slots__ = ("base", "m", "n", "rows")

    def __init__(self, base, rows):
        self.base = base
        self.rows = [list(r) for r in rows]
        self.m = len(self.rows)
        self.n = len(self.rows[0]) if self.rows else 0

    @classmethod
    def _own(cls, base, rows, n):
        """The width-n matrix that keeps the fresh row lists rows as is."""
        out = object.__new__(cls)
        out.base, out.rows, out.m, out.n = base, rows, len(rows), n
        return out

    @staticmethod
    def zeros(base, m, n):
        z = base.zero()
        return Mat._own(base, [[z] * n for _ in range(m)], n)

    @staticmethod
    def identity(base, n):
        z, o = base.zero(), base.one()
        return Mat._own(base, [[o if i == j else z for j in range(n)]
                               for i in range(n)], n)

    @staticmethod
    def from_cols(base, m, cols):
        return Mat._own(base, [[c[i] for c in cols] for i in range(m)],
                        len(cols))

    def col(self, j):
        return [r[j] for r in self.rows]

    def cols(self):
        return [self.col(j) for j in range(self.n)]

    def __matmul__(self, other):
        # the right operand's nonzero entries are listed once, and each sum
        # runs over them in ascending order, as the dense loop would
        z = self.base.zero()  # scalars are immutable: one zero serves all
        if isinstance(other, list):
            nz = [(j, b) for j, b in enumerate(other) if b.num]
            out = [z] * self.m
            for i, row in enumerate(self.rows):
                acc = z
                for j, b in nz:
                    a = row[j]
                    if a.num:
                        acc = acc + a * b
                out[i] = acc
            return out
        assert self.n == other.m, (self.n, other.m)
        nz_rows = [[(j, b) for j, b in enumerate(brow) if b.num]
                   for brow in other.rows]
        rows = []
        for row in self.rows:
            orow = [z] * other.n
            for k, a in enumerate(row):
                if a.num:
                    for j, b in nz_rows[k]:
                        orow[j] = orow[j] + a * b
            rows.append(orow)
        return Mat._own(self.base, rows, other.n)

    def with_rows(self, rows):
        """A matrix of this width keeping the fresh row lists rows."""
        return Mat._own(self.base, rows, self.n)

    def __add__(self, other):
        return self.with_rows([[a + b for a, b in zip(r1, r2)]
                              for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self.with_rows([[a - b for a, b in zip(r1, r2)]
                              for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return self.with_rows([[-a for a in r] for r in self.rows])

    def scale(self, s):
        return self.with_rows([[a * s for a in r] for r in self.rows])

    def transpose(self):
        return Mat._own(self.base, [[r[j] for r in self.rows]
                                    for j in range(self.n)], self.m)

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.m == other.m and self.n == other.n
                and all(a == b for r1, r2 in zip(self.rows, other.rows)
                        for a, b in zip(r1, r2)))

    def __repr__(self):
        return "Mat[" + "; ".join(" ".join(repr(a) for a in r) for r in self.rows) + "]"


def hstack(base, mats, m=None):
    mats = [x for x in mats if x is not None and x.n > 0]
    if not mats:
        return Mat.zeros(base, m or 0, 0)
    rows = [[] for _ in range(mats[0].m)]
    for mat in mats:
        for i in range(mat.m):
            rows[i].extend(mat.rows[i])
    return Mat._own(base, rows, sum(x.n for x in mats))


def vstack(base, mats):
    rows = []
    for mat in mats:
        rows.extend(mat.rows)
    if not rows:
        return Mat.zeros(base, 0, mats[0].n if mats else 0)
    return Mat(base, rows)


def block_diag(base, mats):
    """Block-diagonal matrix with the given blocks along the diagonal."""
    out = Mat.zeros(base, sum(x.m for x in mats), sum(x.n for x in mats))
    i0 = j0 = 0
    for mat in mats:
        for i, row in enumerate(mat.rows):
            out.rows[i0 + i][j0:j0 + mat.n] = row
        i0 += mat.m
        j0 += mat.n
    return out


# ---------------------------------------------------------------------------
# local Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SNF:
    """U @ A @ V = diag(t^e for e in exps), padded by zeros; rank = len(exps).

    smith runs the elimination once and records it instead of building U
    and V.  ``row_ops`` lists the row operations of A (m x n) in the order
    they were made: ("swap", i, j, None) swaps rows i and j, ("scale", i,
    None, s) multiplies row i by the unit s, and ("add", i, j, f) subtracts
    f times row j from row i.  ``col_ops`` lists the column operations the
    same way, as ("swap", i, j, None) and ("add", i, j, g).  U is the
    product of the row operations and V that of the column operations.

    Transforms act on blocks: u_block, uinv_block and v_block apply U, U^-1
    and V to a Mat whose columns are the vectors, by one walk over the
    recorded operations, each operation one list operation on whole rows of
    the block.  coords_block, image_block and solve_block build on them,
    and solve is the one-column case of solve_block, so each transform has
    one replay loop.

    One SNF serves every caller of smith on an equal matrix, so it is
    frozen and its exps, row_ops and col_ops are tuples; the form table
    keeps it for the life of its Base, so it has slots and no __dict__.
    """

    base: Base
    m: int
    n: int
    exps: tuple
    rank: int
    row_ops: tuple
    col_ops: tuple

    # -- blocks: Mats whose columns are the vectors; a block is read and
    # never written into, and each result has fresh rows

    def u_block(self, B):
        """U B, for B with m rows."""
        W = [row[:] for row in B.rows]
        for kind, i, j, s in self.row_ops:
            if kind == "swap":
                W[i], W[j] = W[j], W[i]
            elif kind == "scale":
                W[i] = [a * s for a in W[i]]
            else:
                W[i] = [a - s * b if b.num else a for a, b in zip(W[i], W[j])]
        return B.with_rows(W)

    def uinv_block(self, B):
        """U^-1 B, for B with m rows: the inverse operations in reverse."""
        W = [row[:] for row in B.rows]
        for kind, i, j, s in reversed(self.row_ops):
            if kind == "swap":
                W[i], W[j] = W[j], W[i]
            elif kind == "scale":
                W[i] = [a.div(s) for a in W[i]]
            else:
                W[i] = [a + s * b if b.num else a for a, b in zip(W[i], W[j])]
        return B.with_rows(W)

    def v_block(self, X):
        """V X, for X with n rows: the column operations in reverse."""
        W = [row[:] for row in X.rows]
        for kind, i, j, g in reversed(self.col_ops):
            if kind == "swap":
                W[i], W[j] = W[j], W[i]
            else:
                W[j] = [a - g * b if b.num else a for a, b in zip(W[j], W[i])]
        return X.with_rows(W)

    def coords_block(self, B, n):
        """The X with n rows and diag(t^e) X = U B, or None when a column of
        U B has a nonzero entry past the rank or one that t^e does not
        divide; for columns of B in the column span of A, A = U^-1 diag(t^e)
        V^-1 gives B = image_block(X)."""
        base = self.base
        Z = self.u_block(B).rows
        if any(a.num for row in Z[self.rank:] for a in row):
            return None
        zero = base.zero()
        X = Z[:self.rank] + [[zero] * B.n for _ in range(n - self.rank)]
        for i, e in enumerate(self.exps):
            if e:
                tp = base.t_power(e)
                try:
                    X[i] = [a.div(tp) for a in X[i]]
                except ExactDivisionError:
                    return None
        return B.with_rows(X)

    def image_block(self, C):
        """U^-1 applied to diag(t^e) C, zero-padded to m rows; the columns
        of image_block of the rank x rank identity are a basis of the column
        span of A."""
        base = self.base
        zero = base.zero()
        Z = [[zero] * C.n for _ in range(self.m)]
        for i, e in enumerate(self.exps):
            tp = base.t_power(e)
            Z[i] = [c * tp for c in C.rows[i]] if e else C.rows[i]
        return self.uinv_block(C.with_rows(Z))

    def solve_block(self, B):
        """One solution X of A X = B (deterministic), or None when a column
        has none."""
        X = self.coords_block(B, self.n)
        return None if X is None else self.v_block(X)

    def kernel_block(self):
        """A free, saturated basis of {x : A x = 0}, as the columns of an
        n-row Mat."""
        base, r = self.base, self.rank
        z, o = base.zero(), base.one()
        return self.v_block(Mat._own(base, [
            [o if i == j + r else z for j in range(self.n - r)]
            for i in range(self.n)], self.n - r))

    def solve(self, b):
        """solve_block on the one column b, as a vector; None if insolvable."""
        X = self.solve_block(_column(self.base, b))
        return None if X is None else X.col(0)


def _column(base, w):
    """The one-column Mat with entries w."""
    return Mat._own(base, [[a] for a in w], 1)


def smith(A):
    """Local Smith normal form, with its row and column operations recorded.

    Pivots are chosen by minimal t-valuation, ties broken by smallest row then
    smallest column index.  Diagonal entries are normalized to exact powers t^e
    (over a field base, to 1), with exponents nondecreasing.

    The form is kept in the table of A.base, keyed by the shape of A and the
    num and den of every entry (None for the dens when all of them are 1),
    and eliminated only on a miss; an equal matrix, even over an equal but
    distinct Base, gets the kept SNF itself.
    """
    entries = [a for row in A.rows for a in row]
    dens = None
    if any(a.den != (1,) for a in entries):
        dens = tuple([a.den for a in entries])
    key = (A.m, A.n, tuple([a.num for a in entries]), dens)
    forms = A.base._forms
    snf = forms.get(key)
    if snf is None:
        snf = forms[key] = _eliminate(A)
    return snf


def _eliminate(A):
    """The SNF of A, from one elimination (see smith)."""
    base = A.base
    W = [row[:] for row in A.rows]
    m, n = A.m, A.n
    row_ops, col_ops = [], []
    exps = []
    r = 0
    while r < min(m, n):
        # find pivot of minimal valuation in W[r:, r:]
        best = None
        for i in range(r, m):
            row = W[i]
            for j in range(r, n):
                a = row[j]
                if a.num:
                    v = pord(a.num)
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if v == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        v, pi, pj = best
        if pi != r:
            W[r], W[pi] = W[pi], W[r]
            row_ops.append(("swap", r, pi, None))
        if pj != r:
            for row in W:
                row[r], row[pj] = row[pj], row[r]
            col_ops.append(("swap", r, pj, None))
        # normalize pivot to exact t^v: scale row r by the unit part inverse
        tpow = base.t_power(v)
        unit = W[r][r].div(tpow)  # pivot = t^v * unit
        if not (unit.num == (1,) and unit.den == (1,)):
            s = unit.inverse()
            W[r] = [a * s if a.num else a for a in W[r]]
            row_ops.append(("scale", r, None, s))
        # clear column r below/above using row ops
        nz_cols = [j for j in range(n) if W[r][j].num]
        for i in range(m):
            if i == r or not W[i][r].num:
                continue
            f = W[i][r].div(tpow)
            Wi, Wr = W[i], W[r]
            for j in nz_cols:
                Wi[j] = Wi[j] - f * Wr[j]
            row_ops.append(("add", i, r, f))
        # clear row r using column ops (column r is now t^v e_r)
        for j in range(n):
            if j != r and W[r][j].num:
                col_ops.append(("add", j, r, W[r][j].div(tpow)))
                W[r][j] = base.zero()
        exps.append(v)
        r += 1
    return SNF(base=base, m=m, n=n, exps=tuple(exps), rank=len(exps),
               row_ops=tuple(row_ops), col_ops=tuple(col_ops))


def kernel(A):
    """Free, saturated basis of {x : A x = 0}, as columns of a matrix."""
    return smith(A).kernel_block()


def preimage(A, span):
    """Columns spanning {x : A x in <span>} over D, zero columns dropped.

    With no rows in A there is no condition, and the identity is returned.
    """
    base = A.base
    if A.m == 0:
        return Mat.identity(base, A.n)
    K = kernel(hstack(base, [A, span], m=A.m))
    cols = [K.col(j)[:A.n] for j in range(K.n)]
    return Mat.from_cols(base, A.n, [c for c in cols if any(x.num for x in c)])


def preimage_all(base, n, conds):
    """Columns spanning {x in D^n : A x in <S> for every (A, S) in conds},
    from one preimage of the stacked A's into the block-diagonal S's."""
    if not conds:
        return Mat.identity(base, n)
    return preimage(vstack(base, [A for A, _ in conds]),
                    block_diag(base, [S for _, S in conds]))


def solve(A, b):
    """One solution x of A x = b (deterministic), or None if insolvable."""
    return smith(A).solve(b)


def solve_matrix(A, B):
    """Columnwise solve; returns X with A X = B, or None."""
    return smith(A).solve_block(B)


def in_span(A, b):
    return solve(A, b) is not None


def cokernel_invariants(A):
    """Invariants of D^m / colspan(A): (free_rank, torsion exponents)."""
    snf = smith(A)
    free = A.m - snf.rank
    torsion = tuple(e for e in snf.exps if e > 0)
    return free, torsion


# ---------------------------------------------------------------------------
# canonical subquotients U/V for V <= U <= D^n
# ---------------------------------------------------------------------------


class Subquotient:
    """Canonical form of U/V with coordinate maps.

    U and V are given by generator matrices (columns) inside ambient D^n,
    with V <= U required; U_gens=None means U = D^n, whose coordinates are
    the ambient ones.  Canonical coordinates list free invariants first,
    then torsion invariants with nondecreasing exponents; ``exps`` holds None
    for each free invariant and the exponent for each torsion one.

    Construction runs one Smith form of U_gens (the V <= U check, which
    raises NotInSpanError here) and one of V's coordinates in U, found for
    all of V's columns in one block.  Both keep their recorded operations:
    project_cols and lift_cols replay them over a block of columns, so
    projecting an action or building the basis walks each operation list
    once, and project, lift and basis are their one-column and identity
    cases; no elimination runs again.
    """

    def __init__(self, base, n, U_gens, V_gens):
        self.base = base
        self.n = n
        if U_gens is None:
            self._snfU = None
            self.rankU = n
        else:
            self._snfU = smith(U_gens)
            self.rankU = self._snfU.rank
        self._snfX = smith(self._coords_in_U(V_gens))
        exps_X = self._snfX.exps
        free_idx = list(range(len(exps_X), self.rankU))
        tors_idx = [i for i, e in enumerate(exps_X) if e > 0]
        self.kept = free_idx + tors_idx
        self.exps = tuple([None] * len(free_idx)
                          + [exps_X[i] for i in tors_idx])

    def _coords_in_U(self, W):
        """The coordinates inside U (basis from the Smith form of U_gens) of
        the columns of the ambient block W; NotInSpanError when a column
        lies outside U."""
        if self._snfU is None:
            return W
        X = self._snfU.coords_block(W, self.rankU)
        if X is None:
            raise NotInSpanError("vector not in U")
        return X

    def contains(self, w):
        try:
            self._coords_in_U(_column(self.base, w))
            return True
        except NotInSpanError:
            return False

    def project_cols(self, W):
        """Canonical coordinates of each column of W (each must lie in U),
        as columns."""
        Z = self._snfX.u_block(self._coords_in_U(W)).rows
        rows = []
        for pos, i in enumerate(self.kept):
            e = self.exps[pos]
            if e is not None and self.base.local:
                rows.append([a.reduce_mod(e) for a in Z[i]])
            else:
                rows.append(Z[i])
        return W.with_rows(rows)

    def project(self, w):
        """Canonical coordinates of the class of w (w must lie in U)."""
        return self.project_cols(_column(self.base, w)).col(0)

    def lift_cols(self, C):
        """Ambient representatives of the canonical coordinates in each
        column of C, as columns."""
        zero = self.base.zero()
        Z = [[zero] * C.n for _ in range(self.rankU)]
        for pos, i in enumerate(self.kept):
            Z[i] = C.rows[pos]
        X = self._snfX.uinv_block(C.with_rows(Z))
        if self._snfU is None:  # U = D^n: coordinates are ambient already
            return X
        return self._snfU.image_block(X)

    def lift(self, coords):
        """Ambient representative of canonical coordinates."""
        return self.lift_cols(_column(self.base, coords)).col(0)

    def basis(self):
        """Ambient lifts of the canonical basis, as the columns of an n x k
        matrix (with k = 0 it keeps its n rows)."""
        return self.lift_cols(Mat.identity(self.base, len(self.exps)))

    # -- invariants ---------------------------------------------------------

    def free_rank(self):
        return sum(1 for e in self.exps if e is None)

    def torsion(self):
        return tuple(e for e in self.exps if e is not None)

    def length(self):
        """F_p-length; None if infinite."""
        if self.base.local:
            if any(e is None for e in self.exps):
                return None
            return sum(self.exps)
        return len(self.exps)

"""Local rings over F_p presented as finite free algebras over the base D.

Three families:

* ``artin_monomial`` — F_p[x_1..x_v] / (monomial, m-primary ideal); base D = F_p,
  the D-basis is the set of standard monomials.
* ``dvr`` — F_p[t] localized at (t); base D = the ring itself, basis {1}.
* ``semigroup`` — the numerical semigroup ring F_p[[t^a : a in S]] with
  S = <a_1, ..., a_k>; base D = F_p[t^{a_1}] localized, the D-basis is the
  Apery set of a_1.

Blow-up algebras of fractional ideals are returned as synthetic handles built
from their value semigroups, presented over the *original* base D so that the
same resolution/Ext engine runs unchanged over them.

Fractional ideals are stored as (1/den) * I0 with den a non-zerodivisor of R
and I0 an honest ideal; every operation (sum, product, colon in Q(R) or in R,
equality, lengths, trace, blow-up, principal reduction) reduces to exact
D-linear algebra on spans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dcoeff import (Mat, Subquotient, hstack, in_span, preimage_all,
                     shared_base, smith, solve_matrix)
from .errors import (ReductionNotFound, StabilizationBudget, SubextError)

# STEP_BUDGET: the powers J^n that principal_reduction and blow_up try;
# TRIANGULAR_FUEL: cancellations per element in valuation_triangular_basis
STEP_BUDGET = 16
TRIANGULAR_FUEL = 400

# ---------------------------------------------------------------------------
# numerical semigroup combinatorics
# ---------------------------------------------------------------------------


def semigroup_closure(gens, bound):
    """Membership table [0..bound] for the semigroup generated by gens."""
    member = [False] * (bound + 1)
    member[0] = True
    for v in range(1, bound + 1):
        for g in gens:
            if g <= v and member[v - g]:
                member[v] = True
                break
    return member


def frobenius_number(gens):
    """Largest integer not in <gens>; -1 if the semigroup is all of N."""
    from math import gcd
    g = 0
    for a in gens:
        g = gcd(g, a)
    if g != 1:
        raise SubextError("semigroup generators must have gcd 1")
    bound = max(gens) * min(gens) + max(gens)
    member = semigroup_closure(gens, bound)
    run = 0
    frob = -1
    for v in range(bound + 1):
        if member[v]:
            run += 1
        else:
            run = 0
            frob = v
        if run >= min(gens):
            break
    return frob


def semigroup_gaps(gens):
    frob = frobenius_number(gens)
    if frob < 0:
        return []
    member = semigroup_closure(gens, frob)
    return [v for v in range(1, frob + 1) if not member[v]]


def is_symmetric_semigroup(gens):
    frob = frobenius_number(gens)
    if frob < 0:
        return True
    member = semigroup_closure(gens, frob)
    return all(member[v] != member[frob - v] for v in range(frob + 1))


def pseudo_frobenius(gens):
    """PF(S) = {f not in S : f + s in S for all 0 != s in S}."""
    frob = frobenius_number(gens)
    if frob < 0:
        return []
    bound = frob + max(gens) + 1
    member = semigroup_closure(gens, bound)
    out = []
    for f in range(1, frob + 1):
        if member[f]:
            continue
        if all(member[f + g] for g in gens):
            out.append(f)
    return out


def apery_set(gens, a):
    """Minimal semigroup elements per residue class mod a, with factorizations.

    Returns (exps, factor) where exps[i] is the i-th Apery element (sorted
    ascending, exps[0] = 0) and factor[i] a list of generator values whose sum
    is exps[i].
    """
    bound = max(gens) * a + max(gens) + a
    parent = {0: None}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = v + g
                if w <= bound and w not in parent:
                    parent[w] = (v, g)
                    nxt.append(w)
        frontier = nxt
    best = {}
    for v in parent:
        r = v % a
        if r not in best or v < best[r]:
            best[r] = v
    if len(best) != a:
        raise SubextError("Apery set incomplete; generators do not have gcd 1?")
    exps = sorted(best.values())
    factor = []
    for w in exps:
        fac = []
        cur = w
        while parent[cur] is not None:
            prev, g = parent[cur]
            fac.append(g)
            cur = prev
        factor.append(sorted(fac))
    return exps, factor


def minimal_semigroup_gens(values_member, positive_values):
    """Minimal generators given a membership predicate and candidate list."""
    out = []
    for g in sorted(set(positive_values)):
        decomposable = False
        for v in sorted(set(positive_values)):
            if 0 < v < g and values_member(v) and values_member(g - v):
                decomposable = True
                break
        if not decomposable:
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# ring specs and handles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingSpec:
    family: str                      # "artin_monomial" | "dvr" | "semigroup"
    p: int
    variables: tuple = ()            # artin only
    ideal_monomials: tuple = ()      # artin only: tuples of exponents
    semigroup_gens: tuple = ()       # semigroup only
    label: str = ""


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class RingHandle:
    """A local F_p-algebra, finite free over its base D.

    Attributes used by the module/Ext engine:
      base          the coefficient base D
      nR            D-rank of R
      basis_desc    monomial descriptors (t-exponents for dim 1, exponent
                    tuples for artin)
      gen_names     ordered ring generator names (all lie in the maximal ideal)
      gen_action    dict name -> multiplication matrix on the regular rep
      basis_factor  basis monomial i as a list of gen_names; monomial 0 is 1
      dim           Krull dimension (0 or 1)
      scalar_gen    the generator t^embed_exp (the scalar t of D), or None
                    when it is not one (artin rings, some blow-ups)
    """

    def __init__(self, spec, family, base, basis_desc, gen_names, gen_action,
                 basis_factor, dim, label, semigroup=None, embed_exp=None):
        self.spec = spec
        self.family = family
        self.base = base
        self.basis_desc = basis_desc
        self.nR = len(basis_desc)
        self.gen_names = gen_names
        self.gen_action = gen_action
        self.basis_factor = basis_factor
        self.dim = dim
        self.label = label
        self.semigroup = semigroup          # sorted minimal gens, dim 1 only
        self.embed_exp = embed_exp          # t-exponent of the D-scalar, dim 1
        name = f"t^{embed_exp}"
        self.scalar_gen = name if name in gen_names else None
        self._basis_mult = {}
        self._mono_cache = {}
        if dim == 1:
            self._res_index = {w % embed_exp: i for i, w in enumerate(basis_desc)}
        self._cache = {}    # shared residue field, free modules, m (see modules)

    def same_ring(self, other):
        """Whether other is this ring: the same handle, or one built alike
        (same base, D-basis and generators)."""
        return self is other or (self.base == other.base
                                 and self.basis_desc == other.basis_desc
                                 and self.gen_names == other.gen_names)

    # -- elements -----------------------------------------------------------

    def zero_elt(self):
        return RingElement(self, (self.base.zero(),) * self.nR)

    def one_elt(self):
        coords = [self.base.zero()] * self.nR
        coords[0] = self.base.one()
        return RingElement(self, coords)

    def elt(self, coords):
        return RingElement(self, coords)

    def t_elt(self, e):
        """The monomial t^e, for e in the value semigroup (dim 1 only)."""
        if self.dim != 1:
            raise SubextError("t-monomials only exist for dimension-1 families")
        a = self.embed_exp
        idx = self._res_index[e % a]
        w = self.basis_desc[idx]
        if e < w:
            raise SubextError(f"t^{e} is not in the ring {self.label}")
        coords = [self.base.zero()] * self.nR
        coords[idx] = self.base.t_power((e - w) // a)
        return RingElement(self, coords)

    def monomial(self, exps):
        """x^exps for the artin family (zero if it lies in the ideal)."""
        exps = tuple(exps)
        idx = self._artin_index.get(exps)
        coords = [self.base.zero()] * self.nR
        if idx is not None:
            coords[idx] = self.base.one()
        return RingElement(self, coords)

    def gen_elt(self, name):
        if self.dim == 1:
            return self.t_elt(int(name[2:]))  # names are "t^e"
        i = self.spec.variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.spec.variables)))
        return self.monomial(exps)

    def m_gens(self):
        return [self.gen_elt(g) for g in self.gen_names]

    # -- regular representation ---------------------------------------------

    def basis_mult(self, i):
        """Multiplication matrix of the i-th basis monomial on R."""
        if i in self._basis_mult:
            return self._basis_mult[i]
        if self.dim == 1:
            out = self.mono_mult(self.basis_desc[i])
        else:
            out = Mat.zeros(self.base, self.nR, self.nR)
            ei = self.basis_desc[i]
            for j, ej in enumerate(self.basis_desc):
                s = tuple(a + b for a, b in zip(ei, ej))
                idx = self._artin_index.get(s)
                if idx is not None:
                    out.rows[idx][j] = self.base.one()
        self._basis_mult[i] = out
        return out

    def mono_mult(self, e):
        """Multiplication by t^e on R (dim 1); e in the value semigroup."""
        if e in self._mono_cache:
            return self._mono_cache[e]
        a = self.embed_exp
        out = Mat.zeros(self.base, self.nR, self.nR)
        for j, w in enumerate(self.basis_desc):
            tot = w + e
            idx = self._res_index[tot % a]
            wq = self.basis_desc[idx]
            q = (tot - wq) // a
            if q < 0:
                raise SubextError("monomial multiplication left the ring")
            out.rows[idx][j] = self.base.t_power(q)
        self._mono_cache[e] = out
        return out

    def __repr__(self):
        return f"RingHandle({self.label})"


class RingElement:
    __slots__ = ("handle", "coords", "_mult")

    def __init__(self, handle, coords):
        self.handle = handle
        self.coords = tuple(coords)
        self._mult = None

    def mult_matrix(self):
        if self._mult is None:
            h = self.handle
            out = Mat.zeros(h.base, h.nR, h.nR)
            for i, c in enumerate(self.coords):
                if c.num:
                    bm = h.basis_mult(i)
                    for r in range(h.nR):
                        row = bm.rows[r]
                        orow = out.rows[r]
                        for j in range(h.nR):
                            if row[j].num:
                                orow[j] = orow[j] + c * row[j]
            self._mult = out
        return self._mult

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return RingElement(self.handle, self.mult_matrix() @ list(other.coords))
        return RingElement(self.handle, [c * other for c in self.coords])

    def __add__(self, other):
        return RingElement(self.handle, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return RingElement(self.handle, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return RingElement(self.handle, [-a for a in self.coords])

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.handle is other.handle
                and self.coords == other.coords)

    def __hash__(self):
        return hash(self.coords)

    def valuation(self):
        """t-adic valuation (dim-1 domains); None for zero."""
        h = self.handle
        if h.dim != 1:
            raise SubextError("valuation needs a dimension-1 domain")
        best = None
        for i, c in enumerate(self.coords):
            if c.num:
                v = h.embed_exp * c.val() + h.basis_desc[i]
                best = v if best is None else min(best, v)
        return best

    def is_nzd(self):
        return smith(self.mult_matrix()).rank == self.handle.nR

    def __repr__(self):
        h = self.handle
        terms = []
        for i, c in enumerate(self.coords):
            if c.num:
                if h.dim == 1:
                    terms.append(f"({c!r})*t^{h.basis_desc[i]}")
                else:
                    mono = "*".join(f"{v}^{e}" for v, e in
                                    zip(h.spec.variables, h.basis_desc[i]) if e) or "1"
                    terms.append(f"({c!r})*{mono}")
        return " + ".join(terms) or "0"


# -- handle builders ---------------------------------------------------------


def _semigroup_handle(spec, p, sg_gens, embed_exp=None, family="semigroup",
                      label=None):
    sg_gens = sorted(set(sg_gens))
    if embed_exp is None:
        embed_exp = sg_gens[0]
    base = shared_base(p, local=True)
    exps, factor = apery_set(sg_gens, embed_exp)
    gen_names = [f"t^{g}" for g in sg_gens]
    basis_factor = [[f"t^{g}" for g in fac] for fac in factor]
    handle = RingHandle(
        spec=spec, family=family, base=base, basis_desc=exps,
        gen_names=gen_names, gen_action={}, basis_factor=basis_factor,
        dim=1, label=label or f"semigroup<{','.join(map(str, sg_gens))}>/F{p}",
        semigroup=sg_gens, embed_exp=embed_exp)
    handle.gen_action = {f"t^{g}": handle.mono_mult(g) for g in sg_gens}
    return handle


def _artin_handle(spec):
    p = spec.p
    base = shared_base(p, local=False)
    nvars = len(spec.variables)
    ideal = [tuple(m) for m in spec.ideal_monomials]
    if any(not any(m) for m in ideal):
        raise SubextError("artin ideal contains 1, so the ring is zero")
    # m-primary check: every variable has a pure power in the ideal
    for i in range(nvars):
        if not any(all(e == 0 for j, e in enumerate(m) if j != i) and m[i] > 0
                   for m in ideal):
            raise SubextError("artin ideal is not m-primary (missing pure power)")

    def in_ideal(mono):
        return any(all(a >= b for a, b in zip(mono, m)) for m in ideal)

    bounds = []
    for i in range(nvars):
        pure = min(m[i] for m in ideal
                   if m[i] > 0 and all(e == 0 for j, e in enumerate(m) if j != i))
        bounds.append(pure)
    basis = [mono for mono in itertools.product(*[range(b) for b in bounds])
             if not in_ideal(mono)]
    basis.sort(key=lambda m: (sum(m), m))
    index = {m: i for i, m in enumerate(basis)}
    gen_names = list(spec.variables)
    basis_factor = []
    for mono in basis:
        fac = []
        for i, e in enumerate(mono):
            fac.extend([spec.variables[i]] * e)
        basis_factor.append(fac)
    handle = RingHandle(
        spec=spec, family="artin_monomial", base=base, basis_desc=basis,
        gen_names=gen_names, gen_action={}, basis_factor=basis_factor,
        dim=0, label=spec.label or f"artin/F{p}")
    handle._artin_index = index
    actions = {}
    for i, v in enumerate(spec.variables):
        A = Mat.zeros(base, len(basis), len(basis))
        for j, mono in enumerate(basis):
            up = tuple(e + (1 if kk == i else 0) for kk, e in enumerate(mono))
            idx = index.get(up)
            if idx is not None:
                A.rows[idx][j] = base.one()
        actions[v] = A
    handle.gen_action = actions
    return handle


def build_ring(spec):
    if not _is_prime(spec.p) or spec.p > 257:
        raise SubextError(f"p must be a prime <= 257, got {spec.p}")
    if any(g < 1 for g in spec.semigroup_gens):
        raise SubextError("semigroup generators must be positive, got "
                          f"{list(spec.semigroup_gens)}")
    if spec.family == "artin_monomial":
        return _artin_handle(spec)
    if spec.family == "dvr":
        return _semigroup_handle(spec, spec.p, [1], family="dvr",
                                 label=spec.label or f"dvr/F{spec.p}")
    if spec.family == "semigroup":
        gens = list(spec.semigroup_gens)
        return _semigroup_handle(spec, spec.p, gens,
                                 label=spec.label or None)
    raise SubextError(f"unknown ring family {spec.family!r}")


# ---------------------------------------------------------------------------
# fractional ideals
# ---------------------------------------------------------------------------


class FracIdeal:
    """(1/den) * <gens>, with den a non-zerodivisor and gens in R."""

    def __init__(self, handle, gens, den=None):
        self.handle = handle
        self.den = den if den is not None else handle.one_elt()
        self.gens = [g for g in gens]
        self._span_basis = None
        self._pow_cache = {}
        self._reduction = None      # principal_reduction result
        self._quotients = {}        # handle -> R/J (modules.from_quotient_ideal)

    @staticmethod
    def unit_ideal(handle):
        return FracIdeal(handle, [handle.one_elt()])

    def is_zero(self):
        return all(g.is_zero() for g in self.gens)

    # -- spans ---------------------------------------------------------------

    def span(self):
        """D-span of the numerator ideal I0, as a matrix of columns."""
        h = self.handle
        cols = []
        for g in self.gens:
            gm = g.mult_matrix()
            cols.extend(gm.col(j) for j in range(h.nR))
        return Mat.from_cols(h.base, h.nR, cols)

    def span_basis(self):
        if self._span_basis is None:
            snf = smith(self.span())
            self._span_basis = snf.image_block(
                Mat.identity(self.handle.base, snf.rank))
        return self._span_basis

    # -- membership / comparison --------------------------------------------

    def contains_element(self, elem, elem_den=None):
        """Is (1/elem_den) * elem in the ideal?"""
        num = self.den * elem
        sp = self.span_basis()
        if elem_den is not None:
            sp = elem_den.mult_matrix() @ sp
        return in_span(sp, list(num.coords))

    def contains_ideal(self, other):
        # (1/b2) I2 <= (1/b1) I1  iff  b1*I2 <= b2*I1
        lhs = [self.den * g for g in other.gens]
        sp = other.den.mult_matrix() @ self.span_basis()
        rhs = Mat.from_cols(self.handle.base, self.handle.nR,
                            [list(x.coords) for x in lhs])
        return solve_matrix(sp, rhs) is not None

    def __eq__(self, other):
        return (isinstance(other, FracIdeal) and self.contains_ideal(other)
                and other.contains_ideal(self))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        b1, b2 = self.den, other.den
        gens = [b2 * g for g in self.gens] + [b1 * g for g in other.gens]
        return FracIdeal(self.handle, gens, b1 * b2)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return FracIdeal(self.handle, [other * g for g in self.gens], self.den)
        gens = [g1 * g2 for g1 in self.gens for g2 in other.gens]
        return FracIdeal(self.handle, gens, self.den * other.den)

    def power(self, n):
        if n == 0:
            return FracIdeal.unit_ideal(self.handle)
        if n in self._pow_cache:
            return self._pow_cache[n]
        out = self.power(n - 1) * self if n > 1 else self
        out = out.reduce_gens()
        self._pow_cache[n] = out
        return out

    def reduce_gens(self):
        """Drop generators lying in the span of the previous ones."""
        h = self.handle
        kept = []
        for g in self.gens:
            if g.is_zero():
                continue
            if kept:
                J = FracIdeal(h, kept)
                if in_span(J.span(), list(g.coords)):
                    continue
            kept.append(g)
        if not kept:
            kept = [h.zero_elt()]
        return FracIdeal(h, kept, self.den)

    # -- honest ideals --------------------------------------------------------

    def as_ring_ideal(self):
        """Rewrite with den = 1 (requires the ideal to lie in R)."""
        if self.den == self.handle.one_elt():
            return self
        bm = self.den.mult_matrix()
        X = solve_matrix(bm, Mat.from_cols(self.handle.base, self.handle.nR,
                                           [list(g.coords) for g in self.gens]))
        if X is None:
            raise SubextError("fractional ideal does not lie in R")
        gens = [RingElement(self.handle, X.col(j)) for j in range(X.n)]
        return FracIdeal(self.handle, gens)

    # -- lengths --------------------------------------------------------------

    def quotient_length(self):
        """lambda(R / J) for J <= R; None if infinite (J = 0 in dim 1)."""
        h = self.handle
        # R/J = den*R / I0  (multiplication by den is an iso R -> den*R)
        sq = Subquotient(h.base, h.nR, self.den.mult_matrix(), self.span_basis())
        return sq.length()

    def length_over(self, other):
        """lambda(self / other) for other <= self; None if infinite."""
        b1, b2 = self.den, other.den
        U = b2.mult_matrix() @ self.span_basis()
        V = b1.mult_matrix() @ other.span_basis()
        return Subquotient(self.handle.base, self.handle.nR, U, V).length()

    def min_gen_count(self):
        """mu(J) = dim_k J / mJ."""
        h = self.handle
        sp = self.span_basis()
        mcols = [h.gen_action[g] @ sp for g in h.gen_names]
        V = hstack(h.base, mcols, m=h.nR)
        return len(Subquotient(h.base, h.nR, sp, V).exps)

    # -- valuations (dim 1) ---------------------------------------------------

    def min_valuation_gen(self):
        if self.handle.dim != 1:
            raise SubextError("valuations need a dimension-1 family")
        best = None
        for g in self.gens:
            if g.is_zero():
                continue
            v = g.valuation()
            if best is None or v < best[0]:
                best = (v, g)
        if best is None:
            raise SubextError("zero ideal has no minimal-valuation generator")
        return best[1]

    def __repr__(self):
        return f"FracIdeal(1/({self.den!r}) * <{', '.join(repr(g) for g in self.gens)}>)"


# -- colons -------------------------------------------------------------------


def colon(J1, J2, ambient="frac"):
    """(J1 : J2), in Q(R) (dim-1 families) or inside R (ambient="ring")."""
    h = J1.handle
    base = h.base
    if ambient == "ring":
        # {x in R : x g in I1 for every generator g of I2}
        S1 = J1.as_ring_ideal().span_basis()
        gens2 = [g for g in J2.as_ring_ideal().gens if not g.is_zero()]
        K = preimage_all(base, h.nR, [(g.mult_matrix(), S1) for g in gens2])
        gens = [RingElement(h, K.col(j)) for j in range(K.n)] or [h.zero_elt()]
        return FracIdeal(h, gens).reduce_gens()
    if h.dim != 1:
        raise SubextError("Q(R)-colon needs a dimension-1 family")
    # (J1 : J2) = (1/(b1*c)) * Y,  Y = {y in b2*I1 : y*g in c*b2*I1 for g in I2}
    b1, b2 = J1.den, J2.den
    A = FracIdeal(h, [b2 * g for g in J1.gens])  # b2 * I1
    nz = [g for g in J2.gens if not g.is_zero()]
    if not nz:
        raise SubextError("colon by the zero ideal")
    c = min(nz, key=lambda g: g.valuation())
    BA = A.span_basis()
    ScA = c.mult_matrix() @ BA
    K = preimage_all(base, BA.n, [(g.mult_matrix() @ BA, ScA) for g in nz])
    gens = ([RingElement(h, BA @ K.col(j)) for j in range(K.n)]
            or [h.zero_elt()])
    return FracIdeal(h, gens, b1 * c).reduce_gens()


def trace_ideal(J):
    """tr(J) = (R : J) * J, an honest ideal of R."""
    inv = colon(FracIdeal.unit_ideal(J.handle), J,
                ambient="frac" if J.handle.dim == 1 else "ring")
    return (inv * J).as_ring_ideal().reduce_gens()


@dataclass(frozen=True)
class Reduction:
    """Principal reduction x = num/den of a fractional ideal; J^{n+1} = x J^n.
    Frozen: principal_reduction hands one memoized instance to every caller."""
    num: object
    den: object
    n: int

    def ideal(self, handle):
        return FracIdeal(handle, [self.num], self.den)


def principal_reduction(J):
    """Minimal-valuation generator x of J with J^{n+1} = x J^n."""
    if J.handle.dim != 1:
        raise SubextError("principal reductions need a dimension-1 family")
    if J._reduction is not None:
        return J._reduction
    num = J.min_valuation_gen()
    xid = FracIdeal(J.handle, [num], J.den)
    for n in range(STEP_BUDGET + 1):
        if J.power(n + 1) == (J.power(n) * xid):
            J._reduction = (Reduction(num, J.den, n), n)
            return J._reduction
    raise ReductionNotFound(f"no principal reduction by {num!r}/({J.den!r}) "
                            f"within budget {STEP_BUDGET}")


# -- value semigroups and blow-ups -------------------------------------------


def valuation_triangular_basis(J):
    """Basis of the D-span of the numerator ideal with distinct residue
    valuations; returns list of (valuation, element)."""
    h = J.handle
    base = h.base
    a = h.embed_exp
    sp = J.span_basis()
    elems = [RingElement(h, sp.col(j)) for j in range(sp.n)]
    stored = {}
    for x in elems:
        steps = 0
        while True:
            if x.is_zero():
                break
            v = x.valuation()
            r = v % a
            if r not in stored:
                stored[r] = x
                break
            y = stored[r]
            vy = y.valuation()
            if v < vy:
                stored[r] = x
                x, y, v, vy = y, x, vy, v
            # cancel the leading term of x against y
            lead_x = _lead_coeff(x, v)
            lead_y = _lead_coeff(y, vy)
            c = base.from_int(lead_x * pow(lead_y, base.p - 2, base.p))
            shift = base.t_power((v - vy) // a)
            x = x - y * (c * shift)
            steps += 1
            if steps > TRIANGULAR_FUEL:
                # x should be in the span of stored (fraction tail); verify
                B = Mat.from_cols(base, h.nR,
                                  [list(e.coords) for e in stored.values()])
                if in_span(B, list(x.coords)):
                    break
                raise StabilizationBudget("valuation triangularization stalled")
    return sorted((e.valuation(), e) for e in stored.values())


def _lead_coeff(elem, v):
    h = elem.handle
    a = h.embed_exp
    i = h._res_index[v % a]
    c = elem.coords[i]
    return c.num[c.val()]


def value_semigroup(J):
    """Value semigroup of a fractional ideal that is a ring (e.g. a blow-up).

    Returns (minimal generators, apery-minima list).
    """
    tri = valuation_triangular_basis(J)
    vden = J.den.valuation()
    mins = sorted(v - vden for v, _ in tri)
    if mins[0] != 0:
        raise SubextError("value set does not contain 0; not a ring")
    a = J.handle.embed_exp

    def member(v):
        return any(v >= m and (v - m) % a == 0 for m in mins)

    candidates = [v for v in range(1, max(mins) + a + 1) if member(v)]
    gens = minimal_semigroup_gens(member, candidates)
    return gens, mins


def blow_up(J):
    """Stabilized (J^n : J^n); returns (B as FracIdeal, B as RingHandle)."""
    h = J.handle
    prev = colon(J, J)
    for n in range(2, STEP_BUDGET + 1):
        Jn = J.power(n)
        cur = colon(Jn, Jn)
        if cur == prev:
            gens, _ = value_semigroup(prev)
            bh = _semigroup_handle(
                None, h.base.p, gens, embed_exp=h.embed_exp, family="blowup",
                label=f"blowup<{','.join(map(str, gens))}>/{h.label}")
            return prev, bh
        prev = cur
    raise StabilizationBudget(
        f"blow-up did not stabilize within budget {STEP_BUDGET}")


# -- canonical ideal ----------------------------------------------------------


def canonical_ideal(handle):
    """Canonical fractional ideal of a dim-1 semigroup-family ring:
    generated by t^(F - g) over the gaps g (F = Frobenius number)."""
    if handle.dim != 1:
        raise SubextError("canonical_ideal needs a dimension-1 family")
    sg = handle.semigroup
    gps = semigroup_gaps(sg)
    if not gps:
        return FracIdeal.unit_ideal(handle)
    frob = frobenius_number(sg)
    exps = sorted(frob - g for g in gps)
    a = handle.embed_exp
    member = semigroup_closure(sg, max(exps) + a * ((frob // a) + 2))
    N = 0
    while not all(member[e + N * a] for e in exps):
        N += 1
    den = handle.t_elt(N * a) if N else handle.one_elt()
    gens = [handle.t_elt(e + N * a) for e in exps]
    return FracIdeal(handle, gens, den).reduce_gens()


def m_ideal(handle):
    """The maximal ideal, shared: one per handle."""
    if "m_ideal" not in handle._cache:
        handle._cache["m_ideal"] = FracIdeal(handle, handle.m_gens())
    return handle._cache["m_ideal"]


# ---------------------------------------------------------------------------
# ring invariants
# ---------------------------------------------------------------------------


@dataclass
class RingInvariants:
    dim: int
    depth: int
    emb_dim: int
    mult: int
    cm_type: int
    length: int = None          # dim 0 only
    regular: bool = False
    gorenstein: bool = False
    min_mult: bool = False
    almost_gorenstein: bool = None


def ring_invariants(handle):
    m = m_ideal(handle)
    emb_dim = m.min_gen_count()
    if handle.dim == 0:
        length = FracIdeal(handle, [handle.zero_elt()]).quotient_length()
        mult = length
        socle = colon(FracIdeal(handle, [handle.zero_elt()]), m, ambient="ring")
        cm_type = socle.span_basis().n
        reg = length == 1
        return RingInvariants(
            dim=0, depth=0, emb_dim=emb_dim, mult=mult, cm_type=cm_type,
            length=length, regular=reg, gorenstein=cm_type == 1 or reg,
            min_mult=mult == emb_dim + 1 or reg,
            almost_gorenstein=None)
    red, _ = principal_reduction(m)
    xI = red.ideal(handle)
    mult = xI.quotient_length()
    cx = colon(xI, m)
    cm_type = cx.length_over(xI)
    regular = mult == 1
    gorenstein = cm_type == 1
    min_mult = mult == emb_dim
    if gorenstein:
        ag = True
    else:
        omega = canonical_ideal(handle)
        redo, _ = principal_reduction(omega)
        crit = colon(redo.ideal(handle), omega)
        ag = crit.contains_ideal(m)
    return RingInvariants(
        dim=1, depth=1, emb_dim=emb_dim, mult=mult, cm_type=cm_type,
        regular=regular, gorenstein=gorenstein, min_mult=min_mult,
        almost_gorenstein=ag)

"""Finite modules over a ring handle, presented as D-modules with actions.

A CoeffModule is D^f + D/t^a1 + ... + D/t^ak together with one commuting
action matrix per ring generator.  A subquotient module has its free
coordinates first and its torsion coordinates after, with nondecreasing
exponents; sums and powers keep their summands' orders instead (see
Coordinates), and invariant_factors(M) lists the exponents of any module in
that canonical order.  All functors (Hom, syzygy, transpose, socle, ...)
reduce to exact linear algebra over D through the Subquotient machinery;
a module's spans, quotients and lengths modulo its relations go through
CoeffModule.span/quotient/quotient_length.

Coordinates.  Sums are slot-major: direct_sum([M_0, ..., M_{k-1}]) puts
slot i, the coordinates of M_i, after those of M_0, ..., M_{i-1}, with
block-diagonal actions, and power(N, k) = N^k is the sum of k copies of N,
so slot b holds N's coordinates from b*N.n on.  Only this module does that
offset arithmetic.  The free module R^k is power(R, k), so generator b of
R^k is coordinate b*nR.  Hom(M, N) is a subquotient of N^{M.n} whose
slots are the images phi(e_j); ext.ext(M, N, j) is a subquotient of
N^{beta_j} whose slots are the images of the generators of F_j; a tensor
product X (x) C is a quotient of X^{beta_0(C)}.  slot_map lets an R-matrix
act on slots (composing with a differential), and power_rel(N, k) is the
relation block of N^k without N^k's actions.

Shared objects.  No CoeffModule or FracIdeal is changed after construction
(their caches only add results computed from it), so a constructor may hand
one object to every caller, and these do:
  residue_field(h), regular_module(h), free_module(h, k) (so the free
  modules F_i of every resolution over h; free_module(h, 1) is
  regular_module(h)) and rings.m_ideal(h) are kept in h._cache, one per
  handle, and freed with the handle; two handles built from one RingSpec
  share only their Base (dcoeff.shared_base);
  from_quotient_ideal(h, J) keeps R/J on the ideal J, next to its span
  basis, and is freed with J;
  subquotient_module and direct_sum hash-cons (Filliatre and Conchon, ML
  Workshop 2006): they return the live module of h with the exponents and
  the (num, den) of every action entry they computed, when there is one,
  so every middle, Hom or Ext module, syzygy or sum of equal content is
  one module.  The table (h._cache["modules"]) holds its modules weakly,
  so it keeps none alive, and a module not yet freed by the collector is
  found too: answers never depend on when the collector runs, how often a
  value is found kept does.  Free modules, power, residue_field and
  modules built by hand (CoeffModule(...)) do not enter it.
Identity tests (`M is N`) see the sharing: two calls of residue_field(h)
give one module, and so do R/J for two equal ideals J, or the middles of
two equal classes.  What depends on one module is kept in its _cache and
built once, for every construction that arrives at its content: rel() (no
caller writes into it), the monomial actions of basis_action (each the
last generator's action times the kept rest) and their nonzero entries by
column, the action of each ring element asked for (keyed by its
coordinates; no caller writes into it either), the resolution with the
Smith forms chain maps are lifted through, the certified automorphisms,
and the values of NumFn and tensor_length.  What depends on a pair (hom,
ext) is kept by pair_cache on the younger module, by creation serial,
keyed by the other; so a shared module keeps no later one alive, and a
middle is freed with the last class or sequence that holds it.

RingHandle.scalar_gen, when a ring has one, is the scalar t of D, so it
acts as t*I on every module (the constructors here build it so, and
validate_module checks hand-built ones): is_r_linear and hom skip it, and
subquotient_module sets its action to t*I instead of projecting it.
"""

from __future__ import annotations

import itertools
import random
import weakref
from dataclasses import dataclass, field

from .dcoeff import (Mat, Subquotient, block_diag, hstack, in_span, kernel,
                     preimage, preimage_all, smith)
from .errors import (BudgetExceeded, InfiniteLengthError, NotAModuleError,
                     SubextError)
from .rings import FracIdeal, RingElement, canonical_ideal


_SERIALS = itertools.count()  # a module built later gets a larger serial


class CoeffModule:
    """Finite module over a ring handle, as a D-module with ring actions."""

    __slots__ = ("handle", "exps", "actions", "n", "serial", "_basis_act",
                 "_cache", "__weakref__")

    def __init__(self, handle, exps, actions):
        self.handle = handle
        self.serial = next(_SERIALS)
        self.exps = tuple(exps)
        self.n = len(self.exps)
        self.actions = {g: normalize_rows(self.exps, actions[g])
                        for g in handle.gen_names}
        self._basis_act = {}
        self._cache = {}

    # -- structure -----------------------------------------------------------

    def free_rank(self):
        return sum(1 for e in self.exps if e is None)

    def torsion(self):
        return tuple(e for e in self.exps if e is not None)

    def is_zero(self):
        return self.n == 0

    def rel(self):
        """Relation columns: t^a * e_i for each torsion coordinate."""
        if "rel" not in self._cache:
            self._cache["rel"] = self._relations()
        return self._cache["rel"]

    def _relations(self):
        base = self.handle.base
        return Mat.from_cols(base, self.n, [
            [base.t_power(e) if k == i else base.zero() for k in range(self.n)]
            for i, e in enumerate(self.exps) if e is not None])

    def span(self, *blocks):
        """The columns of the blocks, then the relation columns."""
        return hstack(self.handle.base, [*blocks, self.rel()], m=self.n)

    def quotient(self, top=None, bottom=()):
        """Subquotient (<top> + rel) / (<bottom> + rel) of the ambient D^n,
        for lists of column blocks; top=None is the whole ambient."""
        base = self.handle.base
        U = None if top is None else self.span(*top)
        return Subquotient(base, self.n, U, self.span(*bottom))

    def quotient_length(self, top=None, bottom=(),
                        what="quotient has infinite length"):
        """F_p-length of quotient(top, bottom); InfiniteLengthError(what)
        when it is infinite."""
        out = self.quotient(top, bottom).length()
        if out is None:
            raise InfiniteLengthError(what)
        return out

    def reduce_vec(self, vec):
        out = list(vec)
        if self.handle.base.local:
            for i, e in enumerate(self.exps):
                if e is not None:
                    out[i] = out[i].reduce_mod(e)
        return out

    def length(self):
        if self.handle.base.local:
            if self.free_rank():
                raise InfiniteLengthError("module has a free D-summand")
            return sum(self.torsion())
        return self.n

    # -- actions -------------------------------------------------------------

    def basis_action(self, i):
        """Action of the i-th ring basis monomial."""
        return self._monomial_action(tuple(self.handle.basis_factor[i]))

    def _monomial_action(self, factors):
        """Action of the product of the generators factors, kept by factors:
        the last generator's action times the kept action of the others."""
        if factors not in self._basis_act:
            if factors:
                rest = self._monomial_action(factors[:-1])
                out = self.actions[factors[-1]] @ rest
            else:
                out = Mat.identity(self.handle.base, self.n)
            self._basis_act[factors] = normalize_rows(self.exps, out)
        return self._basis_act[factors]

    def element_action(self, elem):
        """Action of a ring element, kept by its coordinates."""
        key = ("element_action", elem.coords)
        if key not in self._cache:
            self._cache[key] = self._element_action(elem.coords)
        return self._cache[key]

    def _element_action(self, coords):
        out = Mat.zeros(self.handle.base, self.n, self.n)
        for i, c in enumerate(coords):
            if c.num:
                ba = self.basis_action(i)
                for r in range(self.n):
                    row, orow = ba.rows[r], out.rows[r]
                    for j in range(self.n):
                        if row[j].num:
                            orow[j] = orow[j] + c * row[j]
        return normalize_rows(self.exps, out)

    def __repr__(self):
        return f"CoeffModule({self.handle.label}; exps={self.exps})"


def normalize_rows(exps, mat):
    """Reduce each torsion row of a matrix into its canonical representative."""
    if not mat.base.local:
        return mat
    rows = []
    for i, row in enumerate(mat.rows):
        e = exps[i] if i < len(exps) else None
        if e is None:
            rows.append(list(row))
        else:
            rows.append([a.reduce_mod(e) for a in row])
    return mat.with_rows(rows)


class ModMap:
    """R-linear map between CoeffModules, as a D-matrix on coordinates."""

    __slots__ = ("src", "dst", "mat")

    def __init__(self, src, dst, mat):
        self.src = src
        self.dst = dst
        self.mat = normalize_rows(dst.exps, mat)

    @staticmethod
    def identity(M):
        return ModMap(M, M, Mat.identity(M.handle.base, M.n))

    @staticmethod
    def zero(src, dst):
        return ModMap(src, dst, Mat.zeros(src.handle.base, dst.n, src.n))

    def __matmul__(self, other):
        assert other.dst is self.src or other.dst.exps == self.src.exps
        return ModMap(other.src, self.dst, self.mat @ other.mat)

    def __add__(self, other):
        return ModMap(self.src, self.dst, self.mat + other.mat)

    def __sub__(self, other):
        return ModMap(self.src, self.dst, self.mat - other.mat)

    def __neg__(self):
        return ModMap(self.src, self.dst, -self.mat)

    def is_zero_map(self):
        return self.mat_is_rel()

    def __eq__(self, other):
        return (isinstance(other, ModMap) and (self - other).is_zero_map())

    def is_r_linear(self):
        """Check commutation with every generator but scalar_gen (t*I at both
        ends, see the module docstring) and the torsion of the columns."""
        for g in _general_gens(self.src.handle):
            diff = (self.mat @ self.src.actions[g]) - (self.dst.actions[g] @ self.mat)
            if not ModMap(self.src, self.dst, diff).mat_is_rel():
                return False
        # torsion compatibility of columns
        base = self.src.handle.base
        if base.local:
            for j, e in enumerate(self.src.exps):
                if e is not None:
                    col = [a * base.t_power(e) for a in self.mat.col(j)]
                    if any(c.num for c in self.dst.reduce_vec(col)):
                        return False
        return True

    def mat_is_rel(self):
        # rows are normalized modulo the torsion exponents at construction
        return all(not a.num for row in self.mat.rows for a in row)


def solve_like(A, b):
    return in_span(A, b)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def regular_module(handle):
    """R, shared: one per handle."""
    if "regular_module" not in handle._cache:
        handle._cache["regular_module"] = CoeffModule(
            handle, (None,) * handle.nR, handle.gen_action)
    return handle._cache["regular_module"]


def free_module(handle, k):
    """R^k = power(R, k), shared: one per (handle, k)."""
    key = ("free_module", k)
    if key not in handle._cache:
        handle._cache[key] = power(regular_module(handle), k)
    return handle._cache[key]


def _sum_module(handle, mods):
    """The slot-major sum of mods: each summand's coordinates follow those
    of the summands before it, and the actions are block-diagonal."""
    actions = {g: block_diag(handle.base, [M.actions[g] for M in mods])
               for g in handle.gen_names}
    return CoeffModule(handle, tuple(e for M in mods for e in M.exps), actions)


def power(N, k):
    """N^k, the sum of k copies of N (slot b holds coordinates b*N.n up to
    (b+1)*N.n - 1); power(N, 1) is N."""
    return N if k == 1 else _sum_module(N.handle, [N] * k)


def slotwise(f, k):
    """D-matrix of f on each of k slots, X^k -> Y^k for f : X -> Y."""
    return block_diag(f.src.handle.base, [f.mat] * k)


def power_rel(N, k):
    """power(N, k).rel() without building the actions of N^k: k copies of
    N.rel(), block-diagonal."""
    return block_diag(N.handle.base, [N.rel()] * k)


def slot_map(N, rmx):
    """D-matrix of N^b -> N^c sending the slots (x_i) to the slots
    (sum_i rmx[i][j] x_i)_j, for a b x c matrix rmx of RingElements.  When
    rmx is the R-matrix of d : R^c -> R^b (rows = target generators), this
    is phi -> phi o d on Hom(R^b, N) = N^b."""
    base = N.handle.base
    b_src = len(rmx)
    b_dst = len(rmx[0]) if b_src else 0
    out = Mat.zeros(base, b_dst * N.n, b_src * N.n)
    for b in range(b_src):
        for c in range(b_dst):
            act = N.element_action(rmx[b][c])
            for r in range(N.n):
                for i in range(N.n):
                    if act.rows[r][i].num:
                        out.rows[c * N.n + r][b * N.n + i] = act.rows[r][i]
    return normalize_rows(N.exps * b_dst, out)


def zero_module(handle):
    return CoeffModule(handle, (),
                       {g: Mat.zeros(handle.base, 0, 0) for g in handle.gen_names})


def residue_field(handle):
    """k = R/m, shared: one per handle."""
    if "residue_field" in handle._cache:
        return handle._cache["residue_field"]
    base = handle.base
    exps = (1,) if base.local else (None,)
    z = Mat.zeros(base, 1, 1)
    out = handle._cache["residue_field"] = CoeffModule(
        handle, exps, {g: z for g in handle.gen_names})
    return out


def subquotient_module(M, top=None, bottom=()):
    """The module E = M.quotient(top, bottom) = U/V with the actions induced
    from M; returns (E, sq, B) with sq that Subquotient and B = sq.basis(),
    the lifts of E's coordinates into M, which callers usually need too.
    The actions of _general_gens are projected in one block, side by side;
    scalar_gen's is t*I (reduced by E), which projecting, D-linear, gives."""
    sq = M.quotient(top, bottom)
    B = sq.basis()
    h, k = M.handle, B.n
    gens = _general_gens(h)
    P = sq.project_cols(hstack(h.base, [M.actions[g] @ B for g in gens],
                               m=M.n))
    actions = {g: Mat._own(h.base,
                           [row[i * k:(i + 1) * k] for row in P.rows], k)
               for i, g in enumerate(gens)}
    if h.scalar_gen is not None:
        z, t = h.base.zero(), h.base.t_power(1)
        actions[h.scalar_gen] = Mat._own(h.base, [
            [t if i == j else z for j in range(k)] for i in range(k)], k)
    return _shared(CoeffModule(h, sq.exps, actions)), sq, B


def _shared(M):
    """The live module of M's ring with M's exponents and actions, M when
    there is none: hash-consing, kept in a weak table on the handle."""
    h = M.handle
    table = h._cache.get("modules")
    if table is None:
        table = h._cache["modules"] = weakref.WeakValueDictionary()
    entries = [a for g in h.gen_names for row in M.actions[g].rows
               for a in row]
    key = (M.exps, tuple([a.num for a in entries]),
           tuple([a.den for a in entries]))
    return table.setdefault(key, M)


def _general_gens(handle):
    """The generators but scalar_gen: those whose action is not t*I."""
    return [g for g in handle.gen_names if g != handle.scalar_gen]


def submodule(M, gens_mat):
    """Submodule of M spanned (over R) by the given coordinate columns.

    The span must be R-stable; returns (K, incl: K -> M).
    """
    # close under the R-action: multiply by all ring basis monomials
    closed = _free_cover_matrix(M, gens_mat)
    K, _, B = subquotient_module(M, [closed])
    return K, ModMap(K, M, B)


def quotient_module(M, gens_mat):
    """M / (R-span of the columns); returns (Q, proj: M -> Q)."""
    closed = _free_cover_matrix(M, gens_mat)
    Q, sq, _ = subquotient_module(M, None, [closed])
    return Q, ModMap(M, Q, sq.project_cols(Mat.identity(M.handle.base, M.n)))


def from_quotient_ideal(handle, J):
    """R/J as a CoeffModule (J an ideal contained in R), shared: one per
    (handle, J), kept on J."""
    if handle not in J._quotients:
        sp = J.as_ring_ideal().span_basis()
        J._quotients[handle], _ = quotient_module(regular_module(handle), sp)
    return J._quotients[handle]


def from_fractional_ideal(handle, J):
    """The fractional ideal J as a CoeffModule (isomorphic to its numerator)."""
    R = regular_module(handle)
    sp = J.span_basis()
    K, _ = submodule(R, sp)
    return K


def direct_sum(mods):
    """Direct sum in slot-major coordinates (see Coordinates); returns (S,
    injections, projections), identity blocks at each summand's offset."""
    S = _shared(_sum_module(mods[0].handle, mods))
    base = S.handle.base
    injections, projections = [], []
    off = 0
    for M in mods:
        inj = Mat.zeros(base, S.n, M.n)
        for c in range(M.n):
            inj.rows[off + c][c] = base.one()
        injections.append(ModMap(M, S, inj))
        projections.append(ModMap(S, M, inj.transpose()))
        off += M.n
    return S, injections, projections


def canonical_module(handle):
    """The canonical module: Matlis dual for artin, omega-ideal for dim 1."""
    if handle.dim == 0:
        actions = {g: handle.gen_action[g].transpose() for g in handle.gen_names}
        return CoeffModule(handle, (None,) * handle.nR, actions)
    return from_fractional_ideal(handle, canonical_ideal(handle))


def validate_module(M):
    """Check that each generator acts R-linearly (so the actions commute and
    keep the torsion exponents), that t^embed_exp, the scalar t of D, acts
    as t*I (scalar_gen when there is one, which is_r_linear relies on; else
    the product of the actions along a factorization into generators), and
    (artin) vanishing of the ideal monomials."""
    h = M.handle
    base = h.base
    for g in h.gen_names:
        if not ModMap(M, M, M.actions[g]).is_r_linear():
            raise NotAModuleError(f"action of {g} is not R-linear")
    if h.dim == 1:
        factors = _scalar_factorization(h)
        A = M.actions[factors[0]]
        for g in factors[1:]:
            A = M.actions[g] @ A
        d = A - Mat.identity(base, M.n).scale(base.t_power(1))
        if not ModMap(M, M, d).mat_is_rel():
            raise NotAModuleError(
                "designated generator does not act as the D-scalar"
                if h.scalar_gen is not None else
                "generators do not multiply to the D-scalar")
    if not base.local:
        for mono in h.spec.ideal_monomials:
            A = Mat.identity(base, M.n)
            for i, e in enumerate(mono):
                for _ in range(e):
                    A = M.actions[h.spec.variables[i]] @ A
            if not A.is_zero():
                raise NotAModuleError("ideal monomial does not annihilate module")
    return True


def _scalar_factorization(h):
    """Generators (dim 1, named "t^e") whose exponents sum to embed_exp:
    [scalar_gen] when there is one."""
    if h.scalar_gen is not None:
        return [h.scalar_gen]
    found = {0: []}  # exponent -> generators summing to it
    for v in range(1, h.embed_exp + 1):
        for g in h.gen_names:
            if v - int(g[2:]) in found:
                found[v] = found[v - int(g[2:])] + [g]
                break
    return found[h.embed_exp]


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def mu(M):
    """Minimal number of generators (dim_k M/mM)."""
    if M.is_zero():
        return 0
    return len(M.quotient(None, [M.actions[g]
                                 for g in M.handle.gen_names]).exps)


def length(M):
    return M.length()


def nu(J, M):
    """nu_J(M) = lambda(M / JM) for an ideal J <= R."""
    if M.is_zero():
        return 0
    cols = [M.element_action(g) for g in J.as_ring_ideal().gens]
    return M.quotient_length(None, cols, "J M has infinite colength")


def _image_length(module, mat):
    """Length of the image of a coordinate matrix inside the module."""
    if module.n == 0 or mat.n == 0 or mat.m == 0:
        return 0
    return module.quotient_length([mat], what="image has infinite length")


def tensor_length_with_quotient(J, M):
    """lambda(M (x) R/J) = lambda(M/JM); same as nu."""
    return nu(J, M)


def socle(M):
    """Submodule killed by m; returns (S, incl)."""
    return colon_in_module(M, Mat.zeros(M.handle.base, M.n, 0),
                           M.handle.gen_names)


def torsion_part(M):
    """H^0_m(M): everything for artin; the D-torsion part in dim 1."""
    base = M.handle.base
    if not base.local:
        return M, ModMap.identity(M)
    cols = []
    for i, e in enumerate(M.exps):
        if e is not None:
            col = [base.zero()] * M.n
            col[i] = base.one()
            cols.append(col)
    return submodule(M, Mat.from_cols(base, M.n, cols))


def annihilator(M):
    """ann_R(M) as an honest ideal of R."""
    h = M.handle
    base = h.base
    if M.is_zero():
        return FracIdeal.unit_ideal(h)
    # r = sum_i r_i * (basis monomial i) kills e_j iff sum_i r_i b_i e_j in rel
    blocks = [Mat.from_cols(base, M.n, [M.basis_action(i).col(j)
                                        for i in range(h.nR)])
              for j in range(M.n)]
    K = preimage_all(base, h.nR, [(b, M.rel()) for b in blocks])
    gens = [RingElement(h, K.col(j)) for j in range(K.n)] or [h.zero_elt()]
    return FracIdeal(h, gens).reduce_gens()


def loewy_length(M):
    """Least c with m^c * H^0_m(M) = 0."""
    base = M.handle.base
    if M.is_zero():
        return 0
    _, incl = torsion_part(M)
    cur = incl.mat  # columns spanning the torsion part inside M
    c = 0
    while True:
        if not M.quotient([cur]).exps:
            return c
        cur = hstack(base, [M.actions[g] @ cur for g in M.handle.gen_names],
                     m=M.n)
        c += 1
        if c > 10000:
            raise SubextError("loewy length did not terminate")


def colon_in_module(M, W_cols, elems):
    """{x in M : g*x in <W_cols> + rel for all g in elems}; returns (K, incl)."""
    span = M.span(W_cols)
    gens = preimage_all(M.handle.base, M.n, [
        (M.element_action(g) if isinstance(g, RingElement) else M.actions[g],
         span) for g in elems])
    return submodule(M, gens)


def is_mcm(M):
    """Maximal Cohen-Macaulay (zero module counts as MCM)."""
    if M.is_zero():
        return True
    if M.handle.dim == 0:
        return True
    return not M.torsion()


def depth01(M):
    if M.is_zero():
        return 1 if M.handle.dim == 1 else 0
    if M.handle.dim == 0:
        return 0
    return 1 if not M.torsion() else 0


# ---------------------------------------------------------------------------
# Hom
# ---------------------------------------------------------------------------


@dataclass
class HomPres:
    module: CoeffModule
    maps: list                 # ModMap lifts of the canonical generators
    sq: Subquotient
    src: CoeffModule
    dst: CoeffModule

    def coords_of(self, phi):
        return self.sq.project(_vec(phi.mat))

    def map_from_coords(self, coords):
        w = self.sq.lift(coords)
        return ModMap(self.src, self.dst, _unvec(self.dst.handle.base, w,
                                                 self.dst.n, self.src.n))


def _vec(mat):
    out = []
    for j in range(mat.n):
        out.extend(mat.col(j))
    return out


def _unvec(base, vec, nrows, ncols):
    cols = [vec[j * nrows:(j + 1) * nrows] for j in range(ncols)]
    return Mat.from_cols(base, nrows, cols)


def pair_cache(M, N, name):
    """(cache, key) keeping the data name of the pair (M, N) on the younger
    of the two, keyed by the other, so that an older module (a shared
    residue field, say) keeps nothing alive that was built after it."""
    if M.serial >= N.serial:
        return M._cache, (name, "to", N)
    return N._cache, (name, "from", M)


def hom(M, N):
    """Hom_R(M, N) as a CoeffModule with lifted generator maps.  A D-linear
    phi : M -> N is stored as the slots phi(e_j) of P = N^{M.n}; it is
    R-linear iff phi(g e_j) = g phi(e_j) modulo the relations of P for each
    ring generator g and, over the local base, t^e phi(e_j) = 0 in N for
    each torsion coordinate e_j of exponent e.  scalar_gen (t*I on M and P)
    adds no rows: they are (A[j][j] - t) phi(e_j) mod rel_P, zero but on
    exponent-1 slots, where the torsion rows imply them."""
    if not M.handle.same_ring(N.handle):
        raise SubextError(f"Hom needs M and N over one ring, got "
                          f"{M.handle.label} and {N.handle.label}")
    cache, key = pair_cache(M, N, "hom")
    if key in cache:
        return cache[key]
    base = M.handle.base
    if M.is_zero() or N.is_zero():
        Hmod = zero_module(M.handle)
        sq, maps = Hmod.quotient(), []
    else:
        nM, nN = M.n, N.n
        P = power(N, nM)
        rel, conds = P.rel(), []
        for g in _general_gens(M.handle):
            # phi(g e_j) - g phi(e_j), with g e_j = sum_k A[k][j] e_k
            Ag = M.actions[g]
            C = Mat.zeros(base, P.n, P.n)
            for j in range(nM):
                for k in range(nM):
                    if Ag.rows[k][j].num:
                        for i in range(nN):
                            C.rows[j * nN + i][k * nN + i] = Ag.rows[k][j]
            conds.append((C - P.actions[g], rel))
        for j, e in enumerate(M.exps):
            if base.local and e is not None:
                T = Mat.zeros(base, nN, P.n)
                for i in range(nN):
                    T.rows[i][j * nN + i] = base.t_power(e)
                conds.append((T, N.rel()))
        Hmod, sq, B = subquotient_module(P, [preimage_all(base, P.n, conds)])
        maps = [ModMap(M, N, _unvec(base, w, N.n, M.n)) for w in B.cols()]
    out = cache[key] = HomPres(module=Hmod, maps=maps, sq=sq, src=M, dst=N)
    return out


def dualize_omega(M):
    """M^dagger = Hom(M, omega)."""
    return hom(M, canonical_module(M.handle)).module


# ---------------------------------------------------------------------------
# minimal presentations and resolutions
# ---------------------------------------------------------------------------


@dataclass
class Resolution:
    """Minimal free resolution data up to the requested length.

    cover : ModMap F0 -> M
    diffs : D-matrices d_i : F_i -> F_{i-1} (i >= 1)
    betti : ranks of the free modules
    rmx   : R-matrix of each differential d_i, beta_{i-1} rows of beta_i
            RingElements (rows of no entries when beta_i = 0)
    frees : the free CoeffModules F_i
    """
    cover: ModMap
    diffs: list
    betti: list
    rmx: list
    frees: list
    # level -> Smith form that form(level) returns
    _forms: dict = field(default_factory=dict, repr=False, compare=False)

    def form(self, level):
        """The Smith form of [cover | rel_M] at level 0 and of d_level
        above it, the systems a chain map into this resolution is lifted
        through; built once."""
        if level not in self._forms:
            self._forms[level] = smith(
                self.cover.dst.span(self.cover.mat) if level == 0
                else self.diffs[level - 1])
        return self._forms[level]


def _min_gens_of_submodule(F, K_cols):
    """Minimal generator columns of an R-submodule of a free module F."""
    if K_cols.n == 0:
        return K_cols
    return F.quotient([K_cols], [F.actions[g] @ K_cols
                                 for g in F.handle.gen_names]).basis()


def _free_cover_matrix(M, gens_cols):
    """D-matrix of R^mu -> M sending generator j to column j: the basis
    monomials of R act on each column through the nonzero entries of each
    column of their actions, listed once per module and kept on M; monomial
    0 is 1 (RingHandle.basis_factor), whose block copies each column."""
    acts = M._cache.get("sparse_actions")
    if acts is None:
        acts = M._cache["sparse_actions"] = [
            [[(r, a) for r, a in enumerate(col) if a.num]
             for col in M.basis_action(b).cols()]
            for b in range(1, M.handle.nR)]
    z = M.handle.base.zero()
    cols = []
    for j in range(gens_cols.n):
        col = gens_cols.col(j)
        cols.append(col)
        v = [(k, x) for k, x in enumerate(col) if x.num]
        for act in acts:
            out = [z] * M.n
            for k, x in v:  # as act @ v: each sum runs over k ascending
                for r, a in act[k]:
                    out[r] = out[r] + a * x
            cols.append(out)
    return Mat.from_cols(M.handle.base, gens_cols.m, cols)


def _generator_cols(handle, mat, k):
    """The columns of a D-matrix out of R^k at the k generators of R^k."""
    return [mat.col(b * handle.nR) for b in range(k)]


def _rmatrix_of(handle, mat, beta_src):
    """Extract the R-matrix (rows = target generators) of a map between free
    modules, from its D-matrix."""
    nR = handle.nR
    cols = _generator_cols(handle, mat, beta_src)
    return [[RingElement(handle, col[bi * nR:(bi + 1) * nR]) for col in cols]
            for bi in range(mat.m // nR)]


def minimal_presentation(M):
    return resolution(M, 1)


def resolution(M, length_):
    """Minimal free resolution F_len -> ... -> F_0 -> M -> 0."""
    cached = M._cache.get("resolution")
    if cached is not None and len(cached.diffs) >= length_:
        return cached
    h = M.handle
    base = h.base
    if M.is_zero():
        frees = [zero_module(h) for _ in range(length_ + 1)]
        res = Resolution(cover=ModMap.zero(frees[0], M),
                         diffs=[Mat.zeros(base, 0, 0)] * length_,
                         betti=[0] * (length_ + 1),
                         rmx=[[] for _ in range(length_)], frees=frees)
        M._cache["resolution"] = res
        return res
    if cached is None:
        # step 0: minimal generators of M
        gens = M.quotient(None, [M.actions[g] for g in h.gen_names]).basis()
        cover_mat = _free_cover_matrix(M, gens)
        F0 = free_module(h, gens.n)
        cover = ModMap(F0, M, cover_mat)
        res = Resolution(cover=cover, diffs=[], betti=[gens.n], rmx=[],
                         frees=[F0])
        M._cache["resolution"] = res
        cached = res
    res = cached
    while len(res.diffs) < length_:
        i = len(res.diffs)
        F_prev = res.frees[i]
        if i == 0:
            # kernel of the cover, modulo relations of M
            Kc = preimage(res.cover.mat, M.rel())
        else:
            Kc = kernel(res.diffs[i - 1])
        gens = _min_gens_of_submodule(F_prev, Kc)
        d = _free_cover_matrix(F_prev, gens)
        res.betti.append(gens.n)
        res.frees.append(free_module(h, gens.n))
        res.diffs.append(d)
        res.rmx.append(_rmatrix_of(h, d, gens.n))
    return res


def assert_minimal(res):
    """Every differential entry (and cover kernel) must lie in m."""
    h = res.frees[0].handle
    for idx, d in enumerate(res.diffs):
        F = res.frees[idx]
        mcols = F.span(*[F.actions[g] for g in h.gen_names])
        for j in range(d.n):
            if not solve_like(mcols, d.col(j)):
                raise SubextError("resolution differential is not minimal")
    return True


def syzygy(M, j):
    """Omega^j M as a CoeffModule: the image of d_j in F_{j-1}, which is the
    kernel of F_{j-1} -> F_{j-2} (of the cover when j = 1) because the
    resolution is exact."""
    if j == 0:
        return M
    res = resolution(M, j)
    S, _, _ = subquotient_module(res.frees[j - 1], [res.diffs[j - 1]])
    return S


def transpose(M):
    """Auslander transpose from the minimal presentation."""
    h = M.handle
    res = resolution(M, 1)
    if res.betti[1] == 0:
        return zero_module(h)
    # the dual of d_1 : R^{b1} -> R^{b0}, as a map R^{b0} -> R^{b1}
    dual = slot_map(regular_module(h), res.rmx[0])
    T, _ = quotient_module(free_module(h, res.betti[1]), dual)
    return T


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------


def is_surjective(phi):
    return not phi.dst.quotient(None, [phi.mat]).exps


def invariant_factors(M):
    """M's coordinate exponents in canonical order: free (None) first, then
    torsion exponents ascending."""
    return sorted(M.exps, key=lambda e: (e is not None, e or 0))


def _lifts_mod_m(H):
    """ModMap lifts of a basis of H/mH, for H = hom(M, N)."""
    hb = H.module
    sqm = hb.quotient(None, [hb.actions[g] for g in hb.handle.gen_names])
    return [H.map_from_coords(hb.reduce_vec(w)) for w in sqm.basis().cols()]


def _echelon_mod_p(rows, p):
    """(pivot, row) for the nonzero rows of a row echelon form of rows,
    lists of ints mod p; each row is 1 at its pivot and 0 at the pivots
    of the rows before it."""
    out = []
    for r in rows:
        for j, q in out:
            if r[j]:
                c = r[j]
                r = [(x - c * y) % p for x, y in zip(r, q)]
        j = next((j for j, x in enumerate(r) if x), None)
        if j is not None:
            inv = pow(r[j], p - 2, p)
            out.append((j, [x * inv % p for x in r]))
    return out


def is_isomorphic(M, N, budget=2 ** 20):
    """Equal invariant factors plus a surjective homomorphism M -> N.

    By Nakayama, phi : M -> N is onto exactly when the images of M's
    coordinate vectors span N/mN, and those images depend only on phi mod
    m Hom(M, N).  So each lift of a basis of Hom/mHom becomes one integer
    matrix mod p into N/mN, and the search runs over the span W of these
    matrices, with p^dim W held to the budget: first 64 seeded random
    elements of W, then every element."""
    if invariant_factors(M) != invariant_factors(N):
        return False
    if M.is_zero():
        return True
    p = M.handle.base.p
    top = N.quotient(None, [N.actions[g] for g in N.handle.gen_names])
    basis = [q for _, q in _echelon_mod_p(
        [[a.num[0] if a.num else 0 for row in top.project_cols(f.mat).rows
          for a in row] for f in _lifts_mod_m(hom(M, N))], p)]
    if p ** len(basis) > budget:
        raise BudgetExceeded(
            f"{p ** len(basis)} hom classes exceed budget {budget}")
    k, n = len(top.exps), M.n
    rng = random.Random(0)
    for combo in itertools.chain(
            ([rng.randrange(p) for _ in basis] for _ in range(64)),
            itertools.product(range(p), repeat=len(basis))):
        flat = [0] * (k * n)
        for c, q in zip(combo, basis):
            if c:
                flat = [(x + c * y) % p for x, y in zip(flat, q)]
        if len(_echelon_mod_p([flat[i * n:(i + 1) * n]
                               for i in range(k)], p)) == k:
            return True
    return False


def automorphisms(X):
    """Certified automorphisms of X, kept on X: for each lift psi of a
    basis of End(X)/m End(X), psi and id + psi, each kept only when
    is_surjective holds (a surjective endomorphism of a finitely generated
    module is an automorphism, Matsumura, Commutative Ring Theory, 2.4).
    Empty when End(X)/m End(X) has dimension at most 1: then End(X) = R.id
    by Nakayama, and Aut(X) adds nothing to the units of R.  A cyclic X =
    R/I has End(X) = R/I, so it gets no hom(X, X) at all."""
    if "automorphisms" not in X._cache:
        lifts = _lifts_mod_m(hom(X, X)) if mu(X) > 1 else []
        out = []
        if len(lifts) > 1:
            one = ModMap.identity(X)
            out = [g for psi in lifts for g in (psi, one + psi)
                   if is_surjective(g)]
        X._cache["automorphisms"] = out
    return X._cache["automorphisms"]

"""Yoneda Ext groups computed from minimal free resolutions.

Ext^j(M, N) is presented as a subquotient of N^{beta_j}: cocycles are maps
F_j -> N vanishing on the image of d_{j+1}, modulo maps factoring through
d_j.  Classes carry explicit short exact sequences (middle-term
construction), and all Yoneda operations (Baer sum, scalar action, pushout,
pullback, splitting) are implemented both on coordinates and by universal
constructions so they can be cross-checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .dcoeff import (Mat, Subquotient, _trim, block_diag, hstack, in_span,
                     preimage, smith, vstack)
from .errors import (BudgetExceeded, CertificateError, InfiniteLengthError,
                     SubextError)
from .modules import (CoeffModule, ModMap, _free_cover_matrix,
                      _generator_cols, _image_length, _rmatrix_of, _unvec,
                      automorphisms, direct_sum, hom, normalize_rows,
                      pair_cache, power, power_rel, resolution, slot_map,
                      slotwise, subquotient_module, zero_module)


# ---------------------------------------------------------------------------
# short exact sequences
# ---------------------------------------------------------------------------


@dataclass
class SES:
    """0 -> A -i-> B -p-> C -> 0 with explicit coordinate maps.

    A sequence keeps one Smith form of the span [i | rel_B] in D^{B.n} and
    one of [p | rel_C] in D^{C.n} (``_forms``, keyed "i" and "p"), each
    built on its first use by certify or classify and freed with the
    sequence; a classify with nothing to solve builds none.  Keeping them is
    safe because no SES or ModMap is changed after construction, so a form
    always describes the maps it was built from.
    """
    A: CoeffModule
    B: CoeffModule
    C: CoeffModule
    i: ModMap
    p: ModMap
    # target module N -> the part of pushout_seq(self, f : A -> N) that does
    # not depend on f
    _pushouts: dict = field(default_factory=dict, repr=False, compare=False)
    # "i" / "p" -> Smith form of [i | rel_B] / [p | rel_C]
    _forms: dict = field(default_factory=dict, repr=False, compare=False)

    def _form(self, name):
        if name not in self._forms:
            f = getattr(self, name)
            self._forms[name] = smith(f.dst.span(f.mat))
        return self._forms[name]

    def certify(self):
        """Check that this is a short exact sequence of R-modules; raises
        CertificateError naming the first check that fails.

        R-linearity and p o i = 0 are checked on the matrices.  The other
        three read the two kept Smith forms: i is injective when the
        A-coordinates of each kernel vector of [i | rel_B] lie in rel_A; p
        is surjective when [p | rel_C] has rank C.n with every exponent 0;
        the sequence is exact in the middle when the B-coordinates of each
        kernel vector of [p | rel_C] lie in the span of [i | rel_B].
        """
        if not self.i.is_r_linear() or not self.p.is_r_linear():
            raise CertificateError("sequence maps are not R-linear")
        if not (self.p @ self.i).is_zero_map():
            raise CertificateError("p o i is not zero")
        if any(x.num for k in self._form("i").kernel_block().cols()
               for x in self.A.reduce_vec(k[:self.A.n])):
            raise CertificateError("i is not injective")
        snf_p = self._form("p")
        if snf_p.rank != self.C.n or any(snf_p.exps):
            raise CertificateError("p is not surjective")
        snf_i, K = self._form("i"), snf_p.kernel_block()
        if snf_i.coords_block(K.with_rows(K.rows[:self.B.n]),
                              snf_i.n) is None:
            raise CertificateError("sequence is not exact in the middle")
        return True


def split_sequence(A, C):
    """The split sequence 0 -> A -> A (+) C -> C -> 0."""
    S, injs, projs = direct_sum([A, C])
    return SES(A=A, B=S, C=C, i=injs[0], p=projs[1])


def direct_sum_seq(s1, s2):
    """Componentwise direct sum of two short exact sequences."""
    A = direct_sum([s1.A, s2.A])[0]
    B = direct_sum([s1.B, s2.B])[0]
    C = direct_sum([s1.C, s2.C])[0]
    base = A.handle.base
    i = ModMap(A, B, block_diag(base, [s1.i.mat, s2.i.mat]))
    p = ModMap(B, C, block_diag(base, [s1.p.mat, s2.p.mat]))
    return SES(A=A, B=B, C=C, i=i, p=p)


# ---------------------------------------------------------------------------
# Ext presentations
# ---------------------------------------------------------------------------


@dataclass
class ExtPresentation:
    M: CoeffModule
    N: CoeffModule
    j: int
    module: CoeffModule          # the Ext group as a CoeffModule
    sq: Subquotient              # inside the ambient N^{beta_j}
    beta: int
    res: object
    _presentation: SES = field(default=None, repr=False, compare=False)
    # the orbits of class_orbits and the classes of the first sweep, with
    # the middles they keep: found once for every sweep of the group
    _orbits: list = field(default=None, repr=False, compare=False)
    _classes: list = field(default=None, repr=False, compare=False)

    def presentation(self):
        """The presentation sequence F_1 -d_1-> F_0 -> M, built once."""
        if self._presentation is None:
            res = self.res
            F0, F1 = res.frees[0], res.frees[1]
            self._presentation = SES(A=F1, B=F0, C=self.M,
                                     i=ModMap(F1, F0, res.diffs[0]),
                                     p=res.cover)
        return self._presentation

    def length(self):
        return self.module.length()

    def zero_class(self):
        return ExtClass(self, [self.N.handle.base.zero()] * self.module.n)

    def class_of_vec(self, vec):
        """Class of an ambient cocycle vector in N^{beta_j}."""
        return ExtClass(self, self.sq.project(list(vec)))


class ExtClass:
    # _middle: the sequence middle(self) built, kept for the life of the class
    __slots__ = ("pres", "coords", "_middle")

    def __init__(self, pres, coords):
        self.pres = pres
        self.coords = tuple(pres.module.reduce_vec(list(coords)))
        self._middle = None

    def __eq__(self, other):
        return (isinstance(other, ExtClass) and self.pres is other.pres
                and self.coords == other.coords)

    def __hash__(self):
        return hash(self.coords)

    def is_zero(self):
        return all(not c.num for c in self.coords)

    def __add__(self, other):
        assert self.pres is other.pres
        return ExtClass(self.pres,
                        [a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return ExtClass(self.pres, [-a for a in self.coords])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, elem):
        """Module action of a ring element on the class, via coordinates."""
        pres = self.pres
        return ExtClass(pres, pres.module.element_action(elem) @ list(self.coords))

    def cocycle(self):
        """A representing map F_j -> N."""
        pres = self.pres
        N = pres.N
        cols = _unvec(N.handle.base, pres.sq.lift(list(self.coords)), N.n,
                      pres.beta)
        mat = _free_cover_matrix(N, cols)
        return ModMap(pres.res.frees[pres.j], N, mat)

    def __repr__(self):
        return f"ExtClass({self.coords})"


def ext(M, N, j):
    """Ext^j_R(M, N) as an ExtPresentation (j >= 1), kept by pair_cache."""
    if j < 1:
        raise SubextError(f"Ext degree must be at least 1, got {j} "
                          "(use hom() for degree zero)")
    if not M.handle.same_ring(N.handle):
        raise SubextError(f"Ext needs M and N over one ring, got "
                          f"{M.handle.label} and {N.handle.label}")
    cache, key = pair_cache(M, N, ("ext", j))
    if key in cache:
        return cache[key]
    res = resolution(M, j + 1)
    beta = res.betti[j]
    if beta == 0 or N.is_zero():
        module = zero_module(M.handle)
        sq = module.quotient()
    else:
        # cocycles: slots of N^{beta_j} that vanish on the image of d_{j+1};
        # coboundaries: maps F_j -> N factoring through d_j
        Z = preimage(slot_map(N, res.rmx[j]), power_rel(N, res.betti[j + 1]))
        module, sq, _ = subquotient_module(power(N, beta), [Z],
                                           [slot_map(N, res.rmx[j - 1])])
    pres = cache[key] = ExtPresentation(M=M, N=N, j=j, module=module,
                                           sq=sq, beta=beta, res=res)
    return pres


def ext_length(M, N, j):
    e = ext(M, N, j)
    return e.module.length()


# ---------------------------------------------------------------------------
# middle term and classification (degree 1)
# ---------------------------------------------------------------------------


def middle(cls):
    """The extension 0 -> N -> E -> M -> 0 represented by a degree-1 class:
    the pushout of the presentation F_1 -d_1-> F_0 -> M along a cocycle.
    Built once per class object and kept on it, so it lives as long as the
    class; an equal class built anew builds its own SES, whose middle
    module E, of equal content, is the same module (see modules, Shared
    objects) with the values kept on it."""
    assert cls.pres.j == 1
    if cls._middle is None:
        cls._middle = pushout_seq(cls.pres.presentation(), cls.cocycle())
    return cls._middle


def classify(ses, pres=None):
    """The degree-1 class of a sequence 0 -> N -> B -> M -> 0, solved
    against the Smith forms of [p | rel_M] and [i | rel_B] kept on ses."""
    M, N, B = ses.C, ses.A, ses.B
    if pres is None:
        pres = ext(M, N, 1)
    res = pres.res
    h = M.handle
    # lift the cover F_0 -> M through p
    G = _cover_by(B, _solve_each(
        lambda: ses._form("p"),
        _generator_cols(h, res.cover.mat, res.betti[0]),
        CertificateError("cover does not lift through p")))
    # psi = G o d1 lands in ker p = im i; pull back through i
    psis = [G @ v for v in _generator_cols(h, res.diffs[0], pres.beta)]
    Y = _solve_each(lambda: ses._form("i"), psis, CertificateError(
        "boundary does not pull back through i"))
    if pres.beta == 0:
        return pres.zero_class()
    return pres.class_of_vec([a for y in Y for a in y[:N.n]])


def _cover_by(T, Y):
    """D-matrix of the R-linear map R^k -> T sending generator b to the
    first T.n coordinates of Y[b]."""
    return _free_cover_matrix(T, Mat.from_cols(
        T.handle.base, T.n, [y[:T.n] for y in Y]))


def _solve_each(form, targets, error):
    """One solution per target of the system with Smith form form(), which
    is called once, and not at all without targets, all solved in one
    block; raises error when a target has no solution."""
    if not targets:
        return []
    snf = form()
    X = snf.solve_block(Mat.from_cols(snf.base, snf.m, targets))
    if X is None:
        raise error
    return X.cols()


def is_split(ses, pres=None):
    """Splitting test: vanishing class, cross-checked by a direct search
    for an R-linear section of p."""
    by_class = classify(ses, pres).is_zero()
    if by_class != _has_section(ses.p):
        raise CertificateError("classification and section search disagree")
    return by_class


def _has_section(p):
    """Does the surjection p : B -> C admit an R-linear section?  Exactly
    when id_C lies in the image of Hom(C, p) : Hom(C, B) -> Hom(C, C)."""
    C = p.dst
    H = hom(C, C)
    return in_span(H.module.span(hom_postcomposed(C, p)),
                   H.coords_of(ModMap.identity(C)))


# ---------------------------------------------------------------------------
# pushout / pullback / Baer sum by construction
# ---------------------------------------------------------------------------


def pushout_seq(ses, f):
    """Pushout of 0 -> A -> B -> C -> 0 along f : A -> N: the middle is
    S / {(-f(a), i(a))} with S = N + B.  S, the injection of N, the relation
    block inj_B o i and p o proj_B do not depend on f; they are built on the
    first pushout of ses into N and kept on ses for the next ones."""
    N = f.dst
    if N not in ses._pushouts:
        S, injs, projs = direct_sum([N, ses.B])
        ses._pushouts[N] = (S, injs[0].mat, injs[1].mat @ ses.i.mat,
                            ses.p.mat @ projs[1].mat)
    S, inj_N, rel_B, p_B = ses._pushouts[N]
    E, sq, basis = subquotient_module(S, None, [rel_B - inj_N @ f.mat])
    imap = ModMap(N, E, sq.project_cols(inj_N))
    pmap = ModMap(E, ses.C, p_B @ basis)
    return SES(A=N, B=E, C=ses.C, i=imap, p=pmap)


def pullback_seq(ses, g):
    """Pullback of 0 -> A -> B -> C -> 0 along g : M -> C."""
    A, B, C = ses.A, ses.B, ses.C
    M = g.src
    S, injs, projs = direct_sum([B, M])
    # {(b, m) : p(b) = g(m) mod rel_C}
    cond = ses.p.mat @ projs[0].mat - g.mat @ projs[1].mat
    E, sq, basis = subquotient_module(S, [preimage(cond, C.rel())])
    imap = ModMap(A, E, sq.project_cols(injs[0].mat @ ses.i.mat))
    pmap = ModMap(E, M, projs[1].mat @ basis)
    return SES(A=A, B=E, C=M, i=imap, p=pmap)


def baer_sum_by_construction(s1, s2):
    """Baer sum of two sequences with the same ends, via pullback along the
    diagonal and pushout along the codiagonal."""
    A, C = s1.A, s1.C
    base = A.handle.base
    ds = direct_sum_seq(s1, s2)
    # slot-major: the diagonal is (id; id), the codiagonal (id | id)
    eye_C, eye_A = Mat.identity(base, C.n), Mat.identity(base, A.n)
    pb = pullback_seq(ds, ModMap(C, ds.C, vstack(base, [eye_C, eye_C])))
    codiag = ModMap(pb.A, A, hstack(base, [eye_A, eye_A], m=A.n))
    return pushout_seq(pb, codiag)


def scalar_by_pushout(cls, elem):
    """r . cls computed as the pushout of its sequence along mult-by-r."""
    ses = middle(cls)
    N = cls.pres.N
    f = ModMap(N, N, N.element_action(elem))
    return classify(pushout_seq(ses, f), cls.pres)


def scalar_by_pullback(cls, elem):
    """r . cls computed as the pullback of its sequence along mult-by-r."""
    ses = middle(cls)
    M = cls.pres.M
    g = ModMap(M, M, M.element_action(elem))
    return classify(pullback_seq(ses, g), cls.pres)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _coord_values(base, e):
    """The values of a coordinate of exponent e, the shared Scalars of the
    base, lexicographically in the t-adic digits (constant term first)."""
    if not base.local:
        return [base.from_int(c) for c in range(base.p)]
    return [base._canonical(_trim(digits))
            for digits in itertools.product(range(base.p), repeat=e)]


def _check_budget(base, exps, budget):
    """Raise unless a module with invariant factors exps is finite with at
    most budget elements."""
    if base.local and any(e is None for e in exps):
        raise InfiniteLengthError("module has a free summand")
    total = base.p ** (sum(exps) if base.local else len(exps))
    if total > budget:
        raise BudgetExceeded(f"{total} elements exceed budget {budget}")


def coordinate_tuples(base, exps, budget):
    """Every coordinate tuple of a finite module with invariant factors
    exps, lexicographically."""
    _check_budget(base, exps, budget)
    return itertools.product(*[_coord_values(base, e if e is not None else 1)
                               for e in exps])


def enumerate_classes(pres, budget=2 ** 20):
    """All elements of the Ext group, coordinate-lexicographically."""
    return [ExtClass(pres, list(combo)) for combo in
            coordinate_tuples(pres.N.handle.base, pres.module.exps, budget)]


def _primitive_root(p):
    """The least generator of F_p^x."""
    primes = [q for q in range(2, p) if (p - 1) % q == 0
              and all(q % d for d in range(2, q))]
    return next(r for r in range(1, p)
                if all(pow(r, (p - 1) // q, p) != 1 for q in primes))


def orbit_units(handle):
    """Units of R whose orbits sweep merges, the first maps of
    orbit_actions: a primitive root lam of F_p^x (p > 2), and 1 + g and
    1 + lam g for each ring generator g."""
    base = handle.base
    one = handle.one_elt()
    if base.p == 2:
        return [one + g for g in handle.m_gens()]
    lam = base.from_int(_primitive_root(base.p))
    return [one * lam] + [one + g * c for g in handle.m_gens()
                          for c in (base.one(), lam)]


def orbit_actions(pres):
    """The matrices, on the coordinates of the degree-1 Ext group, of the
    maps whose orbits sweep merges, in this order: each unit of
    orbit_units; the pushout along each automorphism g of N (g on every
    slot of the cocycles); and the pullback along each automorphism f of M
    (Ext^1(f, N)).  The automorphisms are those of modules.automorphisms,
    each found when the first matrix that needs it is asked for."""
    module, sq, N = pres.module, pres.sq, pres.N
    for u in orbit_units(N.handle):
        yield module.element_action(u)
    if automorphisms(N):
        basis = sq.basis()
        for g in automorphisms(N):
            yield sq.project_cols(slotwise(g, pres.beta) @ basis)
    for f in automorphisms(pres.M):
        yield ext_induced(f, N, 1)


def _digits(module, coords):
    """The t-adic digits of reduced coordinates, one per coordinate over a
    field base, in the order coordinate_tuples enumerates them: the first
    digit is the most significant."""
    if not module.handle.base.local:
        return [c.num[0] if c.num else 0 for c in coords]
    return [d for c, e in zip(coords, module.exps)
            for d in c.num + (0,) * (e - len(c.num))]


def _image_indices(cols, p):
    """For an F_p-linear map of the classes whose digit unit r goes to the
    digits cols[r], the index of the image of each class, in enumeration
    order.  The classes are walked like an odometer: a step to the next
    class raises its last digit that is below p - 1 and wraps the ones
    after it to 0, so each digit r that changes moves by +1 mod p and the
    image moves by cols[r]; the image index follows digit by digit."""
    lam = len(cols)
    weights = [p ** (lam - 1 - r) for r in range(lam)]
    moves = [[(s, c) for s, c in enumerate(col) if c] for col in cols]
    digits, image, index = [0] * lam, [0] * lam, 0
    out = [0]
    for _ in range(p ** lam - 1):
        r = lam - 1
        while True:
            for s, c in moves[r]:
                new = (image[s] + c) % p
                index += (new - image[s]) * weights[s]
                image[s] = new
            digits[r] = (digits[r] + 1) % p
            if digits[r]:
                break
            r -= 1
        out.append(index)
    return out


def class_orbits(pres):
    """The orbits of the maps of orbit_actions on the classes of the
    degree-1 Ext group: lists of indices into enumerate_classes(pres), each
    in enumeration order, the lists ordered by their first index; found
    once and kept on pres.  Each map is F_p-linear on the t-adic digits of
    the coordinates, so it becomes one integer digit matrix, and a
    union-find over class indices merges the orbits.  The maps are
    invertible, so the zero class is an orbit of its own; once the other
    classes form one orbit, no further map is built."""
    if pres._orbits is None:
        module = pres.module
        base = module.handle.base
        zero = base.zero()
        digit_vecs = []  # the coordinates of each digit unit, in order
        for i, e in enumerate(module.exps):
            for j in range(e if base.local else 1):
                digit_vecs.append([zero] * module.n)
                digit_vecs[-1][i] = base.t_power(j)
        root = list(range(group_order(pres)))
        count = len(root)  # orbits so far

        def find(k):
            while root[k] != k:
                root[k] = root[root[k]]
                k = root[k]
            return k
        for act in orbit_actions(pres) if count > 2 else ():
            cols = [_digits(module, module.reduce_vec(act @ v))
                    for v in digit_vecs]
            for k, image in enumerate(_image_indices(cols, base.p)):
                a, b = find(k), find(image)
                if a != b:
                    root[max(a, b)] = min(a, b)
                    count -= 1
            if count == 2:
                break
        orbits = {}
        for k in range(len(root)):
            orbits.setdefault(find(k), []).append(k)
        pres._orbits = list(orbits.values())
    return pres._orbits


def sweep(pres, f, budget=2 ** 20):
    """[(cls, f(middle(cls))) for every class of the degree-1 Ext group],
    with one middle built per orbit of class_orbits.

    Contract: f may read only the isomorphism class of the middle.  Basis:
    the pushout of a sequence along an automorphism of N, or its pullback
    along an automorphism of M, has a middle isomorphic to the original one
    (Mac Lane, Homology, Ch. III); the action of a unit u of R is the
    pushout along u.id_N.  So f is constant on each orbit of the maps of
    orbit_actions: the units of orbit_units and the pushouts and pullbacks
    along the certified automorphisms of modules.automorphisms, each of
    which has passed is_surjective.  f runs once per orbit, on the middle
    of its first class, and the value is copied to the rest of the orbit.
    Check: in a group with an orbit of more than one class, the last class
    of the largest orbit gets a middle of its own, and an f value other
    than the copied one raises CertificateError.

    The first sweep of a group keeps its classes on pres, and each class
    keeps the middle it builds, so a later sweep of the group runs only its
    own f: it builds no middle, the check middle included.  The budget is
    checked on every call, kept classes or not.
    """
    if pres._classes is None:
        pres._classes = enumerate_classes(pres, budget)
    else:
        _check_budget(pres.N.handle.base, pres.module.exps, budget)
    classes = pres._classes
    orbits = class_orbits(pres)
    values = [None] * len(classes)
    for orbit in orbits:
        v = f(middle(classes[orbit[0]]))
        for k in orbit:
            values[k] = v
    largest = max(orbits, key=len)
    if len(largest) > 1:
        last = largest[-1]
        v = f(middle(classes[last]))
        if v != values[last]:
            raise CertificateError(
                f"sweep: f gives {v!r} on class {classes[last].coords} but "
                f"{values[last]!r} on the first class of its orbit")
    return list(zip(classes, values))


def group_order(pres):
    base = pres.N.handle.base
    return base.p ** (pres.module.length() if base.local
                      else len(pres.module.exps))


# ---------------------------------------------------------------------------
# induced maps and the six-term exactness check
# ---------------------------------------------------------------------------


def chain_lift(f, depth):
    """Lift f : M' -> M to chain maps on minimal resolutions, levels 0..depth.

    Returns D-matrices f_i : F'_i -> F_i.
    """
    Mp, M = f.src, f.dst
    h = M.handle
    resp = resolution(Mp, depth)
    res = resolution(M, depth)
    # level 0: cover o f0 = f o cover'
    lifts = [_cover_by(res.frees[0], _solve_each(
        lambda: res.form(0),
        [f.mat @ v for v in _generator_cols(h, resp.cover.mat, resp.betti[0])],
        SubextError("chain lift failed at level 0")))]
    for lev in range(1, depth + 1):
        if resp.betti[lev] == 0 or res.betti[lev] == 0:
            lifts.append(Mat.zeros(h.base, res.frees[lev].n,
                                   resp.frees[lev].n))
            continue
        # the D-span of the columns of d_lev is exactly the kernel of the
        # previous map, so a plain solve suffices
        lifts.append(_cover_by(res.frees[lev], _solve_each(
            lambda: res.form(lev),
            [lifts[lev - 1] @ v for v in
             _generator_cols(h, resp.diffs[lev - 1], resp.betti[lev])],
            SubextError(f"chain lift failed at level {lev}"))))
    return lifts


def ext_induced(f, N, j):
    """Matrix (on canonical coordinates) of Ext^j(f, N) : Ext^j(M, N) ->
    Ext^j(M', N) for f : M' -> M."""
    Mp, M = f.src, f.dst
    base = M.handle.base
    pres_src, pres_dst = ext(M, N, j), ext(Mp, N, j)
    if pres_src.module.is_zero() or pres_dst.module.is_zero():
        return Mat.zeros(base, pres_dst.module.n, pres_src.module.n)
    lifts = chain_lift(f, j)
    fj = lifts[j]
    # precompose: x in N^{beta_j(M)} -> x o f_j in N^{beta_j(M')}
    rmat = _rmatrix_of(M.handle, fj, pres_dst.beta)
    comp = slot_map(N, rmat)  # beta_j(M) slots -> beta_j(M') slots
    return pres_dst.sq.project_cols(comp @ pres_src.sq.basis())


def hom_induced(f, N):
    """Matrix of Hom(f, N) : Hom(M, N) -> Hom(M', N) for f : M' -> M."""
    Mp, M = f.src, f.dst
    hp_src, hp_dst = hom(M, N), hom(Mp, N)
    cols = [hp_dst.coords_of(ModMap(Mp, N, phi.mat @ f.mat))
            for phi in hp_src.maps]
    return Mat.from_cols(M.handle.base, hp_dst.module.n, cols)


def hom_postcomposed(C, g):
    """Matrix of Hom(C, g) : Hom(C, X) -> Hom(C, Y) for g : X -> Y."""
    hp_src, hp_dst = hom(C, g.src), hom(C, g.dst)
    cols = [hp_dst.coords_of(g @ phi) for phi in hp_src.maps]
    return Mat.from_cols(C.handle.base, hp_dst.module.n, cols)


def connecting_map(ses, N):
    """Matrix of the connecting map Hom(A, N) -> Ext^1(C, N) for
    0 -> A -> B -> C -> 0: phi maps to the class of its pushout."""
    base = ses.A.handle.base
    hp_A, pres_C = hom(ses.A, N), ext(ses.C, N, 1)
    cols = [list(classify(pushout_seq(ses, phi), pres_C).coords)
            for phi in hp_A.maps]
    return Mat.from_cols(base, pres_C.module.n, cols)


def six_term_check(ses, N):
    """Exactness of
    0 -> Hom(C,N) -> Hom(B,N) -> Hom(A,N) -> Ext^1(C,N) -> Ext^1(B,N)
    via length bookkeeping: at each spot length(im in) + length(im out)
    = length(middle), and consecutive composites vanish.
    Returns a dict with the lengths; raises CertificateError on failure."""
    A, B, C = ses.A, ses.B, ses.C
    mats = [hom_induced(ses.p, N),     # Hom(C,N) -> Hom(B,N)
            hom_induced(ses.i, N),     # Hom(B,N) -> Hom(A,N)
            connecting_map(ses, N),    # Hom(A,N) -> Ext1(C,N)
            ext_induced(ses.p, N, 1)]  # Ext1(C,N) -> Ext1(B,N)
    mods = [hom(C, N).module, hom(B, N).module, hom(A, N).module,
            ext(C, N, 1).module, ext(B, N, 1).module]
    # composites vanish
    for k in range(3):
        if mods[k + 2].n == 0 or mats[k].n == 0 or mats[k + 1].n == 0:
            continue
        comp = mats[k + 1] @ mats[k]
        if any(x.num for row in normalize_rows(mods[k + 2].exps, comp).rows
               for x in row):
            raise CertificateError(f"composite {k} -> {k + 2} is nonzero")
    lens = [m.length() for m in mods]
    imlens = [_image_length(mods[k + 1], mats[k]) for k in range(4)]
    # injectivity at Hom(C, N): ker(m1) = 0
    if imlens[0] != lens[0]:
        raise CertificateError("Hom(C,N) -> Hom(B,N) is not injective")
    # middle spots: length(middle) = length(im in) + length(im out)
    for k in range(3):
        if lens[k + 1] != imlens[k] + imlens[k + 1]:
            raise CertificateError(
                f"sequence not exact at position {k + 1}: "
                f"{lens[k + 1]} != {imlens[k]} + {imlens[k + 1]}")
    return {"lengths": lens, "image_lengths": imlens}


# ---------------------------------------------------------------------------
# Tor
# ---------------------------------------------------------------------------


def tor1_length(M, J):
    """lambda(Tor_1^R(M, R/J)) for an ideal J, via a resolution of M."""
    res = resolution(M, 2)
    F0, F1 = res.frees[0], res.frees[1]
    if F1.n == 0:
        return 0
    gens = J.as_ring_ideal().gens
    # F0 and F1 are free, so their spans carry no relation columns
    Z = preimage(res.diffs[0], F0.span(*[F0.element_action(g) for g in gens]))
    V = [res.diffs[1]] + [F1.element_action(g) for g in gens]
    return F1.quotient_length([Z] + V, V, "Tor_1 has a free summand")

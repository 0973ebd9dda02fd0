"""Numerical functions on modules and the Ext subfunctors they induce.

A numerical function assigns a nonnegative integer to each module (number of
generators, colength against an ideal, Hom or tensor lengths against a fixed
test module, stabilized Tor multiplicity).  Each such function carves out the
set of degree-1 extension classes on whose sequence it is additive; when that
set is a submodule of Ext^1 we certify it by cardinality count against the
span of its members.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .dcoeff import Mat, hstack, preimage
from .errors import CertificateError, SubextError
from .ext import (SES, coordinate_tuples, ext, hom_induced,
                  hom_postcomposed, middle, pullback_seq, pushout_seq, sweep)
from .modules import (ModMap, _free_cover_matrix, _image_length, direct_sum,
                      from_fractional_ideal, from_quotient_ideal, hom, is_mcm,
                      length, mu, nu, power, regular_module, residue_field,
                      resolution, slot_map, slotwise, submodule)
from .rings import m_ideal
from .ulrich import _stabilized, ulrich_middle


# ---------------------------------------------------------------------------
# tensor lengths
# ---------------------------------------------------------------------------


def _tensor_presentation(X, res):
    """(P, V) with X (x)_R C = P / <V>, for res a minimal presentation of C:
    P = X^{beta_0}, and V the image of X^{beta_1} under X (x) d_1."""
    b0, b1 = res.betti[0], res.betti[1]
    rmxT = [[res.rmx[0][r][c] for r in range(b0)] for c in range(b1)]
    return power(X, b0), slot_map(X, rmxT)


def tensor_length(X, C):
    """lambda(X (x)_R C), via a minimal presentation of C; kept on X."""
    if X.is_zero() or C.is_zero():
        return 0
    key = ("tensor_length", C)
    if key not in X._cache:
        P, V = _tensor_presentation(X, resolution(C, 1))
        X._cache[key] = P.quotient_length(
            None, [V], "tensor product has infinite length")
    return X._cache[key]


def _tensor_image_length(f, C):
    """Length of the image of f (x) C : A (x) C -> B (x) C for f : A -> B."""
    A, B = f.src, f.dst
    res = resolution(C, 1)
    b0 = res.betti[0]
    if b0 == 0 or A.is_zero() or B.is_zero():
        return 0
    P, V = _tensor_presentation(B, res)
    return P.quotient_length([slotwise(f, b0), V], [V],
                             "tensor image has infinite length")


# ---------------------------------------------------------------------------
# stabilized Tor multiplicity
# ---------------------------------------------------------------------------


def tor_multiplicity(I, M):
    """Stabilized value of lambda(Tor_1(M, R/I^{n+1})); defined for maximal
    Cohen-Macaulay modules (and the zero module)."""
    from .ext import tor1_length
    if M.is_zero():
        return 0
    if not is_mcm(M):
        raise SubextError("Tor multiplicity is defined on MCM modules only")
    return _stabilized(lambda n: tor1_length(M, I.power(n + 1)), "Tor lengths")


# ---------------------------------------------------------------------------
# numerical functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumFn:
    """A numerical function on modules.

    kind is one of "mu", "colength", "hom_from", "hom_to", "tensor",
    "tor_mult"; payload is the ideal or test module it refers to.
    """
    kind: str
    payload: object = None

    def __call__(self, M):
        """The value on M, kept on M by the kind and the payload's identity
        (a FracIdeal is unhashable); the entry holds the payload, so the id
        is not reused while it lives.  A raised error stores nothing."""
        key = ("numfn", self.kind, id(self.payload))
        if key not in M._cache:
            M._cache[key] = (self.payload, self._value(M))
        return M._cache[key][1]

    def _value(self, M):
        if self.kind == "mu":
            return mu(M)
        if self.kind == "colength":
            return nu(self.payload, M)
        if self.kind == "hom_from":
            return length(hom(self.payload, M).module)
        if self.kind == "hom_to":
            return length(hom(M, self.payload).module)
        if self.kind == "tensor":
            return tensor_length(M, self.payload)
        if self.kind == "tor_mult":
            return tor_multiplicity(self.payload, M)
        raise SubextError(f"unknown numerical function kind {self.kind!r}")


def fn_mu():
    return NumFn(kind="mu")


def fn_colength(I):
    return NumFn(kind="colength", payload=I)


def fn_hom_from(C):
    return NumFn(kind="hom_from", payload=C)


def fn_hom_to(C):
    return NumFn(kind="hom_to", payload=C)


def fn_tensor(C):
    return NumFn(kind="tensor", payload=C)


def fn_tor_mult(I):
    return NumFn(kind="tor_mult", payload=I)


def is_additive_on(fn, ses):
    return fn(ses.B) == fn(ses.A) + fn(ses.C)


# ---------------------------------------------------------------------------
# half-exactness agreement
# ---------------------------------------------------------------------------


def exactness_on(fn, ses):
    """Whether the half-exact functor behind fn stays exact on ses,
    decided directly (not via lengths of the middle)."""
    if fn.kind in ("mu", "hom_to"):
        C = residue_field(ses.B.handle) if fn.kind == "mu" else fn.payload
        H = hom(ses.A, C).module
        return _image_length(H, hom_induced(ses.i, C)) == length(H)
    if fn.kind == "hom_from":
        H = hom(fn.payload, ses.C).module
        return (_image_length(H, hom_postcomposed(fn.payload, ses.p))
                == length(H))
    if fn.kind in ("colength", "tensor"):
        if fn.kind == "colength":
            C = from_quotient_ideal(ses.B.handle, fn.payload)
        else:
            C = fn.payload
        return _tensor_image_length(ses.i, C) == tensor_length(ses.A, C)
    raise SubextError(f"no direct exactness test for kind {fn.kind!r}")


def half_exact_agreement(fn, ses):
    """Compare additivity of fn on ses with direct exactness of the
    underlying functor; raises CertificateError if they disagree."""
    add = is_additive_on(fn, ses)
    exa = exactness_on(fn, ses)
    if add != exa:
        raise CertificateError(
            f"additivity ({add}) and exactness ({exa}) disagree for "
            f"{fn.kind}")
    return add


# ---------------------------------------------------------------------------
# Ext subfunctors by enumeration
# ---------------------------------------------------------------------------


@dataclass
class SubfunResult:
    members: list               # ExtClass members
    total: int                  # order of the full Ext group
    span_length: int            # length of the span of the members
    certified: bool             # members form exactly a submodule


def submodule_members(module, cols, budget=2 ** 20):
    """All elements (as reduced coordinate tuples) of the submodule of
    `module` spanned over R by the given coordinate columns."""
    base = module.handle.base
    if module.n == 0:
        return {()}
    closed = _free_cover_matrix(module, cols)
    sq = module.quotient([closed])
    basis = sq.basis()
    return {tuple(module.reduce_vec(basis @ list(v)))
            for v in coordinate_tuples(base, sq.exps, budget)}


def subfunctor_result(pres, members, total, budget=2 ** 20):
    """The member classes out of `total`, certified when they are exactly
    the elements of the submodule of Ext^1 their coordinates span."""
    base = pres.N.handle.base
    module = pres.module
    cols = Mat.from_cols(base, module.n, [list(c.coords) for c in members])
    span = submodule_members(module, cols, budget) if members else set()
    span_len = 0
    while base.p ** span_len < len(span):
        span_len += 1
    certified = (len(members) == len(span)
                 and all(c.coords in span for c in members))
    return SubfunResult(members=members, total=total, span_length=span_len,
                        certified=certified)


def ext1_subfunctor(pres, predicates, budget=2 ** 20):
    """For each predicate on sequences, the member classes
    {c : predicate(middle(c))} of Ext^1 with a submodule-closure
    certificate; one sweep builds one middle per orbit of units and
    automorphisms of the ends for all predicates, so each predicate may
    read only the isomorphism class of the middle."""
    rows = sweep(pres, lambda ses: [pred(ses) for pred in predicates], budget)
    return [subfunctor_result(pres, [cls for cls, hits in rows if hits[k]],
                              len(rows), budget)
            for k in range(len(predicates))]


def additive(fn, pres):
    """The predicate "fn is additive on the sequence" for sequences
    0 -> N -> B -> M -> 0 with the ends of pres; fn(M) + fn(N) is
    computed once."""
    ends = fn(pres.M) + fn(pres.N)
    return lambda ses: fn(ses.B) == ends


def ext1_additive(pres, fn, budget=2 ** 20):
    """Classes on whose sequence the numerical function fn is additive."""
    return ext1_subfunctor(pres, [additive(fn, pres)], budget)[0]


def ext1_ulrich(pres, I, budget=2 ** 20):
    """Classes whose middle term is I-Ulrich."""
    return ext1_subfunctor(pres, [ulrich_middle(I, pres)], budget)[0]


def ideal_times_ext(pres, J, budget=2 ** 20):
    """The coordinate set of the submodule J . Ext^1 inside the Ext group."""
    base = pres.N.handle.base
    module = pres.module
    gens = J.as_ring_ideal().gens
    cols = hstack(base, [module.element_action(g) for g in gens], m=module.n)
    return submodule_members(module, cols, budget)


def member_coords(result):
    return {c.coords for c in result.members}


# ---------------------------------------------------------------------------
# closure axioms
# ---------------------------------------------------------------------------


# check_closure_axioms tests closure on at most BAER_SAMPLE members per pair
BAER_SAMPLE = 6


@dataclass
class AxiomReport:
    checks: int
    violations: list


def check_closure_axioms(handle, predicate, pairs, rng_seed=0,
                         budget=2 ** 14):
    """Exercise the closure axioms of a sequence predicate on the given
    (M, N) pairs: split sequences are members; members are closed under Baer
    sum, ring scalars (pushout and pullback along multiplication maps) and
    composed deflations, on BAER_SAMPLE members drawn with rng_seed and the
    first two ring generators.  Membership in each Ext group comes from
    sweep, so the predicate may read only the isomorphism class of the
    middle; middles are built for the sampled members only.  Returns an
    AxiomReport listing every violation found; an Ext group past the
    budget raises BudgetExceeded."""
    rng = random.Random(rng_seed)
    if handle.base.local:
        elems = [handle.t_elt(v) for v in handle.semigroup[:2]]
    else:
        elems = [handle.gen_elt(g) for g in handle.spec.variables[:2]]
    checks = 0
    violations = []

    def note(ok, desc):
        nonlocal checks
        checks += 1
        if not ok:
            violations.append(desc)

    for (M, N) in pairs:
        pres = ext(M, N, 1)
        rows = sweep(pres, predicate, budget)
        member = {cls.coords: hit for cls, hit in rows}
        mem = [cls for cls, hit in rows if hit]
        note(member[pres.zero_class().coords], "split sequence rejected")
        # Baer closure
        sample = (mem if len(mem) <= BAER_SAMPLE
                  else rng.sample(mem, BAER_SAMPLE))
        for c1 in sample:
            for c2 in sample:
                s = c1 + c2
                note(member[s.coords],
                     f"Baer sum of members {c1.coords} + {c2.coords} left")
        # scalar closure
        for c in sample:
            for r in elems:
                s = c.scale(r)
                note(member[s.coords],
                     f"scalar multiple {c.coords} * {r} left")
        # pushout / pullback closure along multiplication maps (these
        # realize the scalar action through the universal constructions)
        seqs = [(c, middle(c)) for c in sample]
        for c, ses in seqs:
            for r in elems:
                f = ModMap(N, N, N.element_action(r))
                note(predicate(pushout_seq(ses, f)),
                     f"pushout of {c.coords} along *{r} left")
                g = ModMap(M, M, M.element_action(r))
                note(predicate(pullback_seq(ses, g)),
                     f"pullback of {c.coords} along *{r} left")
        # composition of deflations: compose the epi of a member sequence
        # with a split epi on top and test the kernel sequence
        for c, ses in seqs[:3]:
            note(predicate(_composed_deflation(ses)),
                 f"composed deflation of {c.coords} left")
    return AxiomReport(checks=checks, violations=violations)


def _composed_deflation(ses):
    """Given 0 -> A -> B -> C -> 0, stack the split epi A + B -> B on top of
    p and return the kernel sequence 0 -> ker -> A + B -> C -> 0."""
    A, B, C = ses.A, ses.B, ses.C
    S, _, projs = direct_sum([A, B])
    comp = ModMap(S, C, ses.p.mat @ projs[1].mat)
    K = preimage(comp.mat, C.rel())
    Kmod, incl = submodule(S, K)
    out = SES(A=Kmod, B=S, C=C, i=incl, p=comp)
    out.certify()
    return out


def default_pairs(handle):
    """A stock of (M, N) pairs with small Ext groups for axiom checking."""
    k = residue_field(handle)
    F = regular_module(handle)
    m = m_ideal(handle)
    out = [(k, F), (k, k)]
    if handle.dim == 1:
        Mm = from_fractional_ideal(handle, m)
        out.append((Mm, Mm))
        out.append((k, Mm))
    else:
        Q = from_quotient_ideal(handle, m)
        out.append((Q, F))
    return out

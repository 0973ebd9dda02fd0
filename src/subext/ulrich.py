"""Multiplicity, Ulrich modules, and blow-up module structures.

Multiplicities are always computed by two independent routes (principal
reduction and stabilized Hilbert function) and compared.  Ulrich-ness of M
with respect to an ideal I means: M is maximal Cohen-Macaulay and
lambda(M/IM) equals the multiplicity e_I(M); this is cross-checked against
IM = xM for a principal reduction x of I.

All the middles B of an Ext^1 group share one multiplicity: e_I is
additive on short exact sequences (Bruns-Herzog, Cohen-Macaulay Rings,
4.7), so e_I(B) = e_I(M) + e_I(N).  A sweep with `ulrich_middle` runs both
multiplicity routes once, on the first MCM middle, and keeps the IM = xM
cross-check on every middle.
"""

from __future__ import annotations

from .dcoeff import Mat, hstack, solve_matrix
from .errors import (CertificateError, ReductionNotFound,
                     StabilizationBudget, SubextError)
from .ext import (SES, _has_section, classify, enumerate_classes, ext,
                  hom_induced, middle)
from .modules import (CoeffModule, ModMap, canonical_module, colon_in_module,
                      from_fractional_ideal, hom, is_mcm, is_surjective,
                      length, nu, power, quotient_module, regular_module,
                      submodule, torsion_part, validate_module)
from .rings import blow_up, m_ideal, principal_reduction

# _stabilized: SETTLE_RUN equal values in a row within SETTLE_STEPS steps
SETTLE_RUN = 4
SETTLE_STEPS = 24


# ---------------------------------------------------------------------------
# multiplicity
# ---------------------------------------------------------------------------


def _stabilized(value, what):
    """The value that the lengths value(0), value(1), ... settle at; raises
    StabilizationBudget naming what and the values seen otherwise."""
    vals = []
    for n in range(SETTLE_STEPS + 1):
        vals.append(value(n))
        if len(vals) >= SETTLE_RUN and len(set(vals[-SETTLE_RUN:])) == 1:
            return vals[-1]
    raise StabilizationBudget(
        f"{what} did not stabilize within {SETTLE_STEPS} steps: {vals}")


def _power_colength(M, I, n):
    """lambda(I^n M / I^{n+1} M)."""
    gens_n = I.power(n).as_ring_ideal().gens if n else [M.handle.one_elt()]
    gens_n1 = I.power(n + 1).as_ring_ideal().gens
    return M.quotient_length([M.element_action(g) for g in gens_n],
                             [M.element_action(g) for g in gens_n1],
                             "Hilbert function value is infinite")


def multiplicity_hilbert(M, I):
    """e_I(M) as the stabilized value of lambda(I^n M / I^{n+1} M), taken
    on M modulo its finite-length part: e_I vanishes there, and the Hilbert
    function of a finite-length module can stand still for SETTLE_RUN steps
    before it drops (1, 1, 1, 1, 0 for R/t^4 over a DVR)."""
    if M.torsion():
        M, _ = quotient_module(M, torsion_part(M)[1].mat)
        if M.is_zero():
            return 0
    return _stabilized(lambda n: _power_colength(M, I, n), "Hilbert function")


def multiplicity_reduction(M, I):
    """e_I(M) = lambda(M/xM) - lambda(0 :_M x) for a principal reduction x."""
    h = M.handle
    red, _ = principal_reduction(I)
    if red.den != h.one_elt():
        raise ReductionNotFound("reduction has a non-trivial denominator")
    x = red.num
    co = M.quotient_length(None, [M.element_action(x)],
                           "M/xM is infinite; x is not a parameter on M")
    K, _ = colon_in_module(M, Mat.zeros(h.base, M.n, 0), [x])
    return co - length(K)


def multiplicity(M, I=None):
    """e_I(M), computed twice (reduction and Hilbert function) and compared."""
    h = M.handle
    if M.is_zero():
        return 0
    if I is None:
        I = m_ideal(h)
    if h.dim == 0:
        return length(M)
    e1 = multiplicity_reduction(M, I)
    e2 = multiplicity_hilbert(M, I)
    if e1 != e2:
        raise CertificateError(
            f"multiplicity routes disagree: reduction {e1}, hilbert {e2}")
    return e1


def phi(I, M):
    """phi_I(M) = lambda(M/IM) - e_I(M); zero exactly on I-Ulrich modules."""
    if M.is_zero():
        return 0
    return nu(I, M) - multiplicity(M, I)


def is_ulrich(I, M):
    """M is I-Ulrich: MCM with lambda(M/IM) = e_I(M); cross-checked by
    IM = xM for a principal reduction x of I."""
    return _ulrich(I, M, lambda: multiplicity(M, I))


def ulrich_middle(I, pres):
    """The predicate "the middle is I-Ulrich" for sequences
    0 -> N -> B -> M -> 0 with the ends of pres.  It gives the answer of
    is_ulrich(I, B).  e_I is additive on these sequences, so every middle
    has e_I(B) = e_I(M) + e_I(N): it is computed once, by both routes of
    multiplicity, from the first MCM middle the predicate meets."""
    e = []

    def e_of(B):
        if not e:
            e.append(multiplicity(B, I))
        return e[0]

    def predicate(ses):
        if ses.A is not pres.N or ses.C is not pres.M:
            raise SubextError(
                "ulrich_middle takes sequences 0 -> N -> B -> M -> 0 whose "
                "ends are those of its Ext group")
        return _ulrich(I, ses.B, lambda: e_of(ses.B))
    return predicate


def _ulrich(I, M, e_of):
    """The Ulrich test, with e_I(M) from e_of(), called only when M is
    nonzero and MCM."""
    if M.is_zero():
        return True
    if not is_mcm(M):
        return False
    by_phi = nu(I, M) == e_of()
    # cross-check: IM = xM (needs a principal reduction, dimension 1 only)
    h = M.handle
    if h.dim == 0:
        return by_phi
    try:
        red, _ = principal_reduction(I)
    except ReductionNotFound:
        return by_phi
    if red.den != h.one_elt():
        return by_phi
    IM = [M.element_action(g) for g in I.as_ring_ideal().gens]
    by_span = not M.quotient(IM, [M.element_action(red.num)]).exps
    if by_phi != by_span:
        raise CertificateError(
            f"Ulrich tests disagree: phi gives {by_phi}, IM = xM gives {by_span}")
    return by_phi


def ulrich_samples(handle, I=None, powers=3):
    """Stock of I-Ulrich candidates: the blow-up algebra as a module, high
    powers of I, and small direct sums."""
    if I is None:
        I = m_ideal(handle)
    B, _ = blow_up(I)
    out = []
    Bmod = from_fractional_ideal(handle, B)
    out.append(("blowup", Bmod))
    for n in range(1, powers + 1):
        out.append((f"I^{n}", from_fractional_ideal(handle, I.power(n))))
    out.append(("blowup^2", power(Bmod, 2)))
    return out


# ---------------------------------------------------------------------------
# module structures over the blow-up
# ---------------------------------------------------------------------------


def restrict_to_blowup(M, bh, red):
    """Give the R-module M its module structure over the blow-up ring handle
    bh (built from an ideal with monomial principal reduction red).

    Fails with SubextError if M is not stable under the blow-up algebra.
    """
    h = M.handle
    a = red.num.valuation()
    b = red.den.valuation()
    if red.num != h.t_elt(a) or red.den != h.t_elt(b):
        raise ReductionNotFound("blow-up restriction needs monomial reductions")
    member = _semigroup_member(h.semigroup, 4096)
    actions = {}
    for v in bh.semigroup:
        # t^v * t^(N a) = t^(v + N(a-b)) * t^(N b) with all factors in R
        N = 0
        while True:
            w = v + N * (a - b)
            if w >= 0 and member(w) and member(N * a) and member(N * b):
                break
            N += 1
            if N > 64:
                raise SubextError("no representative for blow-up generator")
        A = M.element_action(h.t_elt(N * a))
        B = M.element_action(h.t_elt(w)) @ M.element_action(h.t_elt(N * b))
        X = solve_matrix(A.transpose(), B.transpose())
        if X is None:
            raise SubextError(
                f"module is not stable under the blow-up element t^{v}")
        actions[f"t^{v}"] = X.transpose()
    out = CoeffModule(bh, M.exps, actions)
    validate_module(out)
    return out


def restrict_to_base(E, rh, bh):
    """View a module over the blow-up handle bh as a module over rh."""
    actions = {}
    for g, v in zip(rh.gen_names, rh.semigroup):
        actions[g] = E.element_action(bh.t_elt(v))
    out = CoeffModule(rh, E.exps, actions)
    validate_module(out)
    return out


def _semigroup_member(gens, bound):
    from .rings import semigroup_closure
    table = semigroup_closure(list(gens), bound)

    def member(v):
        if v < 0:
            return False
        if v < len(table):
            return bool(table[v])
        return True
    return member


def blowup_sequence_comparison(Mb, Nb, rh, bh, pres_R):
    """Classify every extension of Mb by Nb over the blow-up ring as an
    R-extension; returns the list of (B-class, R-class) pairs.

    Mb, Nb are bh-modules; pres_R is Ext^1 over rh of their restrictions.
    """
    def r_class(ses_b):
        A = restrict_to_base(ses_b.A, rh, bh)
        B = restrict_to_base(ses_b.B, rh, bh)
        C = restrict_to_base(ses_b.C, rh, bh)
        ses_r = SES(A=A, B=B, C=C,
                    i=ModMap(A, B, ses_b.i.mat),
                    p=ModMap(B, C, ses_b.p.mat))
        ses_r.certify()
        return classify(ses_r, pres_R)
    return [(cls, r_class(middle(cls)))
            for cls in enumerate_classes(ext(Mb, Nb, 1))]


# ---------------------------------------------------------------------------
# add-closure and MCM approximations
# ---------------------------------------------------------------------------


def in_add(M, X):
    """Is M a direct summand of a finite direct sum of copies of X?

    Criterion: the evaluation map X^r -> M over all Hom generators is a
    split surjection.
    """
    if M.is_zero():
        return True
    if X.is_zero():
        return False
    H = hom(X, M)
    r = len(H.maps)
    if r == 0:
        return False
    Phi = ModMap(power(X, r), M,
                 hstack(M.handle.base, [phim.mat for phim in H.maps], m=M.n))
    if not is_surjective(Phi):
        return False
    return _has_section(Phi)


def mcm_approximation_of_k(handle):
    """The sequence 0 -> omega -> Hom(m, omega) -> k' -> 0 obtained by
    dualizing 0 -> m -> R -> k -> 0 into the canonical module.

    Returns (ses, pres) where pres is Ext^1(k', omega); the cokernel k' is
    the residue field whenever the ring is not regular.
    """
    h = handle
    F = regular_module(h)
    m = m_ideal(h)
    Mm, incl = submodule(F, m.span_basis())
    w = canonical_module(h)
    imat = hom_induced(incl, w)
    A = hom(F, w).module       # = omega
    B = hom(Mm, w).module      # = m-dual
    i = ModMap(A, B, imat)
    C, p = quotient_module(B, imat)
    ses = SES(A=A, B=B, C=C, i=i, p=p)
    ses.certify()
    pres = ext(C, A, 1)
    return ses, pres

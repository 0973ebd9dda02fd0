"""Named verification scenarios over bundled desk-scale rings.

Each scenario checks a theorem-shaped statement by brute-force enumeration
(extension classes, middles, subfunctor member sets) and reports one record
per instance with inputs, computed values, the expected relation, and a
pass flag.  Budget exhaustion is recorded per instance with status "budget"
and never conflated with a mathematical failure.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass

from .dcoeff import Mat
from .errors import (BudgetExceeded, CertificateError, StabilizationBudget,
                     UnknownScenarioError)
from .ext import (ExtClass, SES, classify, enumerate_classes, ext,
                  group_order, is_split, middle, sweep)
from .modules import (ModMap, _free_cover_matrix, canonical_module,
                      colon_in_module, direct_sum, dualize_omega,
                      from_fractional_ideal, from_quotient_ideal,
                      is_isomorphic, is_mcm, loewy_length, mu,
                      quotient_module, regular_module, residue_field,
                      resolution, syzygy, transpose)
from .rings import (FracIdeal, RingSpec, blow_up, build_ring, m_ideal,
                    principal_reduction, ring_invariants, trace_ideal)
from .subfun import (additive, check_closure_axioms, default_pairs,
                     ext1_additive, ext1_subfunctor, ext1_ulrich, fn_colength,
                     fn_mu, fn_tensor, fn_tor_mult, fn_hom_from, fn_hom_to,
                     half_exact_agreement, ideal_times_ext, is_additive_on,
                     member_coords, subfunctor_result)
from .ulrich import (blowup_sequence_comparison, is_ulrich,
                     mcm_approximation_of_k, restrict_to_base,
                     restrict_to_blowup, ulrich_middle)

DEFAULT_BUDGET = 2 ** 20


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


class Tally:
    """Deterministic count of enumeration work done by a scenario."""

    def __init__(self):
        self.used = 0

    def add(self, n):
        self.used += n


@dataclass
class ScenarioResult:
    name: str
    description: str
    rings: str
    instances: list
    status: str                 # "pass" | "fail" | "budget"
    aggregate_pass: bool
    seed: int
    budget: int
    budget_used: int
    wall_time_s: float

    def to_dict(self):
        return {
            "scenario": self.name,
            "description": self.description,
            "rings": self.rings,
            "instances": self.instances,
            "status": self.status,
            "aggregate_pass": self.aggregate_pass,
            "seed": self.seed,
            "budget": self.budget,
            "budget_used": self.budget_used,
            "wall_time_s": self.wall_time_s,
        }


def render_report(result):
    """Stable-key-ordered serialization; byte-identical for identical
    (scenario, seed, budget) modulo the wall_time_s field."""
    return json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"


def _inst(inputs, computed, expected, ok):
    return {"inputs": inputs, "computed": computed, "expected": expected,
            "status": "pass" if ok else "fail", "pass": bool(ok)}


def _budget_inst(inputs, expected, message):
    return {"inputs": inputs, "computed": {"error": message},
            "expected": expected, "status": "budget", "pass": None}


def _guarded(instances, inputs, expected, thunk):
    """Run thunk() -> (computed, ok); budget errors become budget records."""
    try:
        computed, ok = thunk()
    except (BudgetExceeded, StabilizationBudget) as exc:
        instances.append(_budget_inst(inputs, expected, str(exc)))
        return
    instances.append(_inst(inputs, computed, expected, ok))


def _sg(p, *gens):
    return build_ring(RingSpec(family="semigroup", p=p,
                               semigroup_gens=tuple(gens),
                               label=f"<{','.join(map(str, gens))}>/F_{p}"))


def _dvr(p):
    return build_ring(RingSpec(family="dvr", p=p, label=f"F_{p}-DVR"))


def _artin_sq(p, nvars):
    """F_p[x_1..x_n] / (x_1..x_n)^2."""
    variables = tuple("xyz"[:nvars])
    monos = tuple(tuple((i == a) + (i == b) for i in range(nvars))
                  for a in range(nvars) for b in range(a, nvars))
    return build_ring(RingSpec(
        family="artin_monomial", p=p, variables=variables,
        ideal_monomials=monos, label=f"F_{p}[{','.join(variables)}]/m^2"))


def _cyclic(handle, a):
    return from_quotient_ideal(handle, FracIdeal(handle, [handle.t_elt(a)]))


def _Mm(handle):
    return from_fractional_ideal(handle, m_ideal(handle))


def _Bmod(handle, I=None):
    B, _ = blow_up(I if I is not None else m_ideal(handle))
    return from_fractional_ideal(handle, B)


def _additive_set(pres, fn, budget, tally):
    rows = sweep(pres, additive(fn, pres), budget)
    tally.add(len(rows))
    return {cls.coords for cls, ok in rows if ok}


def _full_set(pres, budget, tally):
    classes = enumerate_classes(pres, budget)
    tally.add(len(classes))
    return {c.coords for c in classes}


def _zero_set(pres):
    return {pres.zero_class().coords}


def _sorted_coords(coords_set):
    return sorted(coords_set, key=repr)


# ---------------------------------------------------------------------------
# dvr-mu: over discrete valuation rings the mu-additive classes of
# Ext^1(M, N) are exactly m.Ext^1, checked classwise for all pairs of
# direct sums of R and R/t^a (a <= 4, at most 2 summands)
# ---------------------------------------------------------------------------


def _dvr_sum(handle, exps_spec):
    parts = [regular_module(handle) if a == 0 else _cyclic(handle, a)
             for a in exps_spec]
    if len(parts) == 1:
        return parts[0]
    return direct_sum(parts)[0]


def _phi0_cols(pres):
    """Constant coefficients of ambient cocycle lifts of the invariant
    basis of the Ext group (entries in F_p).

    Over a DVR with a minimal resolution, mu(middle(c)) equals
    n(N) + beta_0 minus the F_p-rank of the lifted cocycle matrix modulo m,
    because the relation columns and the differential entries all lie in m.
    The class c is mu-additive exactly when that rank is zero, and the rank
    is linear in the constant digits of the coordinates of c.
    """
    return [[(s.num[0] if s.num else 0) for s in amb]
            for amb in pres.sq.basis().cols()]


def _scn_dvr_mu(seed, budget, tally):
    rng = random.Random(seed)
    instances = []
    cross_checked = 0
    cross_bad = 0
    for p in (2, 3, 5):
        D = _dvr(p)
        m = m_ideal(D)
        opts = [0, 1, 2, 3, 4]            # 0 encodes a free summand R
        msets = ([(a,) for a in opts]
                 + [(a, b) for i, a in enumerate(opts) for b in opts[i:]])
        mods = {ms: _dvr_sum(D, ms) for ms in msets}
        mismatches = 0
        covered = 0
        pairs = 0
        for Ms in msets:
            for Ns in msets:
                M, N = mods[Ms], mods[Ns]
                pres = ext(M, N, 1)
                lam = pres.module.length()
                n = pres.module.n
                cols = _phi0_cols(pres)
                nrows = len(cols[0]) if cols else 0
                for v in itertools.product(range(p), repeat=n):
                    by_rank = all(
                        sum(c[r] * x for c, x in zip(cols, v)) % p == 0
                        for r in range(nrows))
                    in_m_ext = all(x == 0 for x in v)
                    if by_rank != in_m_ext:
                        mismatches += p ** (lam - n)
                covered += p ** lam
                pairs += 1
                tally.add(p ** n)
                # exhaustive slow-route cross-check on small groups
                if p ** lam <= 64 and rng.random() < 0.2:
                    mem = ideal_times_ext(pres, m)
                    for cls, slow_add in sweep(pres, additive(fn_mu(), pres),
                                               budget):
                        fast = all((c.num[0] if c.num else 0) == 0
                                   for c in cls.coords)
                        if slow_add != fast or (cls.coords in mem) != fast:
                            cross_bad += 1
                        cross_checked += 1
                    tally.add(p ** lam)
        instances.append(_inst(
            {"p": p, "max_exponent": 4, "max_summands": 2, "pairs": pairs},
            {"classes_covered": covered, "mismatches": mismatches},
            "mu-additive classes = m.Ext^1, classwise", mismatches == 0))
    instances.append(_inst(
        {"seed": seed, "cross_checked_classes": cross_checked},
        {"disagreements": cross_bad},
        "fast rank criterion agrees with middle construction and "
        "submodule membership", cross_bad == 0 and cross_checked > 0))
    return "F_p-DVR for p in {2,3,5}", instances


# ---------------------------------------------------------------------------
# cycquot: lambda(Ext^1(R/x, R/I)^mu) = lambda(m / (I + xR)) over DVRs
# ---------------------------------------------------------------------------


def _scn_cycquot(seed, budget, tally):
    instances = []
    for p in (2, 3, 5):
        D = _dvr(p)
        m = m_ideal(D)
        for a in range(1, 5):
            for b in range(a, 5):
                Mx = _cyclic(D, a)
                NI = _cyclic(D, b)
                pres = ext(Mx, NI, 1)
                res = ext1_additive(pres, fn_mu(), budget)
                tally.add(res.total)
                lhs = res.span_length
                J = FracIdeal(D, [D.t_elt(b)]) + FracIdeal(D, [D.t_elt(a)])
                rhs = m.length_over(J)
                instances.append(_inst(
                    {"p": p, "x": f"t^{a}", "I": f"(t^{b})"},
                    {"lambda_subfunctor": lhs, "lambda_m_mod_I_xR": rhs,
                     "certified_submodule": res.certified},
                    "lambda(Ext^1(R/x, R/I)^mu) = lambda(m/(I + xR))",
                    lhs == rhs and res.certified))
    # the quotient sequence 0 -> R/I -> R/xI -> R/xR -> 0 with x = t^2,
    # I = (t^3) represents a class outside the mu-subfunctor
    for p in (2, 3):
        D = _dvr(p)
        base = D.base
        A, B, C = _cyclic(D, 3), _cyclic(D, 5), _cyclic(D, 2)
        ses = SES(A=A, B=B, C=C,
                  i=ModMap(A, B, Mat(base, [[base.t_power(2)]])),
                  p=ModMap(B, C, Mat(base, [[base.one()]])))
        ses.certify()
        pres = ext(C, A, 1)
        cls = classify(ses, pres)
        add = is_additive_on(fn_mu(), ses)
        in_m = cls.coords in ideal_times_ext(pres, m_ideal(D))
        instances.append(_inst(
            {"p": p, "sequence": "0 -> R/t^3 -> R/t^5 -> R/t^2 -> 0"},
            {"mu_additive": add, "in_m_ext": in_m,
             "mu_middle": mu(ses.B)},
            "the quotient sequence is not mu-additive and generates "
            "Ext^1 modulo m", (not add) and (not in_m)))
    return "F_p-DVR for p in {2,3,5}", instances


# ---------------------------------------------------------------------------
# regu-d1 / reg-depth1: Ext^1(k, R)^mu vanishes exactly over the regular
# rings among the depth-1 families
# ---------------------------------------------------------------------------


def _ext_k_R_mu(handle, budget, tally):
    k = residue_field(handle)
    F = regular_module(handle)
    pres = ext(k, F, 1)
    add = _additive_set(pres, fn_mu(), budget, tally)
    return pres, add


def _scn_regu_d1(seed, budget, tally):
    instances = []
    for handle, regular in [(_dvr(2), True), (_dvr(3), True), (_dvr(5), True),
                            (_sg(2, 2, 3), False)]:
        pres, add = _ext_k_R_mu(handle, budget, tally)
        vanishes = add == _zero_set(pres)
        instances.append(_inst(
            {"ring": handle.label},
            {"subfunctor_trivial": vanishes, "regular": regular,
             "group_order": group_order(pres)},
            "Ext^1(k, R)^mu = 0 if and only if R is regular",
            vanishes == regular))
    return "DVRs p in {2,3,5} and <2,3>/F_2", instances


def _scn_reg_depth1(seed, budget, tally):
    instances = []
    for handle in [_sg(2, 2, 3), _sg(2, 3, 4, 5), _sg(2, 2, 5),
                   _sg(2, 5, 6, 7)]:
        pres, add = _ext_k_R_mu(handle, budget, tally)
        nontrivial = add != _zero_set(pres)
        instances.append(_inst(
            {"ring": handle.label},
            {"subfunctor_order": len(add),
             "group_order": group_order(pres)},
            "Ext^1(k, R)^mu is nonzero over a singular depth-1 ring",
            nontrivial))
    return "singular semigroup rings over F_2", instances


# ---------------------------------------------------------------------------
# weakly-mfull: (mN :_M m) = N + Soc(M)
# ---------------------------------------------------------------------------


def _span_contained(module, A, B):
    """span(A) subset of span(B) + rel inside the ambient of module."""
    from .dcoeff import solve_matrix
    return solve_matrix(module.span(B), A) is not None


def _same_span(module, A, B):
    return (_span_contained(module, A, B)
            and _span_contained(module, B, A))


def _scn_weakly_mfull(seed, budget, tally):
    from .dcoeff import hstack
    from .modules import socle
    instances = []

    def check(handle, Mmod, N_cols, label):
        base = handle.base
        mg = handle.m_gens()
        mN = hstack(base, [Mmod.element_action(g) @ N_cols for g in mg],
                    m=Mmod.n)
        K, incl = colon_in_module(Mmod, mN, mg)
        S, sincl = socle(Mmod)
        target = hstack(base, [N_cols, sincl.mat], m=Mmod.n)
        ok = _same_span(Mmod, incl.mat, target)
        tally.add(1)
        instances.append(_inst(
            {"ring": handle.label, "submodule": label},
            {"colon_equals_N_plus_socle": ok,
             "colon_generators": incl.mat.n},
            "(mN :_M m) = N + Soc(M)", ok))

    for p in (2, 3):
        D = _dvr(p)
        F = regular_module(D)
        for a in (1, 2, 3):
            cols = F.element_action(D.t_elt(a))
            check(D, F, cols, f"t^{a}R in R")
    R = _sg(2, 2, 3)
    F = regular_module(R)
    for a in (1, 2):
        J = m_ideal(R).power(a)
        cols = Mat.from_cols(R.base, F.n,
                             [g.coords for g in J.as_ring_ideal().gens])
        check(R, F, cols, f"m^{a} in R")
    A = build_ring(RingSpec(family="artin_monomial", p=2, variables=("x",),
                            ideal_monomials=((3,),), label="F_2[x]/x^3"))
    F = regular_module(A)
    check(A, F, F.element_action(A.gen_elt("x")) @ F.element_action(A.gen_elt("x")),
          "x^2 R in R")
    return "DVRs, <2,3>/F_2, F_2[x]/x^3", instances


# ---------------------------------------------------------------------------
# trk-depth: the mu-subfunctor of Ext^1(Tr k, R) is everything at depth 0
# and equals m.Ext^1 (properly contained) at depth 1
# ---------------------------------------------------------------------------


def _scn_trk_depth(seed, budget, tally):
    instances = []
    A = _artin_sq(2, 2)
    Tk = transpose(residue_field(A))
    pres = ext(Tk, regular_module(A), 1)
    add = _additive_set(pres, fn_mu(), budget, tally)
    full = _full_set(pres, budget, tally)
    instances.append(_inst(
        {"ring": A.label, "depth": 0},
        {"subfunctor_order": len(add), "group_order": len(full)},
        "Ext^1(Tr k, R)^mu is the whole group at depth 0",
        add == full))
    R = _sg(2, 2, 3)
    Tk = transpose(residue_field(R))
    pres = ext(Tk, regular_module(R), 1)
    add = _additive_set(pres, fn_mu(), budget, tally)
    full = _full_set(pres, budget, tally)
    mext = ideal_times_ext(pres, m_ideal(R), budget)
    instances.append(_inst(
        {"ring": R.label, "depth": 1},
        {"subfunctor_order": len(add), "group_order": len(full),
         "m_ext_order": len(mext)},
        "Ext^1(Tr k, R)^mu = m.Ext^1 properly contained at depth 1",
        add == mext and add != full))
    return "F_2[x,y]/m^2 and <2,3>/F_2", instances


# ---------------------------------------------------------------------------
# mr-minmult: over minimal-multiplicity rings Ext^1(M, R)^mu is the whole
# group for maximal Cohen-Macaulay M
# ---------------------------------------------------------------------------


def _scn_mr_minmult(seed, budget, tally):
    instances = []
    for handle in [_sg(2, 2, 3), _sg(2, 3, 4, 5)]:
        F = regular_module(handle)
        Mm = _Mm(handle)
        Bm = _Bmod(handle)
        W = canonical_module(handle)
        rank2 = direct_sum([Mm, Bm])[0]
        samples = [("m", Mm), ("B(m)", Bm), ("omega", W),
                   ("m+B(m)", rank2)]
        for name, M in samples:
            def thunk(M=M):
                pres = ext(M, F, 1)
                add = _additive_set(pres, fn_mu(), budget, tally)
                full = _full_set(pres, budget, tally)
                return ({"subfunctor_order": len(add),
                         "group_order": len(full)}, add == full)
            _guarded(instances,
                     {"ring": handle.label, "module": name},
                     "Ext^1(M, R)^mu = Ext^1(M, R) for MCM M", thunk)
    return "<2,3>/F_2 and <3,4,5>/F_2 (minimal multiplicity)", instances


# ---------------------------------------------------------------------------
# artincan: over F_p[x_1..x_e]/m^2: mu(omega) = e and the first syzygy of
# omega is k^(e^2-1)
# ---------------------------------------------------------------------------


def _is_k_power(M, n):
    if M.n != n:
        return False
    return all(M.element_action(g).is_zero() for g in M.handle.m_gens())


def _scn_artincan(seed, budget, tally):
    instances = []
    for p, e in [(2, 2), (3, 2), (2, 3)]:
        h = _artin_sq(p, e)
        W = canonical_module(h)
        syz = syzygy(W, 1)
        tally.add(1)
        ok = mu(W) == e and _is_k_power(syz, e * e - 1)
        instances.append(_inst(
            {"ring": h.label, "e": e},
            {"mu_omega": mu(W), "syzygy_dim": syz.n,
             "syzygy_semisimple": _is_k_power(syz, syz.n)},
            "mu(omega) = e and syz(omega) = k^(e^2-1)", ok))
    return "F_p[x_1..x_e]/m^2 for e in {2,3}", instances


# ---------------------------------------------------------------------------
# mintype-muadd: mu((syz omega)^dagger) = r^2 - 1 over <3,4,5> and the
# sequence 0 -> R -> omega^mu(omega) -> (syz omega)^dagger -> 0 is
# mu-additive
# ---------------------------------------------------------------------------


def _scn_mintype(seed, budget, tally):
    h = _sg(2, 3, 4, 5)
    base = h.base
    r = ring_invariants(h).cm_type
    W = canonical_module(h)
    dual = dualize_omega(syzygy(W, 1))
    muW = mu(W)
    res = resolution(W, 0)
    S, injs, _ = direct_sum([W] * muW)
    vcol = [base.zero()] * S.n
    for j in range(muW):
        gcol = res.cover.mat.col(j * h.nR)
        part = injs[j].mat @ gcol
        vcol = [a + b for a, b in zip(vcol, part)]
    imat = _free_cover_matrix(h, S.basis_action,
                              Mat.from_cols(base, S.n, [vcol]))
    F = regular_module(h)
    imap = ModMap(F, S, imat)
    C, p = quotient_module(S, imat)
    ses = SES(A=F, B=S, C=C, i=imap, p=p)
    ses.certify()
    tally.add(1)
    mu_additive = mu(S) == mu(F) + mu(C)
    instances = [
        _inst({"ring": h.label},
              {"mu_dual_syzygy": mu(dual), "type": r},
              "mu((syz omega)^dagger) = r^2 - 1", mu(dual) == r * r - 1),
        _inst({"ring": h.label,
               "sequence": "0 -> R -> omega^mu -> coker -> 0"},
              {"mu_A": mu(F), "mu_B": mu(S), "mu_C": mu(C),
               "coker_matches_dual": mu(C) == mu(dual)},
              "the approximation sequence is mu-additive",
              mu_additive and mu(C) == mu(dual)),
    ]
    return "<3,4,5>/F_2", instances


# ---------------------------------------------------------------------------
# cano-d1: mu(Hom(m, omega)) = r + 1, the approximation middle is
# reconstructed up to isomorphism by its class, and the sequence
# 0 -> omega -> Hom(m, omega) -> k -> 0 is non-split and mu-additive
# ---------------------------------------------------------------------------


def _scn_cano_d1(seed, budget, tally):
    instances = []
    for handle in [_sg(2, 2, 3), _sg(2, 3, 4, 5), _sg(2, 2, 5)]:
        r = ring_invariants(handle).cm_type
        ses, pres = mcm_approximation_of_k(handle)
        cls = classify(ses, pres)
        E2 = middle(cls).B
        tally.add(1)
        iso = is_isomorphic(E2, ses.B, budget)
        checks = {
            "mu_m_dual": mu(ses.B),
            "type_plus_1": r + 1,
            "non_split": not is_split(ses, pres),
            "mu_additive": mu(ses.B) == mu(ses.A) + mu(ses.C),
            "middle_isomorphic_to_m_dual": iso,
        }
        ok = (checks["mu_m_dual"] == r + 1 and checks["non_split"]
              and checks["mu_additive"] and iso)
        instances.append(_inst(
            {"ring": handle.label}, checks,
            "mu(m^dagger) = r + 1; sequence non-split and mu-additive; "
            "class middle isomorphic to m^dagger", ok))
    return "<2,3>, <3,4,5>, <2,5> over F_2", instances


# ---------------------------------------------------------------------------
# injd-d1: Ext^1(k, omega)^mu is the whole (nonzero) group over the
# singular rings
# ---------------------------------------------------------------------------


def _scn_injd_d1(seed, budget, tally):
    instances = []
    for handle in [_sg(2, 2, 3), _sg(2, 3, 4, 5), _sg(2, 2, 5)]:
        k = residue_field(handle)
        W = canonical_module(handle)
        pres = ext(k, W, 1)
        add = _additive_set(pres, fn_mu(), budget, tally)
        full = _full_set(pres, budget, tally)
        instances.append(_inst(
            {"ring": handle.label},
            {"subfunctor_order": len(add), "group_order": len(full)},
            "Ext^1(k, omega)^mu = Ext^1(k, omega) != 0",
            add == full and len(full) > 1))
    return "<2,3>, <3,4,5>, <2,5> over F_2", instances


# ---------------------------------------------------------------------------
# loewy: classes additive for both mu and the tensor-length function
# against R/m^c (c the Loewy length of L) are only the split class
# ---------------------------------------------------------------------------


def _scn_loewy(seed, budget, tally):
    instances = []
    for p in (2, 3, 5):
        D = _dvr(p)
        F = regular_module(D)
        Ls = [("R/t^2", _cyclic(D, 2)), ("R/t^3", _cyclic(D, 3)),
              ("R/t^2+R/t^3", direct_sum([_cyclic(D, 2), _cyclic(D, 3)])[0])]
        for name, L in Ls:
            c = loewy_length(L)
            Cq = _cyclic(D, c)
            fmu, fL = fn_mu(), fn_tensor(Cq, label=f"len_tensor(R/m^{c})")
            pres = ext(L, F, 1)
            add_mu, add_L = additive(fmu, pres), additive(fL, pres)
            rows = sweep(pres, lambda ses: add_mu(ses) and add_L(ses), budget)
            tally.add(len(rows))
            both = {cls.coords for cls, ok in rows if ok}
            instances.append(_inst(
                {"p": p, "L": name, "loewy_length": c},
                {"both_additive_order": len(both),
                 "group_order": group_order(pres)},
                "Ext^1(L, R)^{mu, phi_L} = 0", both == _zero_set(pres)))
    return "F_p-DVR for p in {2,3,5}", instances


# ---------------------------------------------------------------------------
# jane: every class of I.Ext^1(M, N) is additive for the colength
# function against I
# ---------------------------------------------------------------------------


def _scn_jane(seed, budget, tally):
    instances = []
    for handle in [_sg(2, 2, 3), _sg(2, 3, 4, 5)]:
        k = residue_field(handle)
        F = regular_module(handle)
        Mm = _Mm(handle)
        m = m_ideal(handle)
        for iname, I in [("m", m), ("m^2", m.power(2))]:
            fn = fn_colength(I)
            for mname, nname, M, N in [("k", "R", k, F),
                                       ("k", "m", k, Mm),
                                       ("m", "m", Mm, Mm)]:
                def thunk(M=M, N=N, I=I, fn=fn):
                    pres = ext(M, N, 1)
                    members = ideal_times_ext(pres, I, budget)
                    tally.add(len(members))
                    viol = 0
                    for coords in _sorted_coords(members):
                        cls = ExtClass(pres, list(coords))
                        if not is_additive_on(fn, middle(cls)):
                            viol += 1
                    return ({"members": len(members),
                             "violations": viol}, viol == 0)
                _guarded(instances,
                         {"ring": handle.label, "I": iname,
                          "pair": f"({mname}, {nname})"},
                         "every class of I.Ext^1 is nu_I-additive", thunk)
    return "<2,3>/F_2 and <3,4,5>/F_2", instances


# ---------------------------------------------------------------------------
# uladd: on Ulrich pairs the Ulrich-middle classes coincide with the
# colength-additive classes
# ---------------------------------------------------------------------------


def _ulrich_pairs(handle):
    Mm = _Mm(handle)
    Bm = _Bmod(handle)
    return [("m", "m", Mm, Mm), ("B(m)", "B(m)", Bm, Bm),
            ("m", "B(m)", Mm, Bm)]


def _scn_uladd(seed, budget, tally):
    instances = []
    for handle in [_sg(2, 2, 3), _sg(2, 3, 4, 5)]:
        m = m_ideal(handle)
        for mname, nname, M, N in _ulrich_pairs(handle):
            def thunk(M=M, N=N):
                pres = ext(M, N, 1)
                ul, ad = ext1_subfunctor(
                    pres, [ulrich_middle(m, pres),
                           additive(fn_colength(m), pres)], budget)
                tally.add(ul.total + ad.total)
                same = member_coords(ul) == member_coords(ad)
                return ({"ulrich_members": len(ul.members),
                         "colength_members": len(ad.members),
                         "certified": ul.certified and ad.certified},
                        same and ul.certified and ad.certified)
            _guarded(instances,
                     {"ring": handle.label, "pair": f"({mname}, {nname})"},
                     "Ulrich-middle classes = nu_m-additive classes", thunk)
    return "<2,3>/F_2 and <3,4,5>/F_2", instances


# ---------------------------------------------------------------------------
# prop1-ulrich: on Ulrich pairs ext1_ul = m.Ext^1 = x.Ext^1 for a
# principal reduction x, with order matching Ext^1 over the blow-up
# ---------------------------------------------------------------------------


def _scn_prop1_ulrich(seed, budget, tally):
    instances = []
    for handle in [_sg(2, 2, 3), _sg(2, 3, 4, 5)]:
        m = m_ideal(handle)
        red, _ = principal_reduction(m)
        _, bh = blow_up(m)
        xI = FracIdeal(handle, [red.num])
        for mname, nname, M, N in _ulrich_pairs(handle):
            def thunk(M=M, N=N):
                pres = ext(M, N, 1)
                ul = ext1_ulrich(pres, m, budget)
                mext = ideal_times_ext(pres, m, budget)
                xext = ideal_times_ext(pres, xI, budget)
                tally.add(ul.total)
                Mb = restrict_to_blowup(M, bh, red)
                Nb = restrict_to_blowup(N, bh, red)
                order_b = group_order(ext(Mb, Nb, 1))
                ok = (member_coords(ul) == mext == xext
                      and len(ul.members) == order_b)
                return ({"ulrich_members": len(ul.members),
                         "m_ext": len(mext), "x_ext": len(xext),
                         "blowup_ext_order": order_b}, ok)
            _guarded(instances,
                     {"ring": handle.label, "pair": f"({mname}, {nname})"},
                     "ext1_ul = m.Ext^1 = x.Ext^1 and |ext1_ul| = "
                     "|Ext^1 over the blow-up|", thunk)
    return "<2,3>/F_2 and <3,4,5>/F_2", instances


# ---------------------------------------------------------------------------
# trset: tr(I).Ext^1 has I-Ulrich middles on Ulrich pairs
# ---------------------------------------------------------------------------


def _scn_trset(seed, budget, tally):
    instances = []
    for handle in [_sg(2, 2, 3), _sg(2, 3, 4, 5)]:
        m = m_ideal(handle)
        for iname, I in [("m", m), ("m^2", m.power(2))]:
            tr = trace_ideal(I)
            Bm = _Bmod(handle, I)
            MI = from_fractional_ideal(handle, I)
            for mname, nname, M, N in [("B(I)", "B(I)", Bm, Bm),
                                       ("I", "B(I)", MI, Bm)]:
                def thunk(M=M, N=N, I=I, tr=tr):
                    pres = ext(M, N, 1)
                    members = ideal_times_ext(pres, tr, budget)
                    tally.add(len(members))
                    ulrich = ulrich_middle(I, pres)
                    viol = 0
                    for coords in _sorted_coords(members):
                        cls = ExtClass(pres, list(coords))
                        if not ulrich(middle(cls)):
                            viol += 1
                    return ({"members": len(members),
                             "violations": viol}, viol == 0)
                _guarded(instances,
                         {"ring": handle.label, "I": iname,
                          "pair": f"({mname}, {nname})"},
                         "every class of tr(I).Ext^1 has an I-Ulrich middle",
                         thunk)
    return "<2,3>/F_2 and <3,4,5>/F_2", instances


# ---------------------------------------------------------------------------
# uliso: extension classes with Ulrich middles biject with extensions
# over the blow-up ring
# ---------------------------------------------------------------------------


def _scn_uliso(seed, budget, tally):
    instances = []

    def compare(handle, bh, Mb, Nb, label):
        def thunk():
            MR = restrict_to_base(Mb, handle, bh)
            NR = restrict_to_base(Nb, handle, bh)
            m = m_ideal(handle)
            ends_ulrich = is_ulrich(m, MR) and is_ulrich(m, NR)
            pres_R = ext(MR, NR, 1)
            pairs = blowup_sequence_comparison(Mb, Nb, handle, bh, pres_R)
            tally.add(len(pairs))
            rclasses = [rc.coords for _, rc in pairs]
            ul = ext1_ulrich(pres_R, m, budget)
            tally.add(ul.total)
            ok = (ends_ulrich
                  and len(set(rclasses)) == len(rclasses)
                  and set(rclasses) == member_coords(ul))
            return ({"blowup_classes": len(pairs),
                     "ulrich_members": len(ul.members),
                     "ends_ulrich": ends_ulrich,
                     "injective": len(set(rclasses)) == len(rclasses)}, ok)
        _guarded(instances, {"ring": handle.label, "pair": label},
                 "B-extensions biject with Ulrich-middle R-classes", thunk)

    for gens in [(2, 3), (3, 4, 5)]:
        handle = _sg(2, *gens)
        _, bh = blow_up(m_ideal(handle))
        Fb = regular_module(bh)
        compare(handle, bh, Fb, Fb, "(B, B)")
    # a ring whose blow-up is still singular, so Ext^1 over B is nonzero
    handle = _sg(2, 3, 7, 8)
    _, bh = blow_up(m_ideal(handle))
    Mb = from_fractional_ideal(bh, m_ideal(bh))
    compare(handle, bh, Mb, regular_module(bh), "(m_B, B)")
    return "<2,3>, <3,4,5>, <3,7,8> over F_2", instances


# ---------------------------------------------------------------------------
# projgor: the blow-up of m is Gorenstein over the minimal-multiplicity
# rings and m.Ext^1(M, B(m)) = m.Ext^1(M, m) = 0 for sampled Ulrich M
# ---------------------------------------------------------------------------


def _scn_projgor(seed, budget, tally):
    instances = []
    for handle in [_sg(2, 2, 3), _sg(2, 3, 4, 5)]:
        m = m_ideal(handle)
        _, bh = blow_up(m)
        gor = ring_invariants(bh).gorenstein
        Bm = _Bmod(handle)
        Mm = _Mm(handle)
        samples = [("m", Mm), ("B(m)", Bm)]
        vanish = {}
        for name, M in samples:
            for nname, N in [("B(m)", Bm), ("m", Mm)]:
                pres = ext(M, N, 1)
                mem = ideal_times_ext(pres, m, budget)
                tally.add(len(mem))
                vanish[f"m.Ext^1({name}, {nname})=0"] = (
                    mem == _zero_set(pres))
        ok = gor and all(vanish.values())
        instances.append(_inst(
            {"ring": handle.label,
             "blowup_semigroup": list(bh.semigroup)},
            dict({"blowup_gorenstein": gor}, **vanish),
            "B(m) Gorenstein and m.Ext^1(Ulrich, B(m)) = "
            "m.Ext^1(Ulrich, m) = 0", ok))
    return "<2,3>/F_2 and <3,4,5>/F_2", instances


# ---------------------------------------------------------------------------
# algor: the almost-Gorenstein flag from the reduction criterion matches
# the Ext-vanishing over the sampled Ulrich modules
# ---------------------------------------------------------------------------


def _scn_algor(seed, budget, tally):
    instances = []
    for handle in [_sg(2, 2, 3), _sg(2, 3, 4, 5)]:
        inv = ring_invariants(handle)
        m = m_ideal(handle)
        Bm = _Bmod(handle)
        Mm = _Mm(handle)
        vanish = True
        for M in (Mm, Bm):
            for N in (Bm, Mm):
                pres = ext(M, N, 1)
                mem = ideal_times_ext(pres, m, budget)
                tally.add(len(mem))
                vanish = vanish and mem == _zero_set(pres)
        instances.append(_inst(
            {"ring": handle.label},
            {"almost_gorenstein_by_reduction": inv.almost_gorenstein,
             "m_ext_vanishes_on_ulrich_samples": vanish},
            "reduction-criterion almost-Gorenstein flag matches the "
            "Ext-vanishing", bool(inv.almost_gorenstein) == vanish))
    inv = ring_invariants(_sg(2, 5, 6, 7))
    instances.append(_inst(
        {"ring": "<5,6,7>/F_2"},
        {"almost_gorenstein_by_reduction": inv.almost_gorenstein,
         "gorenstein": inv.gorenstein},
        "reduction criterion decides the flag without error",
        inv.almost_gorenstein is not None))
    return "<2,3>, <3,4,5>, <5,6,7> over F_2", instances


# ---------------------------------------------------------------------------
# redul: stable-reduction test for Ulrich ideals; m is m-Ulrich exactly
# over the minimal-multiplicity rings
# ---------------------------------------------------------------------------


def _scn_redul(seed, budget, tally):
    instances = []
    for gens in [(2, 3), (3, 4, 5), (5, 6, 7)]:
        handle = _sg(2, *gens)
        inv = ring_invariants(handle)
        m = m_ideal(handle)
        ul = is_ulrich(m, _Mm(handle))
        tally.add(1)
        instances.append(_inst(
            {"ring": handle.label},
            {"m_is_m_ulrich": ul, "minimal_multiplicity": inv.min_mult},
            "m is m-Ulrich if and only if R has minimal multiplicity",
            ul == inv.min_mult))
    handle = _sg(2, 2, 3)
    m2 = m_ideal(handle).power(2)
    ul = is_ulrich(m2, _Mm(handle))
    tally.add(1)
    instances.append(_inst(
        {"ring": handle.label, "I": "m^2", "module": "m"},
        {"is_ulrich": ul},
        "m is m^2-Ulrich over <2,3> (lambda(m/m^3) = 4 = e_{m^2}(m))", ul))
    return "<2,3>, <3,4,5>, <5,6,7> over F_2", instances


# ---------------------------------------------------------------------------
# ulfaith: extensions of Ulrich by Ulrich stay Ulrich over the regular
# ring; over a singular ring a non-Ulrich middle exists
# ---------------------------------------------------------------------------


def _scn_ulfaith(seed, budget, tally):
    instances = []
    D = _dvr(2)
    mD = m_ideal(D)
    F = regular_module(D)
    F2 = direct_sum([F, F])[0]
    bad = 0
    checked = 0
    for M, N in [(F, F), (F2, F), (F, F2)]:
        pres = ext(M, N, 1)
        rows = sweep(pres, ulrich_middle(mD, pres), budget)
        tally.add(len(rows))
        checked += len(rows)
        bad += sum(not ok for _, ok in rows)
    instances.append(_inst(
        {"ring": "F_2-DVR", "pairs": 3},
        {"sequences_checked": checked, "non_ulrich_middles": bad},
        "no counterexample to extension-closure over the regular ring",
        bad == 0 and checked >= 3))
    R = _sg(2, 2, 3)
    m = m_ideal(R)
    found = None
    for mname, nname, M, N in _ulrich_pairs(R):
        pres = ext(M, N, 1)
        ulrich = ulrich_middle(m, pres)
        # mu of each non-Ulrich middle, None for an Ulrich one
        rows = sweep(pres, lambda ses: None if ulrich(ses) else mu(ses.B),
                     budget)
        tally.add(len(rows))
        found = next(({"pair": f"({mname}, {nname})",
                       "class": repr(cls.coords), "mu_middle": v}
                      for cls, v in rows if v is not None), None)
        if found:
            break
    instances.append(_inst(
        {"ring": R.label},
        {"counterexample": found if found else "none found"},
        "a non-Ulrich extension of Ulrich modules exists over the "
        "singular ring", found is not None))
    return "F_2-DVR and <2,3>/F_2", instances


# ---------------------------------------------------------------------------
# axioms-mu / axioms-nu / axioms-ul: closure axioms of the subfunctor
# predicates under split membership, Baer sums, scalars, pushouts,
# pullbacks, and deflation composition
# ---------------------------------------------------------------------------


def _axiom_rings():
    return [_dvr(2), _sg(2, 2, 3), _sg(2, 3, 4, 5), _artin_sq(2, 2)]


def _run_axioms(predicate_of, pairs_of, seed, budget, tally):
    instances = []
    total_checks = 0
    for handle in _axiom_rings():
        pairs = pairs_of(handle)
        if not pairs:
            continue
        report = check_closure_axioms(
            handle, predicate_of(handle), pairs,
            rng_seed=seed, budget=min(budget, 2 ** 14))
        tally.add(report.checks)
        total_checks += report.checks
        instances.append(_inst(
            {"ring": handle.label, "pairs": len(pairs), "seed": seed},
            {"checks": report.checks,
             "violations": report.violations[:5]},
            "no closure violations", not report.violations))
    instances.append(_inst(
        {"seed": seed}, {"total_checks": total_checks},
        "aggregate closure coverage recorded", total_checks > 0))
    return instances


def _scn_axioms_mu(seed, budget, tally):
    fn = fn_mu()
    instances = _run_axioms(
        lambda h: (lambda ses: is_additive_on(fn, ses)),
        default_pairs, seed, budget, tally)
    return "DVR, <2,3>, <3,4,5>, F_2[x,y]/m^2", instances


def _scn_axioms_nu(seed, budget, tally):
    def predicate_of(handle):
        fn = fn_colength(m_ideal(handle))
        return lambda ses: is_additive_on(fn, ses)
    instances = _run_axioms(predicate_of, default_pairs, seed, budget, tally)
    return "DVR, <2,3>, <3,4,5>, F_2[x,y]/m^2", instances


def _scn_axioms_ul(seed, budget, tally):
    # is_ulrich, not ulrich_middle: the composed-deflation sequences have
    # other ends than the Ext group they come from
    def predicate_of(handle):
        m = m_ideal(handle)
        return lambda ses: is_ulrich(m, ses.B)

    def pairs_of(handle):
        if handle.dim == 0:
            k = residue_field(handle)
            return [(k, k)]
        if handle.family == "dvr":
            F = regular_module(handle)
            return [(F, F)]
        return [(M, N) for _, _, M, N in _ulrich_pairs(handle)]
    instances = _run_axioms(predicate_of, pairs_of, seed, budget, tally)
    return "DVR, <2,3>, <3,4,5>, F_2[x,y]/m^2", instances


def _scn_axioms_mu_negative_control(seed, budget, tally):
    """Deliberately broken predicate: 'the middle is maximal
    Cohen-Macaulay' is not closed under the axioms, so this scenario
    must fail and list witnesses."""
    handle = _sg(2, 2, 3)
    report = check_closure_axioms(
        handle, lambda ses: is_mcm(ses.B), default_pairs(handle),
        rng_seed=seed, budget=min(budget, 2 ** 14))
    tally.add(report.checks)
    instances = [_inst(
        {"ring": handle.label, "predicate": "middle is MCM (broken)",
         "seed": seed},
        {"checks": report.checks, "witnesses": report.violations[:10]},
        "the broken predicate produces no violations (it must)",
        not report.violations)]
    return "<2,3>/F_2", instances


# ---------------------------------------------------------------------------
# halfexact: additivity of a half-exact numerical function on a sequence
# agrees with exactness of the underlying functor on it
# ---------------------------------------------------------------------------


def _halfexact_pool(budget, tally):
    pool = []
    D = _dvr(2)
    Q2, Q3 = _cyclic(D, 2), _cyclic(D, 3)
    Q23 = direct_sum([Q2, Q3])[0]
    R23 = _sg(2, 2, 3)
    k23 = residue_field(R23)
    F23 = regular_module(R23)
    Mm23 = _Mm(R23)
    A = build_ring(RingSpec(family="artin_monomial", p=2, variables=("x",),
                            ideal_monomials=((3,),), label="F_2[x]/x^3"))
    kA = residue_field(A)
    FA = regular_module(A)
    pairs = [(D, Q2, Q2), (D, Q3, Q3), (D, Q3, Q2), (D, Q2, Q3),
             (D, Q23, Q2), (D, Q2, Q23), (D, Q23, Q3), (D, Q3, Q23),
             (R23, k23, F23), (R23, k23, k23), (R23, k23, Mm23),
             (R23, Mm23, Mm23),
             (A, kA, FA), (A, kA, kA)]
    for handle, M, N in pairs:
        try:
            rows = sweep(ext(M, N, 1), lambda ses: ses, min(budget, 2 ** 7))
        except BudgetExceeded:
            continue
        tally.add(len(rows))
        pool.extend((handle, ses) for _, ses in rows)
    return pool


def _scn_halfexact(seed, budget, tally):
    pool = _halfexact_pool(budget, tally)
    checked = 0
    disagreements = []
    for handle, ses in pool:
        k = residue_field(handle)
        m = m_ideal(handle)
        fns = [fn_mu(), fn_colength(m), fn_hom_to(k), fn_hom_from(k),
               fn_tensor(k)]
        for fn in fns:
            try:
                half_exact_agreement(fn, ses)
            except CertificateError as exc:
                disagreements.append(str(exc))
            checked += 1
    instances = [_inst(
        {"sequences": len(pool), "functions_per_sequence": 5},
        {"checks": checked, "disagreements": disagreements[:5]},
        "additivity agrees with functor exactness on >= 100 sequences",
        len(pool) >= 100 and not disagreements)]
    return "DVR, <2,3>/F_2, F_2[x]/x^3", instances


# ---------------------------------------------------------------------------
# tony-et: the stabilized Tor-multiplicity against m is subadditive on
# extensions of MCM modules, and its additive classes form a certified
# submodule
# ---------------------------------------------------------------------------


def _scn_tony_et(seed, budget, tally):
    handle = _sg(2, 2, 3)
    m = m_ideal(handle)
    fn = fn_tor_mult(m)
    instances = []
    for mname, nname, M, N in _ulrich_pairs(handle)[:2]:
        def thunk(M=M, N=N):
            pres = ext(M, N, 1)
            ends = fn(M) + fn(N)
            rows = sweep(pres, lambda ses: fn(ses.B), budget)
            tally.add(len(rows))
            subbad = sum(v > ends for _, v in rows)
            res = subfunctor_result(
                pres, [cls for cls, v in rows if v == ends], len(rows), budget)
            return ({"classes": len(rows),
                     "subadditivity_violations": subbad,
                     "additive_members": len(res.members),
                     "certified_submodule": res.certified},
                    subbad == 0 and res.certified)
        _guarded(instances,
                 {"ring": handle.label, "pair": f"({mname}, {nname})"},
                 "e^T_m subadditive; additive classes a certified "
                 "submodule", thunk)
    return "<2,3>/F_2", instances


# ---------------------------------------------------------------------------
# hyper: a non-Gorenstein minimal-multiplicity ring is not a hypersurface,
# and a pair with Ext^mu different from m.Ext^1 witnesses it
# ---------------------------------------------------------------------------


def _scn_hyper(seed, budget, tally):
    instances = []
    for handle in [_sg(2, 3, 4, 5), _artin_sq(2, 2)]:
        inv = ring_invariants(handle)
        hypersurface = inv.emb_dim <= inv.dim + 1
        k = residue_field(handle)
        F = regular_module(handle)
        pres = ext(k, F, 1)
        add = _additive_set(pres, fn_mu(), budget, tally)
        mext = ideal_times_ext(pres, m_ideal(handle), budget)
        witness = add != mext
        instances.append(_inst(
            {"ring": handle.label},
            {"hypersurface": hypersurface, "gorenstein": inv.gorenstein,
             "minimal_multiplicity": inv.min_mult,
             "mu_subfunctor_order": len(add), "m_ext_order": len(mext)},
            "non-hypersurface witnessed by Ext^mu != m.Ext^1",
            (not hypersurface) and witness))
    return "<3,4,5>/F_2 and F_2[x,y]/m^2", instances


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


SCENARIOS = {
    "dvr-mu": ("mu-additive classes equal m.Ext^1 over discrete valuation "
               "rings, classwise", _scn_dvr_mu),
    "cycquot": ("length of the mu-subfunctor of Ext^1(R/x, R/I) equals "
                "lambda(m/(I + xR)) over DVRs", _scn_cycquot),
    "regu-d1": ("Ext^1(k, R)^mu vanishes exactly over the regular "
                "depth-1 rings", _scn_regu_d1),
    "reg-depth1": ("Ext^1(k, R)^mu is nonzero over singular depth-1 "
                   "rings", _scn_reg_depth1),
    "weakly-mfull": ("colon identity (mN :_M m) = N + Soc(M) for the "
                     "sampled submodules", _scn_weakly_mfull),
    "trk-depth": ("the mu-subfunctor of Ext^1(Tr k, R) is everything at "
                  "depth 0 and equals m.Ext^1 at depth 1", _scn_trk_depth),
    "mr-minmult": ("Ext^1(M, R)^mu is the whole group for MCM M over "
                   "minimal-multiplicity rings", _scn_mr_minmult),
    "mintype-muadd": ("mu((syz omega)^dagger) = r^2 - 1 and the "
                      "approximation sequence is mu-additive",
                      _scn_mintype),
    "artincan": ("mu(omega) = e and syz(omega) = k^(e^2-1) for "
                 "square-zero artin rings", _scn_artincan),
    "cano-d1": ("mu(m^dagger) = r + 1 with a non-split mu-additive "
                "approximation sequence", _scn_cano_d1),
    "injd-d1": ("Ext^1(k, omega)^mu is the whole nonzero group over "
                "singular rings", _scn_injd_d1),
    "loewy": ("only the split class is additive for both mu and the "
              "Loewy-tensor length", _scn_loewy),
    "jane": ("every class of I.Ext^1 is nu_I-additive", _scn_jane),
    "uladd": ("Ulrich-middle classes equal the nu_m-additive classes on "
              "Ulrich pairs", _scn_uladd),
    "prop1-ulrich": ("ext1_ul = m.Ext^1 = x.Ext^1 with blow-up order "
                     "match on Ulrich pairs", _scn_prop1_ulrich),
    "trset": ("classes in tr(I).Ext^1 have I-Ulrich middles", _scn_trset),
    "uliso": ("extensions over the blow-up biject with Ulrich-middle "
              "classes over the base", _scn_uliso),
    "projgor": ("B(m) is Gorenstein and m.Ext^1 vanishes on Ulrich "
                "samples", _scn_projgor),
    "algor": ("reduction-criterion almost-Gorenstein flag matches the "
              "Ext-vanishing", _scn_algor),
    "redul": ("stable-reduction Ulrich test; m is m-Ulrich iff minimal "
              "multiplicity", _scn_redul),
    "ulfaith": ("extension-closure of Ulrich modules holds over the "
                "regular ring and fails over a singular one",
                _scn_ulfaith),
    "axioms-mu": ("closure axioms of the mu-additive predicate",
                  _scn_axioms_mu),
    "axioms-nu": ("closure axioms of the colength-additive predicate",
                  _scn_axioms_nu),
    "axioms-ul": ("closure axioms of the Ulrich-middle predicate",
                  _scn_axioms_ul),
    "axioms-mu-negative-control": ("broken predicate that must produce "
                                   "violations",
                                   _scn_axioms_mu_negative_control),
    "halfexact": ("half-exact additivity agrees with functor exactness",
                  _scn_halfexact),
    "tony-et": ("stabilized Tor-multiplicity is subadditive with a "
                "certified additive subclass", _scn_tony_et),
    "hyper": ("non-hypersurface rings witnessed by Ext^mu != m.Ext^1",
              _scn_hyper),
}


def list_scenarios():
    return sorted(SCENARIOS)


def run_scenario(name, seed=0, budget=DEFAULT_BUDGET):
    if name not in SCENARIOS:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; known names: {', '.join(list_scenarios())}")
    description, fn = SCENARIOS[name]
    tally = Tally()
    t0 = time.perf_counter()
    rings_desc, instances = fn(seed, budget, tally)
    wall = time.perf_counter() - t0
    if any(i["status"] == "fail" for i in instances):
        status = "fail"
    elif any(i["status"] == "budget" for i in instances):
        status = "budget"
    else:
        status = "pass"
    result = ScenarioResult(
        name=name, description=description, rings=rings_desc,
        instances=instances, status=status,
        aggregate_pass=all(i["status"] == "pass" for i in instances),
        seed=seed, budget=budget, budget_used=tally.used,
        wall_time_s=round(wall, 3))
    return result

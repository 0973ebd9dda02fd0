"""Named verification scenarios over bundled desk-scale rings.

Each scenario checks a theorem-shaped statement by brute-force enumeration
(extension classes, middles, subfunctor member sets).  A scenario is a
generator registered with @_scenario: called as cases(seed, budget, tally)
it yields one case (inputs, expected, check) per instance, where
check() -> (computed, ok).  run_scenario is the one place that builds the
instance records.  It calls each check before the generator resumes, so a
check may read the loop variables of the body that yielded it, and a check
may fill its inputs with values known only after its own work.

Budget exhaustion is recorded per instance with status "budget" and never
conflated with a mathematical failure: a BudgetExceeded or
StabilizationBudget raised inside a check becomes that instance's record,
with the message as computed["error"] and pass null.  So every budgeted
computation of a scenario happens inside one of its checks.

To add a scenario, decorate a generator of cases with
@_scenario(name, description, rings).
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass

from .dcoeff import Mat, hstack, solve_matrix
from .errors import (BudgetExceeded, CertificateError, StabilizationBudget,
                     UnknownScenarioError)
from .ext import (ExtClass, SES, classify, enumerate_classes, ext,
                  group_order, is_split, middle, sweep)
from .modules import (ModMap, _free_cover_matrix, _generator_cols,
                      canonical_module, colon_in_module, direct_sum,
                      dualize_omega, from_fractional_ideal,
                      from_quotient_ideal, is_isomorphic, is_mcm,
                      loewy_length, mu, power, quotient_module,
                      regular_module, residue_field, resolution, socle,
                      syzygy, transpose)
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
        d = dict(vars(self))
        d["scenario"] = d.pop("name")
        return d


def render_report(result):
    """Stable-key-ordered serialization; byte-identical for identical
    (scenario, seed, budget) modulo the wall_time_s field."""
    return json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"


# name -> (description, rings, cases)
SCENARIOS = {}

# Scenarios that must fail: under `verify all` their fail is what is met.
EXPECTED_FAIL = frozenset({"axioms-mu-negative-control"})


def _scenario(name, description, rings):
    def register(cases):
        SCENARIOS[name] = (description, rings, cases)
        return cases
    return register


def _sg(p, *gens):
    return build_ring(RingSpec(family="semigroup", p=p,
                               semigroup_gens=tuple(gens),
                               label=f"<{','.join(map(str, gens))}>/F_{p}"))


def _minmult():
    """The minimal-multiplicity rings <2,3> and <3,4,5> over F_2."""
    return [_sg(2, 2, 3), _sg(2, 3, 4, 5)]


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


def _x_cubed():
    return build_ring(RingSpec(family="artin_monomial", p=2, variables=("x",),
                               ideal_monomials=((3,),), label="F_2[x]/x^3"))


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


def _ext_k_R_mu(handle, budget, tally):
    pres = ext(residue_field(handle), regular_module(handle), 1)
    return pres, _additive_set(pres, fn_mu(), budget, tally)


def _member_middles(pres, J, holds, budget, tally):
    """Test holds on the middle of each member of J.Ext^1, in repr order."""
    members = ideal_times_ext(pres, J, budget)
    tally.add(len(members))
    viol = sum(not holds(middle(ExtClass(pres, list(coords))))
               for coords in sorted(members, key=repr))
    return {"members": len(members), "violations": viol}, viol == 0


def _ulrich_pairs(handle):
    Mm = _Mm(handle)
    Bm = _Bmod(handle)
    return [("m", "m", Mm, Mm), ("B(m)", "B(m)", Bm, Bm),
            ("m", "B(m)", Mm, Bm)]


def _m_ext_vanishing(handle, budget, tally):
    """{"m.Ext^1(M, N)=0": bool} for M in (m, B(m)) and N in (B(m), m)."""
    m = m_ideal(handle)
    Bm = _Bmod(handle)
    Mm = _Mm(handle)
    vanish = {}
    for mname, M in [("m", Mm), ("B(m)", Bm)]:
        for nname, N in [("B(m)", Bm), ("m", Mm)]:
            pres = ext(M, N, 1)
            mem = ideal_times_ext(pres, m, budget)
            tally.add(len(mem))
            vanish[f"m.Ext^1({mname}, {nname})=0"] = mem == _zero_set(pres)
    return vanish


# ---------------------------------------------------------------------------
# scenarios
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


@_scenario("dvr-mu", "mu-additive classes equal m.Ext^1 over discrete "
           "valuation rings, classwise", "F_p-DVR for p in {2,3,5}")
def _scn_dvr_mu(seed, budget, tally):
    """Checked classwise for all pairs of direct sums of R and R/t^a
    (a <= 4, at most 2 summands); a seeded sample of the small groups is
    cross-checked by middle construction and submodule membership."""
    rng = random.Random(seed)
    drawn = []                      # (pres, m, order) to cross-check
    for p in (2, 3, 5):
        D = _dvr(p)
        opts = [0, 1, 2, 3, 4]            # 0 encodes a free summand R
        msets = ([(a,) for a in opts]
                 + [(a, b) for i, a in enumerate(opts) for b in opts[i:]])

        def check():
            m = m_ideal(D)
            mods = {ms: _dvr_sum(D, ms) for ms in msets}
            mismatches = 0
            covered = 0
            for Ms in msets:
                for Ns in msets:
                    pres = ext(mods[Ms], mods[Ns], 1)
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
                    tally.add(p ** n)
                    if p ** lam <= 64 and rng.random() < 0.2:
                        drawn.append((pres, m, p ** lam))
            return ({"classes_covered": covered, "mismatches": mismatches},
                    mismatches == 0)
        yield ({"p": p, "max_exponent": 4, "max_summands": 2,
                "pairs": len(msets) ** 2},
               "mu-additive classes = m.Ext^1, classwise", check)

    inputs = {"seed": seed}

    def cross_check():
        checked = 0
        bad = 0
        for pres, m, order in drawn:
            mem = ideal_times_ext(pres, m)
            slow = additive(fn_mu(), pres)
            for cls in enumerate_classes(pres, budget):
                slow_add = slow(middle(cls))
                fast = all((c.num[0] if c.num else 0) == 0
                           for c in cls.coords)
                bad += slow_add != fast or (cls.coords in mem) != fast
                checked += 1
            tally.add(order)
        inputs["cross_checked_classes"] = checked
        return {"disagreements": bad}, bad == 0 and checked > 0
    yield (inputs, "fast rank criterion agrees with middle construction and "
           "submodule membership", cross_check)


@_scenario("cycquot", "length of the mu-subfunctor of Ext^1(R/x, R/I) "
           "equals lambda(m/(I + xR)) over DVRs", "F_p-DVR for p in {2,3,5}")
def _scn_cycquot(seed, budget, tally):
    for p in (2, 3, 5):
        D = _dvr(p)
        m = m_ideal(D)
        for a in range(1, 5):
            for b in range(a, 5):
                def check():
                    pres = ext(_cyclic(D, a), _cyclic(D, b), 1)
                    res = ext1_additive(pres, fn_mu(), budget)
                    tally.add(res.total)
                    lhs = res.span_length
                    rhs = m.length_over(FracIdeal(D, [D.t_elt(b)])
                                        + FracIdeal(D, [D.t_elt(a)]))
                    return ({"lambda_subfunctor": lhs,
                             "lambda_m_mod_I_xR": rhs,
                             "certified_submodule": res.certified},
                            lhs == rhs and res.certified)
                yield ({"p": p, "x": f"t^{a}", "I": f"(t^{b})"},
                       "lambda(Ext^1(R/x, R/I)^mu) = lambda(m/(I + xR))",
                       check)
    # the quotient sequence 0 -> R/I -> R/xI -> R/xR -> 0 with x = t^2,
    # I = (t^3) represents a class outside the mu-subfunctor
    for p in (2, 3):
        def check():
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
            return ({"mu_additive": add, "in_m_ext": in_m,
                     "mu_middle": mu(ses.B)}, (not add) and (not in_m))
        yield ({"p": p, "sequence": "0 -> R/t^3 -> R/t^5 -> R/t^2 -> 0"},
               "the quotient sequence is not mu-additive and generates "
               "Ext^1 modulo m", check)


@_scenario("regu-d1", "Ext^1(k, R)^mu vanishes exactly over the regular "
           "depth-1 rings", "DVRs p in {2,3,5} and <2,3>/F_2")
def _scn_regu_d1(seed, budget, tally):
    for handle, regular in [(_dvr(2), True), (_dvr(3), True), (_dvr(5), True),
                            (_sg(2, 2, 3), False)]:
        def check():
            pres, add = _ext_k_R_mu(handle, budget, tally)
            vanishes = add == _zero_set(pres)
            return ({"subfunctor_trivial": vanishes, "regular": regular,
                     "group_order": group_order(pres)}, vanishes == regular)
        yield ({"ring": handle.label},
               "Ext^1(k, R)^mu = 0 if and only if R is regular", check)


@_scenario("reg-depth1", "Ext^1(k, R)^mu is nonzero over singular depth-1 "
           "rings", "singular semigroup rings over F_2")
def _scn_reg_depth1(seed, budget, tally):
    for handle in [_sg(2, 2, 3), _sg(2, 3, 4, 5), _sg(2, 2, 5),
                   _sg(2, 5, 6, 7)]:
        def check():
            pres, add = _ext_k_R_mu(handle, budget, tally)
            return ({"subfunctor_order": len(add),
                     "group_order": group_order(pres)},
                    add != _zero_set(pres))
        yield ({"ring": handle.label},
               "Ext^1(k, R)^mu is nonzero over a singular depth-1 ring",
               check)


@_scenario("weakly-mfull", "colon identity (mN :_M m) = N + Soc(M) for the "
           "sampled submodules", "DVRs, <2,3>/F_2, F_2[x]/x^3")
def _scn_weakly_mfull(seed, budget, tally):
    def case(handle, M, N_cols, label):
        def check():
            base = handle.base
            mg = handle.m_gens()
            mN = hstack(base, [M.element_action(g) @ N_cols for g in mg],
                        m=M.n)
            K, incl = colon_in_module(M, mN, mg)
            S, sincl = socle(M)
            target = hstack(base, [N_cols, sincl.mat], m=M.n)
            # each span lies in the other plus the relations
            ok = all(solve_matrix(M.span(B), A) is not None
                     for A, B in [(incl.mat, target), (target, incl.mat)])
            tally.add(1)
            return ({"colon_equals_N_plus_socle": ok,
                     "colon_generators": incl.mat.n}, ok)
        return ({"ring": handle.label, "submodule": label},
                "(mN :_M m) = N + Soc(M)", check)

    for p in (2, 3):
        D = _dvr(p)
        F = regular_module(D)
        for a in (1, 2, 3):
            yield case(D, F, F.element_action(D.t_elt(a)), f"t^{a}R in R")
    R = _sg(2, 2, 3)
    F = regular_module(R)
    for a in (1, 2):
        J = m_ideal(R).power(a)
        cols = Mat.from_cols(R.base, F.n,
                             [g.coords for g in J.as_ring_ideal().gens])
        yield case(R, F, cols, f"m^{a} in R")
    A = _x_cubed()
    F = regular_module(A)
    x = F.element_action(A.gen_elt("x"))
    yield case(A, F, x @ x, "x^2 R in R")


@_scenario("trk-depth", "the mu-subfunctor of Ext^1(Tr k, R) is everything "
           "at depth 0 and equals m.Ext^1 at depth 1",
           "F_2[x,y]/m^2 and <2,3>/F_2")
def _scn_trk_depth(seed, budget, tally):
    for handle, depth, expected in [
            (_artin_sq(2, 2), 0,
             "Ext^1(Tr k, R)^mu is the whole group at depth 0"),
            (_sg(2, 2, 3), 1,
             "Ext^1(Tr k, R)^mu = m.Ext^1 properly contained at depth 1")]:
        def check():
            pres = ext(transpose(residue_field(handle)),
                       regular_module(handle), 1)
            add = _additive_set(pres, fn_mu(), budget, tally)
            full = _full_set(pres, budget, tally)
            computed = {"subfunctor_order": len(add), "group_order": len(full)}
            if depth == 0:
                return computed, add == full
            mext = ideal_times_ext(pres, m_ideal(handle), budget)
            computed["m_ext_order"] = len(mext)
            return computed, add == mext and add != full
        yield {"ring": handle.label, "depth": depth}, expected, check


@_scenario("mr-minmult", "Ext^1(M, R)^mu is the whole group for MCM M over "
           "minimal-multiplicity rings",
           "<2,3>/F_2 and <3,4,5>/F_2 (minimal multiplicity)")
def _scn_mr_minmult(seed, budget, tally):
    for handle in _minmult():
        F = regular_module(handle)
        Mm = _Mm(handle)
        Bm = _Bmod(handle)
        W = canonical_module(handle)
        samples = [("m", Mm), ("B(m)", Bm), ("omega", W),
                   ("m+B(m)", direct_sum([Mm, Bm])[0])]
        for name, M in samples:
            def check():
                pres = ext(M, F, 1)
                add = _additive_set(pres, fn_mu(), budget, tally)
                full = _full_set(pres, budget, tally)
                return ({"subfunctor_order": len(add),
                         "group_order": len(full)}, add == full)
            yield ({"ring": handle.label, "module": name},
                   "Ext^1(M, R)^mu = Ext^1(M, R) for MCM M", check)


def _is_k_power(M, n):
    if M.n != n:
        return False
    return all(M.element_action(g).is_zero() for g in M.handle.m_gens())


@_scenario("artincan", "mu(omega) = e and syz(omega) = k^(e^2-1) for "
           "square-zero artin rings", "F_p[x_1..x_e]/m^2 for e in {2,3}")
def _scn_artincan(seed, budget, tally):
    for p, e in [(2, 2), (3, 2), (2, 3)]:
        h = _artin_sq(p, e)

        def check():
            W = canonical_module(h)
            syz = syzygy(W, 1)
            tally.add(1)
            return ({"mu_omega": mu(W), "syzygy_dim": syz.n,
                     "syzygy_semisimple": _is_k_power(syz, syz.n)},
                    mu(W) == e and _is_k_power(syz, e * e - 1))
        yield ({"ring": h.label, "e": e},
               "mu(omega) = e and syz(omega) = k^(e^2-1)", check)


@_scenario("mintype-muadd", "mu((syz omega)^dagger) = r^2 - 1 and the "
           "approximation sequence is mu-additive", "<3,4,5>/F_2")
def _scn_mintype(seed, budget, tally):
    """The approximation sequence is 0 -> R -> omega^mu(omega) ->
    (syz omega)^dagger -> 0."""
    h = _sg(2, 3, 4, 5)
    r = ring_invariants(h).cm_type
    W = canonical_module(h)
    dual = dualize_omega(syzygy(W, 1))
    yield ({"ring": h.label}, "mu((syz omega)^dagger) = r^2 - 1",
           lambda: ({"mu_dual_syzygy": mu(dual), "type": r},
                    mu(dual) == r * r - 1))

    def check():
        base = h.base
        muW = mu(W)
        res = resolution(W, 0)
        S = power(W, muW)
        vcol = [a for gen in _generator_cols(h, res.cover.mat, muW)
                for a in gen]
        imat = _free_cover_matrix(S, Mat.from_cols(base, S.n, [vcol]))
        F = regular_module(h)
        C, p = quotient_module(S, imat)
        SES(A=F, B=S, C=C, i=ModMap(F, S, imat), p=p).certify()
        tally.add(1)
        return ({"mu_A": mu(F), "mu_B": mu(S), "mu_C": mu(C),
                 "coker_matches_dual": mu(C) == mu(dual)},
                mu(S) == mu(F) + mu(C) and mu(C) == mu(dual))
    yield ({"ring": h.label, "sequence": "0 -> R -> omega^mu -> coker -> 0"},
           "the approximation sequence is mu-additive", check)


@_scenario("cano-d1", "mu(m^dagger) = r + 1 with a non-split mu-additive "
           "approximation sequence", "<2,3>, <3,4,5>, <2,5> over F_2")
def _scn_cano_d1(seed, budget, tally):
    """The sequence is 0 -> omega -> Hom(m, omega) -> k -> 0, and its
    middle is reconstructed up to isomorphism from its class."""
    for handle in [_sg(2, 2, 3), _sg(2, 3, 4, 5), _sg(2, 2, 5)]:
        def check():
            r = ring_invariants(handle).cm_type
            ses, pres = mcm_approximation_of_k(handle)
            E2 = middle(classify(ses, pres)).B
            tally.add(1)
            iso = is_isomorphic(E2, ses.B, budget)
            checks = {
                "mu_m_dual": mu(ses.B),
                "type_plus_1": r + 1,
                "non_split": not is_split(ses, pres),
                "mu_additive": mu(ses.B) == mu(ses.A) + mu(ses.C),
                "middle_isomorphic_to_m_dual": iso,
            }
            return checks, (checks["mu_m_dual"] == r + 1
                            and checks["non_split"]
                            and checks["mu_additive"] and iso)
        yield ({"ring": handle.label},
               "mu(m^dagger) = r + 1; sequence non-split and mu-additive; "
               "class middle isomorphic to m^dagger", check)


@_scenario("injd-d1", "Ext^1(k, omega)^mu is the whole nonzero group over "
           "singular rings", "<2,3>, <3,4,5>, <2,5> over F_2")
def _scn_injd_d1(seed, budget, tally):
    for handle in [_sg(2, 2, 3), _sg(2, 3, 4, 5), _sg(2, 2, 5)]:
        def check():
            pres = ext(residue_field(handle), canonical_module(handle), 1)
            add = _additive_set(pres, fn_mu(), budget, tally)
            full = _full_set(pres, budget, tally)
            return ({"subfunctor_order": len(add), "group_order": len(full)},
                    add == full and len(full) > 1)
        yield ({"ring": handle.label},
               "Ext^1(k, omega)^mu = Ext^1(k, omega) != 0", check)


@_scenario("loewy", "only the split class is additive for both mu and the "
           "Loewy-tensor length", "F_p-DVR for p in {2,3,5}")
def _scn_loewy(seed, budget, tally):
    """The tensor-length function is taken against R/m^c, with c the Loewy
    length of L."""
    for p in (2, 3, 5):
        D = _dvr(p)
        F = regular_module(D)
        Ls = [("R/t^2", _cyclic(D, 2)), ("R/t^3", _cyclic(D, 3)),
              ("R/t^2+R/t^3", direct_sum([_cyclic(D, 2), _cyclic(D, 3)])[0])]
        for name, L in Ls:
            c = loewy_length(L)

            def check():
                fL = fn_tensor(_cyclic(D, c))
                pres = ext(L, F, 1)
                add_mu, add_L = additive(fn_mu(), pres), additive(fL, pres)
                rows = sweep(pres, lambda ses: add_mu(ses) and add_L(ses),
                             budget)
                tally.add(len(rows))
                both = {cls.coords for cls, ok in rows if ok}
                return ({"both_additive_order": len(both),
                         "group_order": group_order(pres)},
                        both == _zero_set(pres))
            yield ({"p": p, "L": name, "loewy_length": c},
                   "Ext^1(L, R)^{mu, phi_L} = 0", check)


@_scenario("jane", "every class of I.Ext^1 is nu_I-additive",
           "<2,3>/F_2 and <3,4,5>/F_2")
def _scn_jane(seed, budget, tally):
    for handle in _minmult():
        k = residue_field(handle)
        F = regular_module(handle)
        Mm = _Mm(handle)
        m = m_ideal(handle)
        for iname, I in [("m", m), ("m^2", m.power(2))]:
            fn = fn_colength(I)
            for mname, nname, M, N in [("k", "R", k, F),
                                       ("k", "m", k, Mm),
                                       ("m", "m", Mm, Mm)]:
                yield ({"ring": handle.label, "I": iname,
                        "pair": f"({mname}, {nname})"},
                       "every class of I.Ext^1 is nu_I-additive",
                       lambda: _member_middles(
                           ext(M, N, 1), I,
                           lambda ses: is_additive_on(fn, ses),
                           budget, tally))


@_scenario("uladd", "Ulrich-middle classes equal the nu_m-additive classes "
           "on Ulrich pairs", "<2,3>/F_2 and <3,4,5>/F_2")
def _scn_uladd(seed, budget, tally):
    for handle in _minmult():
        m = m_ideal(handle)
        for mname, nname, M, N in _ulrich_pairs(handle):
            def check():
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
            yield ({"ring": handle.label, "pair": f"({mname}, {nname})"},
                   "Ulrich-middle classes = nu_m-additive classes", check)


@_scenario("prop1-ulrich", "ext1_ul = m.Ext^1 = x.Ext^1 with blow-up order "
           "match on Ulrich pairs", "<2,3>/F_2 and <3,4,5>/F_2")
def _scn_prop1_ulrich(seed, budget, tally):
    for handle in _minmult():
        m = m_ideal(handle)
        red, _ = principal_reduction(m)
        _, bh = blow_up(m)
        xI = FracIdeal(handle, [red.num])
        for mname, nname, M, N in _ulrich_pairs(handle):
            def check():
                pres = ext(M, N, 1)
                ul = ext1_ulrich(pres, m, budget)
                mext = ideal_times_ext(pres, m, budget)
                xext = ideal_times_ext(pres, xI, budget)
                tally.add(ul.total)
                Mb = restrict_to_blowup(M, bh, red)
                Nb = restrict_to_blowup(N, bh, red)
                order_b = group_order(ext(Mb, Nb, 1))
                return ({"ulrich_members": len(ul.members),
                         "m_ext": len(mext), "x_ext": len(xext),
                         "blowup_ext_order": order_b},
                        member_coords(ul) == mext == xext
                        and len(ul.members) == order_b)
            yield ({"ring": handle.label, "pair": f"({mname}, {nname})"},
                   "ext1_ul = m.Ext^1 = x.Ext^1 and |ext1_ul| = "
                   "|Ext^1 over the blow-up|", check)


@_scenario("trset", "classes in tr(I).Ext^1 have I-Ulrich middles",
           "<2,3>/F_2 and <3,4,5>/F_2")
def _scn_trset(seed, budget, tally):
    for handle in _minmult():
        m = m_ideal(handle)
        for iname, I in [("m", m), ("m^2", m.power(2))]:
            tr = trace_ideal(I)
            Bm = _Bmod(handle, I)
            MI = from_fractional_ideal(handle, I)
            for mname, nname, M, N in [("B(I)", "B(I)", Bm, Bm),
                                       ("I", "B(I)", MI, Bm)]:
                def check():
                    pres = ext(M, N, 1)
                    return _member_middles(pres, tr, ulrich_middle(I, pres),
                                           budget, tally)
                yield ({"ring": handle.label, "I": iname,
                        "pair": f"({mname}, {nname})"},
                       "every class of tr(I).Ext^1 has an I-Ulrich middle",
                       check)


@_scenario("uliso", "extensions over the blow-up biject with Ulrich-middle "
           "classes over the base", "<2,3>, <3,4,5>, <3,7,8> over F_2")
def _scn_uliso(seed, budget, tally):
    def case(handle, bh, Mb, Nb, label):
        def check():
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
            injective = len(set(rclasses)) == len(rclasses)
            return ({"blowup_classes": len(pairs),
                     "ulrich_members": len(ul.members),
                     "ends_ulrich": ends_ulrich, "injective": injective},
                    ends_ulrich and injective
                    and set(rclasses) == member_coords(ul))
        return ({"ring": handle.label, "pair": label},
                "B-extensions biject with Ulrich-middle R-classes", check)

    for handle in _minmult():
        _, bh = blow_up(m_ideal(handle))
        Fb = regular_module(bh)
        yield case(handle, bh, Fb, Fb, "(B, B)")
    # a ring whose blow-up is still singular, so Ext^1 over B is nonzero
    handle = _sg(2, 3, 7, 8)
    _, bh = blow_up(m_ideal(handle))
    yield case(handle, bh, from_fractional_ideal(bh, m_ideal(bh)),
               regular_module(bh), "(m_B, B)")


@_scenario("projgor", "B(m) is Gorenstein and m.Ext^1 vanishes on Ulrich "
           "samples", "<2,3>/F_2 and <3,4,5>/F_2")
def _scn_projgor(seed, budget, tally):
    for handle in _minmult():
        _, bh = blow_up(m_ideal(handle))

        def check():
            gor = ring_invariants(bh).gorenstein
            vanish = _m_ext_vanishing(handle, budget, tally)
            return (dict({"blowup_gorenstein": gor}, **vanish),
                    gor and all(vanish.values()))
        yield ({"ring": handle.label,
                "blowup_semigroup": list(bh.semigroup)},
               "B(m) Gorenstein and m.Ext^1(Ulrich, B(m)) = "
               "m.Ext^1(Ulrich, m) = 0", check)


@_scenario("algor", "reduction-criterion almost-Gorenstein flag matches the "
           "Ext-vanishing", "<2,3>, <3,4,5>, <5,6,7> over F_2")
def _scn_algor(seed, budget, tally):
    for handle in _minmult():
        def check():
            inv = ring_invariants(handle)
            vanish = all(_m_ext_vanishing(handle, budget, tally).values())
            return ({"almost_gorenstein_by_reduction": inv.almost_gorenstein,
                     "m_ext_vanishes_on_ulrich_samples": vanish},
                    bool(inv.almost_gorenstein) == vanish)
        yield ({"ring": handle.label},
               "reduction-criterion almost-Gorenstein flag matches the "
               "Ext-vanishing", check)

    def check_567():
        inv = ring_invariants(_sg(2, 5, 6, 7))
        return ({"almost_gorenstein_by_reduction": inv.almost_gorenstein,
                 "gorenstein": inv.gorenstein},
                inv.almost_gorenstein is not None)
    yield ({"ring": "<5,6,7>/F_2"},
           "reduction criterion decides the flag without error", check_567)


@_scenario("redul", "stable-reduction Ulrich test; m is m-Ulrich iff minimal "
           "multiplicity", "<2,3>, <3,4,5>, <5,6,7> over F_2")
def _scn_redul(seed, budget, tally):
    for handle in _minmult() + [_sg(2, 5, 6, 7)]:
        def check():
            min_mult = ring_invariants(handle).min_mult
            ul = is_ulrich(m_ideal(handle), _Mm(handle))
            tally.add(1)
            return ({"m_is_m_ulrich": ul, "minimal_multiplicity": min_mult},
                    ul == min_mult)
        yield ({"ring": handle.label},
               "m is m-Ulrich if and only if R has minimal multiplicity",
               check)
    handle = _sg(2, 2, 3)

    def check_m2():
        ul = is_ulrich(m_ideal(handle).power(2), _Mm(handle))
        tally.add(1)
        return {"is_ulrich": ul}, ul
    yield ({"ring": handle.label, "I": "m^2", "module": "m"},
           "m is m^2-Ulrich over <2,3> (lambda(m/m^3) = 4 = e_{m^2}(m))",
           check_m2)


@_scenario("ulfaith", "extension-closure of Ulrich modules holds over the "
           "regular ring and fails over a singular one",
           "F_2-DVR and <2,3>/F_2")
def _scn_ulfaith(seed, budget, tally):
    def check_regular():
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
        return ({"sequences_checked": checked, "non_ulrich_middles": bad},
                bad == 0 and checked >= 3)
    yield ({"ring": "F_2-DVR", "pairs": 3},
           "no counterexample to extension-closure over the regular ring",
           check_regular)
    R = _sg(2, 2, 3)

    def check_singular():
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
        return ({"counterexample": found if found else "none found"},
                found is not None)
    yield ({"ring": R.label},
           "a non-Ulrich extension of Ulrich modules exists over the "
           "singular ring", check_singular)


def _axiom_cases(predicate_of, pairs_of, seed, budget, tally):
    """Closure axioms of a subfunctor predicate under split membership,
    Baer sums, scalars, pushouts, pullbacks and deflation composition, on
    each ring, then the aggregate coverage."""
    total = 0
    for handle in [_dvr(2), _sg(2, 2, 3), _sg(2, 3, 4, 5), _artin_sq(2, 2)]:
        pairs = pairs_of(handle)

        def check():
            nonlocal total
            report = check_closure_axioms(
                handle, predicate_of(handle), pairs,
                rng_seed=seed, budget=min(budget, 2 ** 14))
            tally.add(report.checks)
            total += report.checks
            return ({"checks": report.checks,
                     "violations": report.violations[:5]},
                    not report.violations)
        yield ({"ring": handle.label, "pairs": len(pairs), "seed": seed},
               "no closure violations", check)
    yield ({"seed": seed}, "aggregate closure coverage recorded",
           lambda: ({"total_checks": total}, total > 0))


_AXIOM_RINGS = "DVR, <2,3>, <3,4,5>, F_2[x,y]/m^2"


@_scenario("axioms-mu", "closure axioms of the mu-additive predicate",
           _AXIOM_RINGS)
def _scn_axioms_mu(seed, budget, tally):
    fn = fn_mu()
    return _axiom_cases(lambda h: (lambda ses: is_additive_on(fn, ses)),
                        default_pairs, seed, budget, tally)


@_scenario("axioms-nu", "closure axioms of the colength-additive predicate",
           _AXIOM_RINGS)
def _scn_axioms_nu(seed, budget, tally):
    def predicate_of(handle):
        fn = fn_colength(m_ideal(handle))
        return lambda ses: is_additive_on(fn, ses)
    return _axiom_cases(predicate_of, default_pairs, seed, budget, tally)


@_scenario("axioms-ul", "closure axioms of the Ulrich-middle predicate",
           _AXIOM_RINGS)
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
    return _axiom_cases(predicate_of, pairs_of, seed, budget, tally)


@_scenario("axioms-mu-negative-control", "broken predicate that must produce "
           "violations", "<2,3>/F_2")
def _scn_axioms_mu_negative_control(seed, budget, tally):
    """Deliberately broken predicate: 'the middle is maximal
    Cohen-Macaulay' is not closed under the axioms, so this scenario
    must fail and list witnesses."""
    handle = _sg(2, 2, 3)

    def check():
        report = check_closure_axioms(
            handle, lambda ses: is_mcm(ses.B), default_pairs(handle),
            rng_seed=seed, budget=min(budget, 2 ** 14))
        tally.add(report.checks)
        return ({"checks": report.checks,
                 "witnesses": report.violations[:10]},
                not report.violations)
    yield ({"ring": handle.label, "predicate": "middle is MCM (broken)",
            "seed": seed},
           "the broken predicate produces no violations (it must)", check)


def _halfexact_pool(budget, tally):
    D, R23, A = _dvr(2), _sg(2, 2, 3), _x_cubed()
    Q2, Q3 = _cyclic(D, 2), _cyclic(D, 3)
    Q23 = direct_sum([Q2, Q3])[0]
    k23, F23, Mm23 = residue_field(R23), regular_module(R23), _Mm(R23)
    kA, FA = residue_field(A), regular_module(A)
    pool = []
    pairs = [(D, Q2, Q2), (D, Q3, Q3), (D, Q3, Q2), (D, Q2, Q3),
             (D, Q23, Q2), (D, Q2, Q23), (D, Q23, Q3), (D, Q3, Q23),
             (R23, k23, F23), (R23, k23, k23), (R23, k23, Mm23),
             (R23, Mm23, Mm23),
             (A, kA, FA), (A, kA, kA)]
    for handle, M, N in pairs:
        classes = enumerate_classes(ext(M, N, 1), min(budget, 2 ** 7))
        tally.add(len(classes))
        pool.extend((handle, middle(c)) for c in classes)
    return pool


@_scenario("halfexact", "half-exact additivity agrees with functor "
           "exactness", "DVR, <2,3>/F_2, F_2[x]/x^3")
def _scn_halfexact(seed, budget, tally):
    """Additivity of a half-exact numerical function on a sequence agrees
    with exactness of the underlying functor on it, on every sequence of
    14 small Ext groups."""
    inputs = {"functions_per_sequence": 5}

    def check():
        pool = _halfexact_pool(budget, tally)
        inputs["sequences"] = len(pool)
        checked = 0
        disagreements = []
        for handle, ses in pool:
            k = residue_field(handle)
            for fn in [fn_mu(), fn_colength(m_ideal(handle)), fn_hom_to(k),
                       fn_hom_from(k), fn_tensor(k)]:
                try:
                    half_exact_agreement(fn, ses)
                except CertificateError as exc:
                    disagreements.append(str(exc))
                checked += 1
        return ({"checks": checked, "disagreements": disagreements[:5]},
                len(pool) >= 100 and not disagreements)
    yield (inputs,
           "additivity agrees with functor exactness on >= 100 sequences",
           check)


@_scenario("tony-et", "stabilized Tor-multiplicity is subadditive with a "
           "certified additive subclass", "<2,3>/F_2")
def _scn_tony_et(seed, budget, tally):
    handle = _sg(2, 2, 3)
    fn = fn_tor_mult(m_ideal(handle))
    for mname, nname, M, N in _ulrich_pairs(handle)[:2]:
        def check():
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
        yield ({"ring": handle.label, "pair": f"({mname}, {nname})"},
               "e^T_m subadditive; additive classes a certified submodule",
               check)


@_scenario("hyper", "non-hypersurface rings witnessed by Ext^mu != m.Ext^1",
           "<3,4,5>/F_2 and F_2[x,y]/m^2")
def _scn_hyper(seed, budget, tally):
    """A non-Gorenstein minimal-multiplicity ring is not a hypersurface,
    and a pair with Ext^mu != m.Ext^1 witnesses it."""
    for handle in [_sg(2, 3, 4, 5), _artin_sq(2, 2)]:
        def check():
            inv = ring_invariants(handle)
            hypersurface = inv.emb_dim <= inv.dim + 1
            pres, add = _ext_k_R_mu(handle, budget, tally)
            mext = ideal_times_ext(pres, m_ideal(handle), budget)
            return ({"hypersurface": hypersurface,
                     "gorenstein": inv.gorenstein,
                     "minimal_multiplicity": inv.min_mult,
                     "mu_subfunctor_order": len(add),
                     "m_ext_order": len(mext)},
                    (not hypersurface) and add != mext)
        yield ({"ring": handle.label},
               "non-hypersurface witnessed by Ext^mu != m.Ext^1", check)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def list_scenarios():
    return sorted(SCENARIOS)


def run_scenario(name, seed=0, budget=DEFAULT_BUDGET):
    if name not in SCENARIOS:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; known names: {', '.join(list_scenarios())}")
    description, rings, cases = SCENARIOS[name]
    tally = Tally()
    instances = []
    t0 = time.perf_counter()
    for inputs, expected, check in cases(seed, budget, tally):
        try:
            computed, ok = check()
        except (BudgetExceeded, StabilizationBudget) as exc:
            computed, status, ok = {"error": str(exc)}, "budget", None
        else:
            ok = bool(ok)
            status = "pass" if ok else "fail"
        instances.append({"inputs": inputs, "computed": computed,
                          "expected": expected, "status": status, "pass": ok})
    wall = time.perf_counter() - t0
    statuses = {i["status"] for i in instances}
    return ScenarioResult(
        name=name, description=description, rings=rings,
        instances=instances,
        status=("fail" if "fail" in statuses
                else "budget" if "budget" in statuses else "pass"),
        aggregate_pass=statuses <= {"pass"},
        seed=seed, budget=budget, budget_used=tally.used,
        wall_time_s=round(wall, 3))

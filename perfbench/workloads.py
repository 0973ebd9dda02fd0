"""The benchmark's four workloads: seeded inputs, verdicts and their checks.

`build(name, seed)` makes a workload's inputs from the seed and returns its
verdicts.  A verdict is every check made on one input item: one (ring, M, N)
presentation in the generated workloads, one scenario in `registry`.  Inputs
are drawn stratified, so a new seed changes the inputs but not the mix: the
number of verdicts in each stratum is fixed by the tables below.

Each verdict returns a canonical output (hashed into the run's digest) and a
list of failed checks.  A check fails on an oracle mismatch or on a
disagreement between two routes; an exception, including budget exhaustion,
fails the verdict as well.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field

from subext.errors import CertificateError
from subext.ext import (baer_sum_by_construction, classify, enumerate_classes,
                        ext, group_order, middle, scalar_by_pullback,
                        scalar_by_pushout, six_term_check)
from subext.modules import (direct_sum, from_fractional_ideal,
                            from_quotient_ideal, mu, regular_module,
                            residue_field)
from subext.rings import FracIdeal, RingSpec, blow_up, build_ring, m_ideal
from subext.scenarios import run_scenario
from subext.subfun import (ext1_additive, ext1_ulrich, fn_colength,
                           fn_hom_from, fn_hom_to, fn_mu, fn_tensor,
                           half_exact_agreement, ideal_times_ext,
                           member_coords)


@dataclass
class Verdict:
    stratum: str
    label: str
    oracle: dict
    check: object               # check(oracle) -> (output, failed checks)
    output: dict = field(default=None)
    failures: list = field(default_factory=list)

    def run(self):
        try:
            self.output, self.failures = self.check(self.oracle)
        except Exception as exc:  # noqa: BLE001 - a verdict must not stop the run
            self.output = {"error": type(exc).__name__}
            self.failures = [f"{type(exc).__name__}: {exc}"]


def _coords(cls_coords):
    return repr(tuple(repr(c) for c in cls_coords))


# ---------------------------------------------------------------------------
# dvr-sweep: scalar and Smith-form layers over F_p[t]_(t)
# ---------------------------------------------------------------------------

# p -> {lambda(Ext^1): verdicts}; the group order p^lambda is the stratum.
# One bucket of 16-27 classes per p keeps verdict costs alike, so the median
# and tail verdicts do not jump between strata of different sizes.
DVR_PLAN = {2: {4: 8}, 3: {3: 8}, 5: {2: 8}}
# direct sums of two summands, each R (exponent 0) or R/t^a with a <= 4, M
# with a torsion summand; every middle then has the same rank over the base
DVR_SUMS = [(a, b) for a in range(5) for b in range(a, 5)]
DVR_CAP = 2 ** 9


def dvr_lambda(ms, ns):
    """Closed form of lambda Ext^1(M, N) over a DVR: sum of min(a, b) over
    pairs of torsion summands, plus a for each free summand of N."""
    free_n = sum(1 for b in ns if b == 0)
    return sum(sum(min(a, b) for b in ns if b) + a * free_n
               for a in ms if a)


def dvr_invariants(ms, ns):
    """Number of cyclic summands of Ext^1(M, N): one per torsion summand of
    M and summand of N."""
    return sum(1 for a in ms if a) * len(ns)


def _dvr_sum(h, spec):
    parts = [regular_module(h) if a == 0
             else from_quotient_ideal(h, FracIdeal(h, [h.t_elt(a)]))
             for a in spec]
    return parts[0] if len(parts) == 1 else direct_sum(parts)[0]


def _dvr_check(p, m, M, N):
    def check(oracle):
        errs = []
        pres = ext(M, N, 1)
        lam, n = pres.module.length(), pres.module.n
        if lam != oracle["lambda"]:
            errs.append(f"lambda {lam} != closed form {oracle['lambda']}")
        if n != oracle["invariants"]:
            errs.append(f"{n} invariants != closed form {oracle['invariants']}")
        mext = ideal_times_ext(pres, m)
        if len(mext) != p ** (oracle["lambda"] - oracle["invariants"]):
            errs.append(f"|m.Ext^1| = {len(mext)}")
        mu_ends = mu(M) + mu(N)
        additive = 0
        classes = enumerate_classes(pres, DVR_CAP)
        for cls in classes:
            ses = middle(cls)
            ses.certify()
            if classify(ses, pres).coords != cls.coords:
                errs.append(f"classify(middle({_coords(cls.coords)})) differs")
            add = mu(ses.B) == mu_ends
            additive += add
            if add != (cls.coords in mext):
                errs.append(f"mu-additivity != membership in m.Ext^1 at "
                            f"{_coords(cls.coords)}")
        return ({"lambda": lam, "invariants": n, "classes": len(classes),
                 "m_ext": len(mext), "mu_additive": additive}, errs)
    return check


def _build_dvr(seed):
    rng = random.Random(seed)
    out = []
    for p, plan in DVR_PLAN.items():
        h = build_ring(RingSpec(family="dvr", p=p, label=f"F_{p}-DVR"))
        m = m_ideal(h)
        for lam, k in plan.items():
            pool = [(ms, ns) for ms in DVR_SUMS if ms != (0, 0)
                    for ns in DVR_SUMS if dvr_lambda(ms, ns) == lam]
            for ms, ns in rng.choices(pool, k=k):
                out.append(Verdict(
                    stratum=f"p={p},order={p ** lam}",
                    label=f"F_{p}-DVR M={ms} N={ns}",
                    oracle={"lambda": dvr_lambda(ms, ns),
                            "invariants": dvr_invariants(ms, ns)},
                    check=_dvr_check(p, m, _dvr_sum(h, ms), _dvr_sum(h, ns))))
    return out


# ---------------------------------------------------------------------------
# ulrich-sweep: Ulrich and predicate layers on minimal-multiplicity rings
# ---------------------------------------------------------------------------

UL_PAIRS = ("m,m", "B(m),B(m)", "m,B(m)")
# (ring generators, p) -> verdicts; each verdict draws a pair from UL_PAIRS.
# Three-generator rings are left out: one <3,4,5>/F_2 verdict (64 classes)
# takes 7-9 s, longer than the rest of a pass together, and made the pass
# time follow the machine's speed swings instead of the engine's.
UL_PLAN = {((2, 3), 2): 2, ((2, 5), 2): 2, ((2, 7), 2): 2,
           ((2, 3), 3): 6, ((2, 5), 3): 6, ((2, 7), 3): 6}
UL_CAP = 2 ** 9


def _ulrich_check(m, M, N):
    def check(oracle):
        errs = []
        pres = ext(M, N, 1)
        ul = ext1_ulrich(pres, m, UL_CAP)
        ad = ext1_additive(pres, fn_colength(m), UL_CAP)
        mx = ideal_times_ext(pres, m, UL_CAP)
        ul_set, ad_set = member_coords(ul), member_coords(ad)
        if ul_set != ad_set:
            errs.append("Ulrich-middle classes != colength-additive classes")
        if ul_set != mx:
            errs.append("Ulrich-middle classes != m.Ext^1")
        if not (ul.certified and ad.certified):
            errs.append("member sets not certified as submodules")
        return ({"order": group_order(pres), "members": len(ul.members),
                 "member_coords": sorted(_coords(c) for c in ul_set)}, errs)
    return check


def _build_ulrich(seed):
    rng = random.Random(seed)
    out = []
    for (gens, p), k in UL_PLAN.items():
        name = f"<{','.join(map(str, gens))}>/F_{p}"
        for _ in range(k):
            pair = rng.choice(UL_PAIRS)
            h = build_ring(RingSpec(family="semigroup", p=p,
                                    semigroup_gens=gens))
            m = m_ideal(h)
            mods = {"m": from_fractional_ideal(h, m)}
            if "B(m)" in pair:
                mods["B(m)"] = from_fractional_ideal(h, blow_up(m)[0])
            a, b = pair.split(",")
            out.append(Verdict(stratum=name, label=f"{name} ({pair})",
                               oracle={},
                               check=_ulrich_check(m, mods[a], mods[b])))
    return out


# ---------------------------------------------------------------------------
# artin-yoneda: Yoneda constructions over monomial artin rings
# ---------------------------------------------------------------------------

# (variables, p) -> (seeded rings, the (M, N) pairs checked on each ring).
# Pairs into R are left out: lambda Ext^1(k, R) ranges from 0 to 6 over
# these ideals, so their cost would swing with the seed.  The counts put
# the median and the tail verdict (ranks 17 and 23 of 33) well inside the
# 16 two-variable verdicts over F_3, whose costs are alike; pairs out of R
# (cheap: R is free) are checked on one variable only.
ART_K = (("k", "k"), ("k", "R/m"), ("R/m", "k"), ("R/m", "R/m"))
ART_PLAN = {(1, 2): (1, (("k", "k"), ("R", "k"), ("R/m", "R/m"))),
            (1, 3): (1, (("k", "k"), ("R", "k"), ("R/m", "R/m"))),
            (2, 2): (2, ART_K), (2, 3): (4, ART_K),
            (3, 2): (1, (("k", "k"), ("R", "k"))), (3, 3): (1, (("R", "k"),))}
ART_CAP = 2 ** 6


def _mixed_monomials(nv):
    return [e for e in itertools.product(range(3), repeat=nv)
            if sum(1 for x in e if x) >= 2 and sum(e) in (2, 3)]


def _artin_ring(rng, nv, p):
    """F_p[x,...]/I: pure powers of degree 2 on every variable but one,
    which gets degree 3, plus one mixed monomial of degree 2-3 that no pure
    power divides.  Fixing this profile keeps the ring's size, and so the
    cost of its verdicts, nearly the same across seeds."""
    cube = rng.randrange(nv)
    degs = [3 if i == cube else 2 for i in range(nv)]
    pures = [tuple(degs[i] if j == i else 0 for j in range(nv))
             for i in range(nv)]
    mixed = []
    if nv > 1:
        mixed = [rng.choice([e for e in _mixed_monomials(nv)
                             if all(x < d for x, d in zip(e, degs))])]
    variables = tuple("xyz"[:nv])
    return build_ring(RingSpec(
        family="artin_monomial", p=p, variables=variables,
        ideal_monomials=tuple(pures + mixed),
        label=f"F_{p}[{','.join(variables)}]/{tuple(pures + mixed)}"))


def _artin_scalar(rng, h):
    """A seeded nonzero element of the maximal ideal."""
    base = h.base
    coords = [base.zero()] + [base.from_int(rng.randrange(h.base.p))
                              for _ in range(h.nR - 1)]
    if all(c.is_zero() for c in coords):
        return h.gen_elt(h.gen_names[0])
    return h.elt(coords)


def _artin_check(h, mods, a, b, r):
    nv = len(h.gen_names)

    def check(oracle):
        errs = []
        M, N, k, m = mods[a], mods[b], mods["k"], mods["m"]
        pres = ext(M, N, 1)
        lam = pres.module.length()
        if lam != oracle["lambda"]:
            errs.append(f"lambda {lam} != oracle {oracle['lambda']}")
        classes = enumerate_classes(pres, ART_CAP)
        fns = [fn_mu(), fn_colength(m), fn_hom_to(k), fn_hom_from(k),
               fn_tensor(k)]
        additive = [0] * len(fns)
        six = []
        for i, cls in enumerate(classes):
            ses = middle(cls)
            if classify(ses, pres).coords != cls.coords:
                errs.append(f"classify(middle({_coords(cls.coords)})) differs")
            for j, fn in enumerate(fns):
                try:
                    additive[j] += half_exact_agreement(fn, ses)
                except CertificateError as exc:
                    errs.append(str(exc))
            if i >= 2:
                continue
            by_push = scalar_by_pushout(cls, r)
            by_pull = scalar_by_pullback(cls, r)
            if not (by_push == by_pull == cls.scale(r)):
                errs.append(f"scalar routes disagree at {_coords(cls.coords)}")
            other = classes[(i + 1) % len(classes)]
            baer = baer_sum_by_construction(ses, middle(other))
            if classify(baer, pres) != cls + other:
                errs.append(f"Baer sum by construction differs at "
                            f"{_coords(cls.coords)}")
            six.append(six_term_check(ses, k)["lengths"])
        return ({"lambda": lam, "classes": len(classes), "additive": additive,
                 "six_term_lengths": six, "variables": nv}, errs)
    return check


def _build_artin(seed):
    rng = random.Random(seed)
    out = []
    for (nv, p), (rings, pairs) in ART_PLAN.items():
        for _ in range(rings):
            h = _artin_ring(rng, nv, p)
            m = m_ideal(h)
            mods = {"k": residue_field(h), "R": regular_module(h),
                    "R/m": from_quotient_ideal(h, m), "m": m}
            r = _artin_scalar(rng, h)
            for a, b in pairs:
                # Ext^1(k, k) has the embedding dimension as its length;
                # R is free, so nothing extends it
                oracle = {"lambda": 0 if a == "R" else nv}
                out.append(Verdict(
                    stratum=f"vars={nv},p={p}", label=f"{h.label} ({a}, {b})",
                    oracle=oracle, check=_artin_check(h, mods, a, b, r)))
    return out


# ---------------------------------------------------------------------------
# registry: the `subext verify` user path
# ---------------------------------------------------------------------------

# Every scenario whose single run took under 10 s at the commit that
# defined this benchmark; uliso, uladd, axioms-ul, prop1-ulrich, dvr-mu and
# loewy are left out (their engine call patterns are covered by dvr-sweep
# and ulrich-sweep).
REGISTRY = ("algor", "artincan", "axioms-mu", "axioms-mu-negative-control",
            "axioms-nu", "cano-d1", "cycquot", "halfexact", "hyper",
            "injd-d1", "jane", "mintype-muadd", "mr-minmult", "projgor",
            "redul", "reg-depth1", "regu-d1", "tony-et", "trk-depth", "trset",
            "ulfaith", "weakly-mfull")
EXPECTED_FAIL = {"axioms-mu-negative-control"}


def _registry_check(name, seed):
    def check(oracle):
        report = run_scenario(name, seed).to_dict()
        report.pop("wall_time_s")
        errs = []
        if report["status"] != oracle["status"]:
            errs.append(f"status {report['status']} != expected "
                        f"{oracle['status']}")
        blob = json.dumps(report, sort_keys=True).encode()
        return ({"status": report["status"],
                 "report_sha256": hashlib.sha256(blob).hexdigest()}, errs)
    return check


def _build_registry(seed):
    return [Verdict(stratum="scenario", label=name,
                    oracle={"status": "fail" if name in EXPECTED_FAIL
                            else "pass"},
                    check=_registry_check(name, seed))
            for name in REGISTRY]


# ---------------------------------------------------------------------------

BUILDERS = {"dvr-sweep": _build_dvr, "ulrich-sweep": _build_ulrich,
            "artin-yoneda": _build_artin, "registry": _build_registry}


def build(name, seed, inject_oracle_error=False):
    """The workload's verdicts for this seed.  With inject_oracle_error the
    first oracle value of the first verdict that has one is made wrong, so
    that the benchmark's failure path can be tested."""
    verdicts = BUILDERS[name](seed)
    if inject_oracle_error:
        v = next((v for v in verdicts if v.oracle), None)
        if v is None:
            raise ValueError(f"workload {name} has no oracle values")
        key = sorted(v.oracle)[0]
        val = v.oracle[key]
        v.oracle[key] = ("fail" if val == "pass" else "pass") \
            if isinstance(val, str) else val + 1
    return verdicts


def strata(verdicts):
    return dict(sorted(Counter(v.stratum for v in verdicts).items()))


def digest(verdicts):
    blob = json.dumps([[v.stratum, v.label, v.output] for v in verdicts],
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()

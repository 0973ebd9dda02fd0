"""Acceptance gate: every verification criterion, one pass/fail line each.

Criteria 1-14 run named scenarios from the registry at their default seed
and budget and require aggregate status "pass" (the negative control must
fail).  Criterion 15 checks the extension-group engine's own laws on every
enumerable degree-1 presentation of the bundled workspace.
"""

from subext.errors import BudgetExceeded, InfiniteLengthError
from subext.ext import (baer_sum_by_construction, classify, enumerate_classes,
                        ext, middle, scalar_by_pullback, scalar_by_pushout,
                        six_term_check, split_sequence)
from subext.workspace import default_workspace


def _require_pass(run, num, names):
    results = [run(n) for n in names]
    ok = all(r.status == "pass" for r in results)
    detail = ", ".join(f"{r.name if hasattr(r, 'name') else n}={r.status}"
                       for n, r in zip(names, results))
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_dvr_mu_classwise(scenario_run):
    _require_pass(scenario_run, 1, ["dvr-mu"])


def test_criterion_02_cyclic_quotient_lengths(scenario_run):
    _require_pass(scenario_run, 2, ["cycquot"])


def test_criterion_03_regularity_from_mu_subfunctor(scenario_run):
    _require_pass(scenario_run, 3, ["regu-d1", "reg-depth1"])


def test_criterion_04_minimal_multiplicity_full_subfunctor(scenario_run):
    _require_pass(scenario_run, 4, ["mr-minmult"])


def test_criterion_05_canonical_module_generators(scenario_run):
    _require_pass(scenario_run, 5, ["artincan", "mintype-muadd"])


def test_criterion_06_mcm_approximation_of_k(scenario_run):
    _require_pass(scenario_run, 6, ["cano-d1"])


def test_criterion_07_finite_injective_dimension_target(scenario_run):
    _require_pass(scenario_run, 7, ["injd-d1"])


def test_criterion_08_ulrich_subfunctor_identities(scenario_run):
    _require_pass(scenario_run, 8, ["prop1-ulrich", "uladd", "uliso"])


def test_criterion_09_trace_and_ideal_multiples(scenario_run):
    _require_pass(scenario_run, 9, ["trset", "jane"])


def test_criterion_10_blowup_gorenstein_and_almost_gorenstein(scenario_run):
    _require_pass(scenario_run, 10, ["projgor", "algor"])


def test_criterion_11_transpose_of_k_by_depth(scenario_run):
    _require_pass(scenario_run, 11, ["trk-depth"])


def test_criterion_12_loewy_tensor_functions(scenario_run):
    _require_pass(scenario_run, 12, ["loewy"])


def test_criterion_13_closure_axioms_with_negative_control(scenario_run):
    names = ["axioms-mu", "axioms-nu", "axioms-ul"]
    results = [scenario_run(n) for n in names]
    checks = sum(inst["computed"].get("checks", 0)
                 for r in results for inst in r.instances)
    control = scenario_run("axioms-mu-negative-control")
    witnesses = sum(len(inst["computed"].get("witnesses", []))
                    for inst in control.instances)
    ok = (all(r.status == "pass" for r in results)
          and checks >= 200 and control.status == "fail" and witnesses >= 1)
    print(f"criterion 13: {'PASS' if ok else 'FAIL'} "
          f"({checks} closure checks, control witnesses={witnesses})")
    assert all(r.status == "pass" for r in results)
    assert checks >= 200
    assert control.status == "fail" and witnesses >= 1


def test_criterion_14_half_exact_functors(scenario_run):
    halfexact = scenario_run("halfexact")
    sequences = halfexact.instances[0]["inputs"]["sequences"]
    ok = (halfexact.status == "pass" and sequences >= 100
          and scenario_run("tony-et").status == "pass")
    print(f"criterion 14: {'PASS' if ok else 'FAIL'} "
          f"({sequences} sequences checked)")
    assert halfexact.status == "pass" and sequences >= 100
    assert scenario_run("tony-et").status == "pass"


def test_criterion_15_engine_self_consistency():
    ws = default_workspace()
    violations = []
    presentations = 0
    classes_checked = 0
    for mn, M in sorted(ws.modules.items()):
        for nn, N in sorted(ws.modules.items()):
            if M.handle is not N.handle:
                continue
            pres = ext(M, N, 1)
            try:
                classes = enumerate_classes(pres, budget=2 ** 8)
            except (InfiniteLengthError, BudgetExceeded):
                continue
            presentations += 1
            zero = pres.zero_class()
            scalars = [M.handle.one_elt()] + M.handle.m_gens()[:2]
            for idx, cls in enumerate(classes):
                classes_checked += 1
                tag = f"Ext1({mn},{nn}) class {cls.coords!r}"
                # group laws in coordinates
                if cls + zero != cls or (cls - cls) != zero:
                    violations.append(f"{tag}: identity/inverse law")
                for other in classes[:3]:
                    if cls + other != other + cls:
                        violations.append(f"{tag}: commutativity")
                # middle / classify round trip
                ses = split_sequence(N, M) if cls.is_zero() else middle(cls)
                ses.certify()
                if classify(ses, pres) != cls:
                    violations.append(f"{tag}: classify(middle) round trip")
                if idx < 2:
                    # scalar action: pullback and pushout give the same class
                    for r in scalars:
                        po = scalar_by_pushout(cls, r)
                        pb = scalar_by_pullback(cls, r)
                        if po != pb or po != cls.scale(r):
                            violations.append(f"{tag}: scalar action by {r}")
                    # Baer sum by universal construction
                    for other in classes[:2]:
                        built = baer_sum_by_construction(
                            split_sequence(N, M) if cls.is_zero() else
                            middle(cls),
                            split_sequence(N, M) if other.is_zero() else
                            middle(other))
                        built.certify()
                        if classify(built, pres) != cls + other:
                            violations.append(f"{tag}: Baer sum construction")
                    # six-term exactness of the induced sequence
                    try:
                        six_term_check(ses, N)
                    except (InfiniteLengthError, BudgetExceeded):
                        pass
    ok = not violations and presentations >= 5
    print(f"criterion 15: {'PASS' if ok else 'FAIL'} "
          f"({presentations} presentations, {classes_checked} classes, "
          f"{len(violations)} violations)")
    assert presentations >= 5
    assert not violations, violations[:5]

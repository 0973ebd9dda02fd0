"""Orbits of units and automorphisms in the class sweep.

`sweep` builds one middle per orbit of `class_orbits` and copies its value
across the orbit.  The orbits are those of the units of `orbit_units` and
of the pushouts and pullbacks along the automorphisms of the ends that
`modules.automorphisms` certifies: for each lift of a basis of
End(X)/m End(X), the lift and id + lift, each kept only when
`is_surjective` holds, and none when End(X)/m End(X) has dimension 1
(for a cyclic X without computing End(X)).
Laws on generated inputs, F_2 groups included: the orbit sweep equals the
per-class comprehension for every numerical-function predicate, each
orbit is closed under the actions, the integer digit kernel gives the
partition that the Scalar action matrices give, and merged classes have
isomorphic middles, where is_isomorphic agrees with a search that builds
each candidate map.  Guards: every automorphism is surjective, `k`, `R`
and the cyclic DVR modules have none, the callers that need one sequence
per class still build one, the second route fires on a function that moves
with the class, and the middles built per scenario stay pinned, counted
both as `middle` calls and as builds (a class keeps the middle it built).
A group keeps the classes of its first sweep: a later sweep builds no
middle and gives the rows a sweep of an equal group built anew gives, and
it still raises BudgetExceeded past its own budget.
"""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

import subext.ext
import subext.scenarios
import subext.subfun
import subext.ulrich
from subext.dcoeff import Mat
from subext.errors import BudgetExceeded, CertificateError
from subext.ext import (SES, ExtClass, class_orbits, classify,
                        coordinate_tuples, enumerate_classes, ext,
                        group_order, middle, orbit_actions, orbit_units,
                        sweep)
from subext.modules import (ModMap, _lifts_mod_m, automorphisms, direct_sum,
                            from_fractional_ideal, from_quotient_ideal,
                            hom, invariant_factors, is_isomorphic,
                            is_surjective, regular_module, residue_field,
                            zero_module)
from subext.rings import FracIdeal, RingSpec, blow_up, build_ring, m_ideal
from subext.scenarios import (DEFAULT_BUDGET, EXPECTED_FAIL, Tally,
                              _halfexact_pool, _minmult, _sg, run_scenario)
from subext.subfun import (additive, fn_colength, fn_hom_from, fn_hom_to,
                           fn_mu, fn_tensor)
from subext.ulrich import (blowup_sequence_comparison, restrict_to_base,
                           ulrich_middle)

MAX_CLASSES = 27


def _dvr(p):
    return build_ring(RingSpec(family="dvr", p=p))


def _cyclic(h, a):
    return from_quotient_ideal(h, FracIdeal(h, [h.t_elt(a)]))


def _artin(variables, monos, p=3):
    return build_ring(RingSpec(family="artin_monomial", p=p,
                               variables=tuple(variables),
                               ideal_monomials=tuple(monos)))


def _pool(h):
    """k, R and one or two ideal modules over a semigroup or artin ring."""
    k, F = residue_field(h), regular_module(h)
    if h.dim == 1:
        m = m_ideal(h)
        return [k, F, from_fractional_ideal(h, m),
                from_fractional_ideal(h, blow_up(m)[0])]
    return [k, F, from_quotient_ideal(h, FracIdeal(h, h.m_gens()[:1]))]


@st.composite
def orbit_groups(draw):
    """(handle, M, N) with at most MAX_CLASSES classes in Ext^1(M, N): DVR
    sums over F_2, F_3 or F_5, pairs over <2,3> or <2,5> over F_2 or F_3,
    or pairs over an F_2 or F_3 monomial artin ring."""
    family = draw(st.sampled_from(["dvr", "two-b", "artin"]))
    if family == "dvr":
        h = _dvr(draw(st.sampled_from([2, 3, 5])))

        def module(free, exps):
            parts = ([regular_module(h)] * free
                     + [_cyclic(h, a) for a in exps])
            return direct_sum(parts)[0] if parts else zero_module(h)
        M = module(draw(st.integers(0, 1)),
                   draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
        N = module(draw(st.integers(0, 1)),
                   draw(st.lists(st.integers(1, 3), max_size=2)))
    else:
        if family == "two-b":
            h = _sg(draw(st.sampled_from([2, 3])), 2,
                    draw(st.sampled_from([3, 5])))
        else:
            p = draw(st.sampled_from([2, 3]))
            h = draw(st.sampled_from([
                _artin("x", [(3,)], p),
                _artin("xy", [(2, 0), (1, 1), (0, 2)], p),
                _artin("xy", [(2, 0), (0, 2)], p)]))
        pool = _pool(h)
        M, N = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    assume(group_order(ext(M, N, 1)) <= MAX_CLASSES)
    return h, M, N


def _predicates(h, pres):
    """additive for mu, colength(m), hom_to(k), hom_from(k) and tensor(k),
    and ulrich_middle(m) in dimension 1, as one function of the middle."""
    k, m = residue_field(h), m_ideal(h)
    preds = [additive(fn, pres) for fn in (fn_mu(), fn_colength(m),
                                           fn_hom_to(k), fn_hom_from(k),
                                           fn_tensor(k))]
    if h.dim == 1:
        preds.append(ulrich_middle(m, pres))
    return lambda ses: [pred(ses) for pred in preds]


@given(orbit_groups())
@settings(max_examples=25, deadline=None)
def test_orbit_sweep_equals_the_per_class_sweep(case):
    h, M, N = case
    pres = ext(M, N, 1)
    f = _predicates(h, pres)
    per_class = [(c, f(middle(c))) for c in enumerate_classes(pres)]
    assert sweep(pres, _predicates(h, pres)) == per_class


def _scalar_orbits(pres, acts):
    """The orbits of the matrices acts on the classes, by a union-find over
    the Scalar coordinates: each class's image is acts @ coords, reduced
    and looked up."""
    classes = enumerate_classes(pres)
    index = {cls.coords: k for k, cls in enumerate(classes)}
    root = list(range(len(classes)))

    def find(k):
        while root[k] != k:
            k = root[k]
        return k
    for act in acts:
        for k, cls in enumerate(classes):
            image = tuple(pres.module.reduce_vec(act @ list(cls.coords)))
            a, b = find(k), find(index[image])
            root[max(a, b)] = min(a, b)
    orbits = {}
    for k in range(len(classes)):
        orbits.setdefault(find(k), []).append(k)
    return list(orbits.values())


@given(orbit_groups())
@settings(max_examples=25, deadline=None)
def test_unit_orbits_partition_the_group_and_are_closed(case):
    h, M, N = case
    pres = ext(M, N, 1)
    classes = enumerate_classes(pres)
    orbits = class_orbits(pres)
    assert sorted(k for orbit in orbits for k in orbit) == list(
        range(len(classes)))
    assert [orbit[0] for orbit in orbits] == sorted(
        orbit[0] for orbit in orbits)
    acts = list(orbit_actions(pres))
    for orbit in orbits:
        assert orbit == sorted(orbit)
        members = {classes[k] for k in orbit}
        for u in orbit_units(h):
            assert {c.scale(u) for c in members} == members
        for act in acts:
            assert {ExtClass(pres, act @ list(c.coords))
                    for c in members} == members


@given(orbit_groups())
@settings(max_examples=25, deadline=None)
def test_digit_kernel_orbits_equal_the_scalar_orbits(case):
    _, M, N = case
    pres = ext(M, N, 1)
    assert class_orbits(pres) == _scalar_orbits(pres,
                                                list(orbit_actions(pres)))


@given(orbit_groups())
@settings(max_examples=20, deadline=None)
def test_merged_classes_have_isomorphic_middles(case):
    _, M, N = case
    pres = ext(M, N, 1)
    classes = enumerate_classes(pres)
    for orbit in class_orbits(pres):
        first = middle(classes[orbit[0]]).B
        for k in orbit[1:]:
            other = middle(classes[k]).B
            assert invariant_factors(other) == invariant_factors(first)
            assert is_isomorphic(other, first)


def _onto_by_enumeration(M, N):
    """Is some combination of the Hom/mHom lifts onto N?  Each candidate
    map is built and tested with is_surjective (Smith forms over D)."""
    base = M.handle.base
    lifts = _lifts_mod_m(hom(M, N))
    for combo in itertools.product(range(base.p), repeat=len(lifts)):
        mat = Mat.zeros(base, N.n, M.n)
        for c, f in zip(combo, lifts):
            mat = mat + f.mat.scale(base.from_int(c))
        if is_surjective(ModMap(M, N, mat)):
            return True
    return False


@given(orbit_groups())
@settings(max_examples=25, deadline=None)
def test_is_isomorphic_agrees_with_the_enumeration_of_maps(case):
    # is_isomorphic searches the maps induced into N/mN; here every lift
    # combination is built as a map of modules and tested with Smith forms
    h, M, N = case
    pool = [M, N] + ([] if h.family == "dvr" else _pool(h))
    for X, Y in itertools.product(pool, repeat=2):
        if invariant_factors(X) != invariant_factors(Y) or X.is_zero():
            continue
        if h.base.p ** len(_lifts_mod_m(hom(X, Y))) > 3 ** 6:
            continue
        assert is_isomorphic(X, Y) == _onto_by_enumeration(X, Y)


@given(orbit_groups())
@settings(max_examples=25, deadline=None)
def test_automorphisms_are_surjective_r_linear_endomorphisms(case):
    _, M, N = case
    for X in (M, N):
        for g in automorphisms(X):
            assert g.src is X and g.dst is X
            assert g.is_r_linear() and is_surjective(g)


def test_automorphisms_are_empty_when_end_is_cyclic():
    rings = [_dvr(2), _dvr(3), _sg(2, 2, 3), _sg(2, 3, 4, 5),
             _artin("xy", [(2, 0), (1, 1), (0, 2)], 2)]
    for h in rings:
        assert automorphisms(residue_field(h)) == []
        assert automorphisms(regular_module(h)) == []
    for p in (2, 3):
        for a in (1, 2, 3):
            assert automorphisms(_cyclic(_dvr(p), a)) == []


def test_automorphisms_merge_what_the_units_cannot():
    """Over <2,3>/F_2 the units merge none of the 4 classes of
    Ext^1(m, m); the automorphisms of m merge two of them (Probe S)."""
    h = _sg(2, 2, 3)
    Mm = from_fractional_ideal(h, m_ideal(h))
    pres = ext(Mm, Mm, 1)
    units = [pres.module.element_action(u) for u in orbit_units(h)]
    assert len(_scalar_orbits(pres, units)) == 4
    assert automorphisms(Mm)
    assert len(class_orbits(pres)) == 3


def test_orbit_units_over_f2_and_f5():
    D2, D5 = _dvr(2), _dvr(5)
    assert len(orbit_units(D2)) == 1          # 1 + t
    assert len(orbit_units(D5)) == 3          # 2, 1 + t, 1 + 2t
    assert orbit_units(D5)[0] == D5.one_elt() * D5.base.from_int(2)


# ---------------------------------------------------------------------------
# the second route and the callers that keep one sequence per class
# ---------------------------------------------------------------------------


def test_sweep_rejects_a_function_that_moves_with_the_class():
    D = _dvr(3)
    pres = ext(_cyclic(D, 2), _cyclic(D, 2), 1)
    with pytest.raises(CertificateError, match="of its orbit"):
        sweep(pres, lambda ses: classify(ses).coords)


def test_halfexact_builds_one_sequence_per_reported_sequence(scenario_run):
    pool = _halfexact_pool(DEFAULT_BUDGET, Tally())
    sequences = scenario_run("halfexact").instances[0]["inputs"]["sequences"]
    assert len({id(ses) for _, ses in pool}) == len(pool) == sequences == 133


def _uliso_groups():
    """The (handle, blow-up handle, Mb, Nb) of the uliso scenario."""
    for handle in _minmult():
        _, bh = blow_up(m_ideal(handle))
        yield handle, bh, regular_module(bh), regular_module(bh)
    handle = _sg(2, 3, 7, 8)
    _, bh = blow_up(m_ideal(handle))
    yield (handle, bh, from_fractional_ideal(bh, m_ideal(bh)),
           regular_module(bh))


def test_blowup_comparison_classifies_every_class():
    for handle, bh, Mb, Nb in _uliso_groups():
        pres_R = ext(restrict_to_base(Mb, handle, bh),
                     restrict_to_base(Nb, handle, bh), 1)
        expected = []
        for cls in enumerate_classes(ext(Mb, Nb, 1)):
            ses = middle(cls)
            A, B, C = (restrict_to_base(X, handle, bh)
                       for X in (ses.A, ses.B, ses.C))
            expected.append((cls, classify(SES(
                A=A, B=B, C=C, i=ModMap(A, B, ses.i.mat),
                p=ModMap(B, C, ses.p.mat)), pres_R)))
        assert blowup_sequence_comparison(Mb, Nb, handle, bh,
                                          pres_R) == expected


# ---------------------------------------------------------------------------
# kept classes: a later sweep of a group reuses the first sweep's classes
# ---------------------------------------------------------------------------


def _group(kind):
    """A degree-1 Ext group built from scratch, with its residue field and
    maximal ideal: each call builds a new ring, so two calls give equal
    groups that share no object."""
    if kind == "dvr":
        h = _dvr(3)
        M = N = _cyclic(h, 2)
    elif kind == "artin":
        h = _artin("xy", [(2, 0), (1, 1), (0, 2)], 2)
        M = N = residue_field(h)
    else:
        p, b = {"<2,3>/F_2": (2, 3), "<2,5>/F_3": (3, 5)}[kind]
        h = _sg(p, 2, b)
        m = m_ideal(h)
        M = from_fractional_ideal(h, m)
        N = from_fractional_ideal(h, blow_up(m)[0])
    return h, ext(M, N, 1)


@pytest.mark.parametrize("kind", ["dvr", "artin", "<2,3>/F_2", "<2,5>/F_3"])
def test_a_second_sweep_builds_no_middle(monkeypatch, kind):
    built = 0
    cocycle = ExtClass.cocycle

    def counted(cls):  # each build lifts one cocycle
        nonlocal built
        built += 1
        return cocycle(cls)
    monkeypatch.setattr(ExtClass, "cocycle", counted)
    h, pres = _group(kind)
    first = sweep(pres, lambda ses: invariant_factors(ses.B))
    assert 0 < built <= len(class_orbits(pres)) + 1
    built = 0
    second = sweep(pres, _predicates(h, pres))
    assert built == 0
    assert [c for c, _ in second] == [c for c, _ in first]
    assert all(a is b for (a, _), (b, _) in zip(second, first))
    # the rows equal those of a sweep of an equal group built anew
    h2, fresh = _group(kind)
    assert fresh is not pres
    built = 0
    again = sweep(fresh, _predicates(h2, fresh))
    assert built > 0
    assert ([(c.coords, v) for c, v in second]
            == [(c.coords, v) for c, v in again])


def test_a_later_sweep_still_checks_its_budget():
    _, pres = _group("<2,5>/F_3")
    order = group_order(pres)
    assert order > 1
    sweep(pres, lambda ses: invariant_factors(ses.B), budget=order)
    with pytest.raises(BudgetExceeded) as kept:
        sweep(pres, lambda ses: invariant_factors(ses.B), budget=order - 1)
    with pytest.raises(BudgetExceeded) as fresh:
        coordinate_tuples(pres.N.handle.base, pres.module.exps, order - 1)
    assert str(kept.value) == str(fresh.value)
    assert str(kept.value) == f"{order} elements exceed budget {order - 1}"
    # and a sweep within the budget still runs on the kept classes
    assert len(sweep(pres, lambda ses: None, budget=order)) == order


# ---------------------------------------------------------------------------
# middle-count gate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, most", [
    ("cycquot", 130), ("loewy", 140), ("uladd", 50), ("prop1-ulrich", 50),
    ("uliso", 70), ("mr-minmult", 25)])
def test_middles_built_by_scenario_stay_pinned(monkeypatch, name, most):
    built = 0

    def counted(cls):
        nonlocal built
        built += 1
        return middle(cls)
    for module in (subext.ext, subext.scenarios, subext.subfun,
                   subext.ulrich):
        if hasattr(module, "middle"):
            monkeypatch.setattr(module, "middle", counted)
    assert run_scenario(name, 0).status == "pass"
    assert 0 < built <= most


@pytest.mark.parametrize("name, most", [
    ("axioms-mu-negative-control", 14), ("axioms-mu", 69), ("axioms-nu", 69),
    ("axioms-ul", 50)])
def test_middles_built_once_per_class_stay_pinned(monkeypatch, name, most):
    # check_closure_axioms asks again for the middles of the members it
    # samples from the sweep; each class builds its middle once, so those
    # cost no build (22, 98, 98 and 58 builds when every call built one)
    built = 0
    cocycle = ExtClass.cocycle

    def counted(cls):  # each build lifts one cocycle
        nonlocal built
        built += 1
        return cocycle(cls)
    monkeypatch.setattr(ExtClass, "cocycle", counted)
    want = "fail" if name in EXPECTED_FAIL else "pass"
    assert run_scenario(name, 0).status == want
    assert 0 < built <= most

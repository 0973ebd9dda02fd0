"""R-linear maps have one owner: `hom` solves the linearity conditions and
`ModMap.is_r_linear` checks them.

Laws on the generated groups of `tests/test_orbits.py`: a middle splits
(`is_split`, whose section search solves for `id_C` in the image of
`Hom(C, p)`) exactly when its class is zero; `Hom(k, -)` of a sequence
composes to zero; `syzygy(M, j)` is generated by `beta_j` elements and,
over artin rings, sits in `0 -> Omega^j -> F_{j-1} -> Omega^{j-1} -> 0`.
Guards: `validate_module` rejects actions that do not commute or that break
the torsion exponents, and both monomial parsers name the bad factor with
its line and column.
"""

import pytest
from hypothesis import given, settings

from subext.dcoeff import Mat
from subext.errors import NotAModuleError, WorkspaceSyntaxError
from subext.ext import (enumerate_classes, ext, hom_postcomposed, is_split,
                        middle)
from subext.modules import (CoeffModule, hom, length, mu, normalize_rows,
                            residue_field, resolution, syzygy,
                            validate_module)
from subext.rings import RingSpec, build_ring
from subext.workspace import parse_element, parse_workspace
from test_orbits import orbit_groups


@given(orbit_groups())
@settings(max_examples=25, deadline=None)
def test_split_exactly_at_zero_and_hom_of_a_sequence_composes_to_zero(case):
    h, M, N = case
    pres = ext(M, N, 1)
    k = residue_field(h)
    for cls in enumerate_classes(pres):
        ses = middle(cls)
        assert is_split(ses, pres) == cls.is_zero()
        comp = hom_postcomposed(k, ses.p) @ hom_postcomposed(k, ses.i)
        target = hom(k, ses.C).module
        assert all(not x.num for row in normalize_rows(target.exps, comp).rows
                   for x in row)


@given(orbit_groups())
@settings(max_examples=25, deadline=None)
def test_syzygy_is_the_image_of_the_differential(case):
    h, M, _ = case
    res = resolution(M, 3)
    for j in (1, 2, 3):
        S = syzygy(M, j)
        validate_module(S)
        assert mu(S) == res.betti[j]
        if h.dim == 0:
            assert (length(S) + length(syzygy(M, j - 1))
                    == length(res.frees[j - 1]))


def test_validate_module_rejects_non_commuting_actions():
    h = build_ring(RingSpec(family="artin_monomial", p=2,
                            variables=("x", "y"),
                            ideal_monomials=((2, 0), (1, 1), (0, 2))))
    base = h.base

    def unit(r, c):
        out = Mat.zeros(base, 3, 3)
        out.rows[r][c] = base.one()
        return out
    # x e_0 = e_1 and y e_1 = e_2, so y x e_0 = e_2 but x y e_0 = 0
    M = CoeffModule(h, (None,) * 3, {"x": unit(1, 0), "y": unit(2, 1)})
    with pytest.raises(NotAModuleError, match="is not R-linear"):
        validate_module(M)


def test_validate_module_rejects_an_action_breaking_torsion_exponents():
    h = build_ring(RingSpec(family="dvr", p=2))
    base = h.base
    t = base.t_power(1)
    # D/t + D/t^2 with t e_0 = e_1: then t * (t e_0) = t e_1 != 0, though
    # t e_0 = 0 in D/t
    act = Mat(base, [[t, base.zero()], [base.one(), t]])
    M = CoeffModule(h, (1, 2), {g: act for g in h.gen_names})
    with pytest.raises(NotAModuleError, match="is not R-linear"):
        validate_module(M)


def test_monomial_factor_errors_name_the_factor_line_and_column():
    ws = parse_workspace("ring r { family=artin p=2 vars=[x,y] "
                         "ideal=[x^2,x*y,y^2] }\n")
    with pytest.raises(WorkspaceSyntaxError,
                       match=r"line 4, column 7: bad monomial factor 'z'"):
        parse_element(ws.ring("r"), "x*z", 4, 7)
    with pytest.raises(WorkspaceSyntaxError,
                       match=r"line 2, column 1: bad monomial factor 'z\^2'"):
        parse_workspace("# rings\nring r { family=artin p=2 vars=[x,y] "
                        "ideal=[x^2,z^2] }\n")

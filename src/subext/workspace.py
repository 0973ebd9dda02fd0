"""Plain-text workspace descriptions of rings, ideals, and modules.

Grammar (line oriented; ``#`` starts a comment; blank lines are ignored)::

    ring   NAME { family=artin|dvr|semigroup p=PRIME
                  [vars=[x,y] ideal=[x^2,x*y]] [gens=[2,3]] }
    ideal  NAME { ring=RNAME gens=[t^2,t^3] }
    module NAME { ring=RNAME kind=frac_ideal|quotient|residue_field|direct_sum
                  gens=[..] | of=[names] }

Elements are monomials ("t^3", "x^2*y", "1") and F_p-linear combinations of
monomials joined with "+", with optional integer coefficients ("3*t^4").
List items and values may be double-quoted.  Labels share one namespace and
duplicates are rejected.  The parts of a direct_sum must be over one ring,
the ring= ring when one is given; its coordinates follow the of=[...] order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import SubextError, WorkspaceSyntaxError
from .modules import (direct_sum, from_fractional_ideal, from_quotient_ideal,
                      residue_field)
from .rings import FracIdeal, RingSpec, build_ring

_HEAD = re.compile(r"^(ring|ideal|module)\s+([A-Za-z_][\w.-]*)\s*\{(.*)\}\s*$")
_PAIR = re.compile(r"([A-Za-z_]\w*)\s*=\s*(\[[^\]]*\]|\"[^\"]*\"|[^\s\]]+)")


@dataclass
class Workspace:
    rings: dict = field(default_factory=dict)
    ideals: dict = field(default_factory=dict)
    modules: dict = field(default_factory=dict)

    def ring(self, name):
        if name not in self.rings:
            raise SubextError(f"unknown ring label {name!r}")
        return self.rings[name]

    def ideal(self, name):
        if name not in self.ideals:
            raise SubextError(f"unknown ideal label {name!r}")
        return self.ideals[name]

    def module(self, name):
        if name not in self.modules:
            raise SubextError(f"unknown module label {name!r}")
        return self.modules[name]


def _unquote(tok):
    tok = tok.strip()
    if len(tok) >= 2 and tok[0] == '"' and tok[-1] == '"':
        return tok[1:-1]
    return tok


def _as_list(value):
    if not (value.startswith("[") and value.endswith("]")):
        return None
    inner = value[1:-1].strip()
    if not inner:
        return []
    return [_unquote(t) for t in inner.split(",")]


_T_POWER = re.compile(r"t(?:\^(\d+))?")


def _terms(text, err):
    """(coefficient, monomial) of each term of a "+"-joined sum."""
    for term in text.split("+"):
        mt = re.fullmatch(r"(?:(\d+)\*?)?([A-Za-z^*\d]*)", term)
        if mt is None or (not mt.group(1) and not mt.group(2)):
            err(f"bad term {term!r}")
        yield (int(mt.group(1)) if mt.group(1) else 1), mt.group(2)


def parse_scalar(base, text):
    """Parse a scalar of the coefficient base: an integer, or, over the local
    base, a polynomial in t written with the terms of parse_element."""
    def err(msg):
        raise WorkspaceSyntaxError(msg)

    text = text.replace(" ", "")
    try:
        return base.from_int(int(text))
    except ValueError:
        pass
    coeffs = []
    for coeff, mono in _terms(text, err):
        k = 0
        if mono not in ("", "1"):
            fm = _T_POWER.fullmatch(mono)
            if fm is None:
                err(f"bad monomial {mono!r}")
            if not base.local:
                err("t only exists over the local base")
            k = int(fm.group(1) or 1)
        coeffs += [0] * (k + 1 - len(coeffs))
        coeffs[k] += coeff
    return base.poly(coeffs)


def parse_element(handle, text, lineno=None, col=None):
    """Parse a ring element: integer-coefficient sum of monomials."""
    def err(msg):
        raise WorkspaceSyntaxError(msg, lineno, col)

    text = text.replace(" ", "")
    if not text:
        err("empty element")
    if text == "0":
        return handle.zero_elt()
    total = handle.zero_elt()
    for coeff, mono in _terms(text, err):
        if mono in ("", "1"):
            elem = handle.one_elt()
        elif handle.dim == 1:
            fm = _T_POWER.fullmatch(mono)
            if fm is None:
                err(f"bad monomial {mono!r} for a dimension-1 ring")
            try:
                elem = handle.t_elt(int(fm.group(1) or 1))
            except SubextError as exc:
                err(str(exc))
        else:
            elem = handle.monomial(_parse_artin_monomial(
                handle.spec.variables, mono, lineno, col))
        c = handle.base.from_int(coeff)
        total = total + handle.elt([x * c for x in elem.coords])
    return total


def _parse_artin_monomial(variables, text, lineno, col):
    exps = [0] * len(variables)
    for factor in text.replace(" ", "").split("*"):
        fm = re.fullmatch(r"([A-Za-z]\w*?)(?:\^(\d+))?", factor)
        if fm is None or fm.group(1) not in variables:
            raise WorkspaceSyntaxError(
                f"bad monomial factor {factor!r}", lineno, col)
        exps[variables.index(fm.group(1))] += int(fm.group(2) or 1)
    return tuple(exps)


def _build_ring(name, opts, lineno):
    family = opts.get("family")
    if family not in ("artin", "dvr", "semigroup"):
        raise WorkspaceSyntaxError(
            f"family must be artin|dvr|semigroup, got {family!r}", lineno, 1)
    if "p" not in opts:
        raise WorkspaceSyntaxError("missing p=PRIME", lineno, 1)
    try:
        p = int(opts["p"])
        gens = tuple(int(g) for g in _as_list(opts.get("gens", "")) or ())
    except ValueError as exc:
        raise WorkspaceSyntaxError(
            f"p and gens need integers ({exc})", lineno, 1) from None
    if family == "dvr":
        spec = RingSpec(family="dvr", p=p, label=name)
    elif family == "semigroup":
        if not gens:
            raise WorkspaceSyntaxError(
                "semigroup ring needs gens=[..]", lineno, 1)
        spec = RingSpec(family="semigroup", p=p, semigroup_gens=gens,
                        label=name)
    else:
        variables = tuple(_as_list(opts.get("vars", "")) or ())
        monos = _as_list(opts.get("ideal", ""))
        if not variables or monos is None:
            raise WorkspaceSyntaxError(
                "artin ring needs vars=[..] and ideal=[monomials]", lineno, 1)
        ideal = tuple(_parse_artin_monomial(variables, mtxt, lineno, 1)
                      for mtxt in monos)
        spec = RingSpec(family="artin_monomial", p=p, variables=variables,
                        ideal_monomials=ideal, label=name)
    return build_ring(spec)


def _build_frac_ideal(ws, opts, lineno):
    handle = ws.ring(_require(opts, "ring", lineno))
    gens = _as_list(opts.get("gens", ""))
    if not gens:
        raise WorkspaceSyntaxError("needs gens=[..]", lineno, 1)
    elems = [parse_element(handle, g, lineno, 1) for g in gens]
    den = opts.get("den")
    den_elem = parse_element(handle, _unquote(den), lineno, 1) if den else None
    return FracIdeal(handle, elems, den_elem)


def _require(opts, key, lineno):
    if key not in opts:
        raise WorkspaceSyntaxError(f"missing {key}=...", lineno, 1)
    return _unquote(opts[key])


def _build_module(ws, opts, lineno):
    kind = _require(opts, "kind", lineno)
    if kind == "direct_sum":
        names = _as_list(opts.get("of", ""))
        if not names:
            raise WorkspaceSyntaxError("direct_sum needs of=[names]", lineno, 1)
        summands = [ws.module(n) for n in names]
        handle = (ws.ring(_require(opts, "ring", lineno)) if "ring" in opts
                  else summands[0].handle)
        for n, M in zip(names, summands):
            if not M.handle.same_ring(handle):
                raise WorkspaceSyntaxError(
                    f"direct_sum parts must be over one ring: {n!r} is over "
                    f"{M.handle.label}, not {handle.label}", lineno, 1)
        S, _, _ = direct_sum(summands)
        return S
    handle = ws.ring(_require(opts, "ring", lineno))
    if kind == "residue_field":
        return residue_field(handle)
    if kind in ("frac_ideal", "quotient"):
        J = _build_frac_ideal(ws, opts, lineno)
        if kind == "frac_ideal":
            return from_fractional_ideal(handle, J)
        return from_quotient_ideal(handle, J)
    raise WorkspaceSyntaxError(
        f"kind must be frac_ideal|quotient|residue_field|direct_sum, "
        f"got {kind!r}", lineno, 1)


def parse_workspace(text):
    """Parse workspace text into a Workspace of validated handles."""
    ws = Workspace()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        mt = _HEAD.match(line)
        if mt is None:
            col = len(raw) - len(raw.lstrip()) + 1
            raise WorkspaceSyntaxError(
                f"expected 'ring|ideal|module NAME {{ ... }}', got {line!r}",
                lineno, col)
        cat, name, body = mt.group(1), mt.group(2), mt.group(3)
        if name in seen:
            raise WorkspaceSyntaxError(
                f"duplicate label {name!r}", lineno, line.index(name) + 1)
        seen.add(name)
        opts = {k: v for k, v in _PAIR.findall(body)}
        try:
            if cat == "ring":
                ws.rings[name] = _build_ring(name, opts, lineno)
            elif cat == "ideal":
                ws.ideals[name] = _build_frac_ideal(ws, opts, lineno)
            else:
                ws.modules[name] = _build_module(ws, opts, lineno)
        except WorkspaceSyntaxError:
            raise
        except SubextError as exc:
            raise WorkspaceSyntaxError(str(exc), lineno, 1) from exc
    return ws


DEFAULT_WORKSPACE = """\
# Bundled desk-scale workspace: one ring per family/parameter the
# verification scenarios exercise, with a few standard modules.
ring d2   { family=dvr p=2 }
ring d3   { family=dvr p=3 }
ring d5   { family=dvr p=5 }
ring e23  { family=semigroup p=2 gens=[2,3] }
ring e345 { family=semigroup p=2 gens=[3,4,5] }
ring e25  { family=semigroup p=2 gens=[2,5] }
ring e567 { family=semigroup p=2 gens=[5,6,7] }
ring a2   { family=artin p=2 vars=[x,y] ideal=[x^2,x*y,y^2] }
ring a3   { family=artin p=2 vars=[x,y,z] ideal=[x^2,x*y,x*z,y^2,y*z,z^2] }
ring a2c  { family=artin p=2 vars=[x] ideal=[x^3] }

ideal m23  { ring=e23 gens=[t^2,t^3] }
ideal m345 { ring=e345 gens=[t^3,t^4,t^5] }

module R23   { ring=e23 kind=frac_ideal gens=[1] }
module k23   { ring=e23 kind=residue_field }
module M23   { ring=e23 kind=frac_ideal gens=[t^2,t^3] }
module Q2    { ring=d2 kind=quotient gens=[t^2] }
module Q3    { ring=d2 kind=quotient gens=[t^3] }
module Q23   { ring=d2 kind=direct_sum of=[Q2,Q3] }
"""


def default_workspace():
    return parse_workspace(DEFAULT_WORKSPACE)

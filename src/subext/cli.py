"""Command-line interface: run verification scenarios and ad-hoc
computations over a plain-text workspace."""

from __future__ import annotations

import gc
import json
import sys

import click

from .errors import SubextError, WorkspaceSyntaxError
from .ext import ext as ext_op
from .ext import group_order, middle
from .modules import invariant_factors, is_mcm, length, mu
from .rings import m_ideal, ring_invariants
from .scenarios import (DEFAULT_BUDGET, EXPECTED_FAIL, list_scenarios,
                        render_report, run_scenario, SCENARIOS)
from .subfun import ext1_additive, ext1_ulrich, fn_colength, fn_mu
from .workspace import default_workspace, parse_scalar, parse_workspace


def _load_workspace(path):
    if path is None:
        return default_workspace()
    with open(path, encoding="utf-8") as fh:
        return parse_workspace(fh.read())


def _ideal(ws, ideal_name, M):
    """The ideal labelled ideal_name in ws, m by default; it must be over
    the ring of M."""
    if ideal_name is None:
        return m_ideal(M.handle)
    I = ws.ideal(ideal_name)
    if not I.handle.same_ring(M.handle):
        raise SubextError(f"ideal {ideal_name!r} is over {I.handle.label}, "
                          f"not over the ring of M ({M.handle.label})")
    return I


def _emit(payload):
    click.echo(json.dumps(payload, sort_keys=True, indent=2))


@click.group()
def main():
    """Exact Ext-group and subfunctor computations over desk-scale local
    rings, with named theorem-verification scenarios."""


@main.command("list-scenarios")
def cmd_list_scenarios():
    """List registered scenario names with one-line descriptions."""
    for name in list_scenarios():
        click.echo(f"{name}: {SCENARIOS[name][0]}")


@main.command("verify")
@click.argument("scenario")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--budget", type=int, default=DEFAULT_BUDGET,
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Also write the report to this file.")
def cmd_verify(scenario, seed, budget, out):
    """Run one scenario (or 'all') and print its report; exit status 0
    on pass, 1 on any fail, else 3 on budget exhaustion.  Under 'all' a
    scenario that raises an error counts as a fail and the rest still run,
    and an expected-fail scenario counts as met when it fails and as a
    fail otherwise."""
    names = list_scenarios() if scenario == "all" else [scenario]
    statuses = set()
    reports = []
    for name in names:
        # the last scenario's rings (each Base and its Scalars form a cycle)
        # are freed before this one starts, not at the next gen-2 collection,
        # so no shared Base and none of its tables outlive a scenario
        gc.collect()
        try:
            result = run_scenario(name, seed=seed, budget=budget)
        except SubextError as exc:
            if scenario != "all":
                raise click.ClickException(str(exc))
            click.echo(f"Error: {name}: {exc}", err=True)
            statuses.add("fail")
            continue
        reports.append(render_report(result))
        click.echo(reports[-1], nl=False)
        if scenario == "all" and name in EXPECTED_FAIL:
            statuses.add("pass" if result.status == "fail" else "fail")
        else:
            statuses.add(result.status)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("".join(reports))
    # a failure outranks budget exhaustion, as in a scenario's own status
    sys.exit(1 if "fail" in statuses else 3 if "budget" in statuses else 0)


class _ComputeGroup(click.Group):
    """A command group whose commands report a SubextError as a click
    error (an `Error:` line and exit status 1), not a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SubextError as exc:
            raise click.ClickException(str(exc)) from None


@main.group("compute", cls=_ComputeGroup)
def cmd_compute():
    """Ad-hoc computations over a workspace (bundled by default)."""


_WORKSPACE_OPT = click.option(
    "--workspace", "workspace_path", type=click.Path(dir_okay=False),
    default=None, help="Workspace file (defaults to the bundled one).")


@cmd_compute.command("ring-info")
@click.argument("ring_name")
@_WORKSPACE_OPT
def cmd_ring_info(ring_name, workspace_path):
    """Invariants of a ring: dimension, multiplicity, type, flags."""
    ws = _load_workspace(workspace_path)
    handle = ws.ring(ring_name)
    inv = ring_invariants(handle)
    _emit({"ring": ring_name, "label": handle.label, "dim": inv.dim,
           "depth": inv.depth, "emb_dim": inv.emb_dim, "mult": inv.mult,
           "type": inv.cm_type, "regular": inv.regular,
           "gorenstein": inv.gorenstein,
           "minimal_multiplicity": inv.min_mult,
           "almost_gorenstein": inv.almost_gorenstein})


@cmd_compute.command("mod-invariants")
@click.argument("module_name")
@_WORKSPACE_OPT
def cmd_mod_invariants(module_name, workspace_path):
    """Invariants of a module: generators, length, MCM flag."""
    ws = _load_workspace(workspace_path)
    M = ws.module(module_name)
    lam = length(M) if all(e is not None or not M.handle.base.local
                           for e in M.exps) else None
    _emit({"module": module_name, "mu": mu(M), "length": lam,
           "mcm": is_mcm(M),
           "invariant_factors": [e if e is not None else "free"
                                 for e in invariant_factors(M)]})


@cmd_compute.command("ext")
@click.argument("m_name")
@click.argument("n_name")
@click.option("--deg", type=int, default=1, show_default=True)
@_WORKSPACE_OPT
def cmd_ext(m_name, n_name, deg, workspace_path):
    """Invariant factors and order of Ext^deg(M, N)."""
    ws = _load_workspace(workspace_path)
    pres = ext_op(ws.module(m_name), ws.module(n_name), deg)
    _emit({"M": m_name, "N": n_name, "deg": deg,
           "invariant_factors": [e if e is not None else "free"
                                 for e in pres.module.exps],
           "order": group_order(pres)})


@cmd_compute.command("ext-sub")
@click.argument("m_name")
@click.argument("n_name")
@click.option("--fn", "fn_name", type=click.Choice(["mu", "colength"]),
              default="mu", show_default=True)
@click.option("--ideal", "ideal_name", default=None,
              help="Ideal label for the colength function (default m).")
@click.option("--budget", type=int, default=DEFAULT_BUDGET,
              show_default=True)
@_WORKSPACE_OPT
def cmd_ext_sub(m_name, n_name, fn_name, ideal_name, budget,
                workspace_path):
    """Member count and submodule certificate of an Ext^1 subfunctor."""
    ws = _load_workspace(workspace_path)
    M, N = ws.module(m_name), ws.module(n_name)
    pres = ext_op(M, N, 1)
    if fn_name == "mu":
        fn = fn_mu()
    else:
        fn = fn_colength(_ideal(ws, ideal_name, M))
    res = ext1_additive(pres, fn, budget)
    _emit({"M": m_name, "N": n_name, "fn": fn_name,
           "members": len(res.members), "group_order": res.total,
           "span_length": res.span_length,
           "certified_submodule": res.certified})


@cmd_compute.command("ext-ul")
@click.argument("m_name")
@click.argument("n_name")
@click.option("--ideal", "ideal_name", default=None,
              help="Ideal label (default m of the ring of M).")
@click.option("--budget", type=int, default=DEFAULT_BUDGET,
              show_default=True)
@_WORKSPACE_OPT
def cmd_ext_ul(m_name, n_name, ideal_name, budget, workspace_path):
    """Classes of Ext^1(M, N) whose middle is I-Ulrich."""
    ws = _load_workspace(workspace_path)
    M, N = ws.module(m_name), ws.module(n_name)
    I = _ideal(ws, ideal_name, M)
    pres = ext_op(M, N, 1)
    res = ext1_ulrich(pres, I, budget)
    _emit({"M": m_name, "N": n_name,
           "members": len(res.members), "group_order": res.total,
           "certified_submodule": res.certified})


@cmd_compute.command("verify-ses")
@click.argument("m_name")
@click.argument("n_name")
@click.option("--coords", default=None,
              help="Comma-separated class coordinates in the invariant basis "
                   "of Ext^1: integers, or polynomials in t such as 1+2t^2 "
                   "over a local base (default: the zero class).")
@_WORKSPACE_OPT
def cmd_verify_ses(m_name, n_name, coords, workspace_path):
    """Build the extension with the given class coordinates, certify it,
    and report its middle's invariants."""
    from .ext import ExtClass, classify
    ws = _load_workspace(workspace_path)
    M, N = ws.module(m_name), ws.module(n_name)
    pres = ext_op(M, N, 1)
    base = M.handle.base
    if coords:
        try:
            values = [parse_scalar(base, c) for c in coords.split(",")]
        except WorkspaceSyntaxError as exc:
            raise SubextError(
                f"--coords needs comma-separated integers or, over a "
                f"local base, polynomials in t; got {coords!r}: {exc}"
            ) from None
        if len(values) != pres.module.n:
            raise SubextError(f"expected {pres.module.n} coordinates")
        cls = ExtClass(pres, values)
    else:
        cls = pres.zero_class()
    ses = middle(cls)
    ses.certify()
    round_trip = classify(ses, pres) == cls
    _emit({"M": m_name, "N": n_name, "class": repr(cls.coords),
           "certified_exact": True, "round_trip": round_trip,
           "middle_mu": mu(ses.B),
           "mu_additive": mu(ses.B) == mu(ses.A) + mu(ses.C)})


if __name__ == "__main__":
    main()

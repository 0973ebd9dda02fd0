import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from subext.cli import main
from subext.errors import SubextError, UnknownScenarioError, WorkspaceSyntaxError
from subext.modules import length, mu
from subext.rings import ring_invariants
from subext.scenarios import (EXPECTED_FAIL, ScenarioResult, list_scenarios,
                              render_report, run_scenario)
from subext.workspace import default_workspace, parse_element, parse_workspace


# ---------------------------------------------------------------------------
# workspace parsing
# ---------------------------------------------------------------------------

def test_default_workspace_builds():
    ws = default_workspace()
    assert set(ws.rings) >= {"d2", "d3", "d5", "e23", "e345", "a2"}
    assert ring_invariants(ws.ring("e23")).mult == 2
    assert mu(ws.module("M23")) == 2
    assert length(ws.module("Q23")) == 5


def test_parse_ring_families():
    ws = parse_workspace(
        "ring r { family=dvr p=7 }\n"
        "ring s { family=semigroup p=2 gens=[3,4,5] }\n"
        "ring a { family=artin p=3 vars=[x] ideal=[x^2] }\n")
    assert ws.ring("r").dim == 1
    assert tuple(ws.ring("s").semigroup) == (3, 4, 5)
    assert ws.ring("a").dim == 0


def test_parse_ideal_and_modules():
    ws = parse_workspace(
        "ring r { family=semigroup p=2 gens=[2,3] }\n"
        "ideal m { ring=r gens=[t^2,t^3] }\n"
        "module M { ring=r kind=frac_ideal gens=[t^2,t^3] }\n"
        "module k { ring=r kind=residue_field }\n"
        "module Q { ring=r kind=quotient gens=[t^4] }\n"
        "module S { ring=r kind=direct_sum of=[k,Q] }\n")
    assert mu(ws.module("M")) == 2
    assert length(ws.module("k")) == 1
    assert length(ws.module("S")) == 1 + length(ws.module("Q"))


def test_parse_comments_and_blank_lines():
    ws = parse_workspace("# header\n\nring r { family=dvr p=2 } # trailing\n")
    assert "r" in ws.rings


def test_parse_element_syntax():
    ws = parse_workspace("ring r { family=semigroup p=5 gens=[2,3] }\n")
    h = ws.ring("r")
    assert parse_element(h, "t^2") == h.t_elt(2)
    assert parse_element(h, "0") == h.zero_elt()
    assert parse_element(h, "1") == h.one_elt()
    three = h.base.from_int(3)
    expect = h.elt([c * three for c in h.t_elt(4).coords]) + h.t_elt(2)
    assert parse_element(h, "3*t^4 + t^2") == expect


def test_duplicate_label_rejected_with_position():
    text = "ring r { family=dvr p=2 }\nring r { family=dvr p=3 }\n"
    with pytest.raises(WorkspaceSyntaxError) as exc:
        parse_workspace(text)
    assert exc.value.line == 2
    assert "duplicate" in str(exc.value)


def test_malformed_line_reports_line_and_column():
    with pytest.raises(WorkspaceSyntaxError) as exc:
        parse_workspace("ring r { family=dvr p=2 }\n   nonsense here\n")
    assert exc.value.line == 2
    assert exc.value.column == 4


def test_non_coprime_semigroup_rejected():
    with pytest.raises(WorkspaceSyntaxError):
        parse_workspace("ring r { family=semigroup p=2 gens=[2,4] }\n")


def test_bad_element_rejected():
    ws = parse_workspace("ring r { family=dvr p=2 }\n")
    with pytest.raises(WorkspaceSyntaxError):
        parse_element(ws.ring("r"), "x^2", lineno=1, col=1)


def test_unknown_labels_raise():
    ws = default_workspace()
    with pytest.raises(SubextError):
        ws.module("nope")
    with pytest.raises(SubextError):
        ws.ring("nope")


# ---------------------------------------------------------------------------
# scenario registry and reports
# ---------------------------------------------------------------------------

def test_registry_names_resolve():
    names = list_scenarios()
    assert len(names) >= 27
    assert names == sorted(names)


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenarioError):
        run_scenario("no-such-scenario")


def test_report_is_deterministic_up_to_wall_time():
    def stripped(result):
        d = json.loads(render_report(result))
        d.pop("wall_time_s")
        return d
    a = run_scenario("regu-d1", seed=0)
    b = run_scenario("regu-d1", seed=0)
    assert stripped(a) == stripped(b)
    assert a.status == "pass"


# every scenario that runs out of a budget of 2 classes
BUDGET_STOPPED = {"axioms-mu", "axioms-mu-negative-control", "axioms-nu",
                  "axioms-ul", "cano-d1", "cycquot", "dvr-mu", "halfexact",
                  "hyper", "loewy", "mr-minmult", "prop1-ulrich",
                  "reg-depth1", "regu-d1", "tony-et", "uladd", "ulfaith",
                  "uliso"}


@pytest.mark.parametrize("name", list_scenarios())
def test_budget_exhaustion_is_recorded_not_raised(name):
    result = run_scenario(name, budget=2)
    assert result.status == ("budget" if name in BUDGET_STOPPED else
                             "fail" if name in EXPECTED_FAIL else "pass")
    for inst in result.instances:
        if inst["status"] == "budget":
            assert inst["pass"] is None and inst["computed"]["error"]


def test_negative_control_fails_with_witnesses():
    result = run_scenario("axioms-mu-negative-control")
    assert result.status == "fail"
    assert not result.aggregate_pass
    failing = [i for i in result.instances if i["status"] == "fail"]
    assert failing and failing[0]["computed"]["witnesses"]


# ---------------------------------------------------------------------------
# command-line entry points
# ---------------------------------------------------------------------------

def test_cli_list_scenarios():
    out = CliRunner().invoke(main, ["list-scenarios"])
    assert out.exit_code == 0
    lines = out.output.strip().splitlines()
    assert len(lines) == len(list_scenarios())
    assert all(": " in line for line in lines)


def test_cli_verify_writes_report(tmp_path):
    path = tmp_path / "report.json"
    out = CliRunner().invoke(
        main, ["verify", "regu-d1", "--out", str(path)])
    assert out.exit_code == 0
    report = json.loads(path.read_text())
    assert report["scenario"] == "regu-d1"
    assert report["status"] == "pass"
    assert json.loads(out.output) == report


def test_cli_verify_exit_code_on_budget():
    out = CliRunner().invoke(main, ["verify", "regu-d1", "--budget", "2"])
    assert out.exit_code == 3
    assert "Error:" not in out.output
    assert json.loads(out.output)["status"] == "budget"


def test_cli_verify_exit_code_on_failure():
    out = CliRunner().invoke(main, ["verify", "axioms-mu-negative-control"])
    assert out.exit_code == 1


def test_cli_verify_unknown_scenario():
    out = CliRunner().invoke(main, ["verify", "no-such"])
    assert out.exit_code != 0
    assert "unknown scenario" in out.output


def test_cli_ring_info():
    out = CliRunner().invoke(main, ["compute", "ring-info", "e345"])
    assert out.exit_code == 0
    data = json.loads(out.output)
    assert data["mult"] == 3
    assert data["emb_dim"] == 3
    assert not data["gorenstein"]


def test_cli_mod_invariants():
    out = CliRunner().invoke(main, ["compute", "mod-invariants", "M23"])
    assert out.exit_code == 0
    data = json.loads(out.output)
    assert data["mu"] == 2 and data["mcm"]


def test_cli_mod_invariants_prints_canonical_order(tmp_path):
    # a sum's coordinates follow its of=[...] order; the printed invariant
    # factors stay in canonical order (free first, torsion ascending)
    path = tmp_path / "ws.txt"
    path.write_text(
        "ring d2 { family=dvr p=2 }\n"
        "module Q2 { ring=d2 kind=quotient gens=[t^2] }\n"
        "module Q3 { ring=d2 kind=quotient gens=[t^3] }\n"
        "module R { ring=d2 kind=frac_ideal gens=[1] }\n"
        "module Q32 { ring=d2 kind=direct_sum of=[Q3,Q2] }\n"
        "module Q3R { ring=d2 kind=direct_sum of=[Q3,R] }\n")
    for name, want in (("Q32", [2, 3]), ("Q3R", ["free", 3])):
        out = CliRunner().invoke(main, ["compute", "mod-invariants", name,
                                        "--workspace", str(path)])
        assert out.exit_code == 0, out.output
        assert json.loads(out.output)["invariant_factors"] == want


def test_cli_ext_and_subfunctors():
    runner = CliRunner()
    out = runner.invoke(main, ["compute", "ext", "k23", "R23", "--deg", "1"])
    assert out.exit_code == 0
    assert json.loads(out.output)["order"] == 2
    out = runner.invoke(main, ["compute", "ext-sub", "k23", "R23",
                               "--fn", "mu"])
    data = json.loads(out.output)
    assert data["members"] == 2 and data["certified_submodule"]
    out = runner.invoke(main, ["compute", "ext-ul", "k23", "R23"])
    data = json.loads(out.output)
    assert data["members"] == 1 and data["group_order"] == 2


def test_cli_verify_ses_round_trip():
    out = CliRunner().invoke(
        main, ["compute", "verify-ses", "k23", "R23", "--coords", "1"])
    assert out.exit_code == 0
    data = json.loads(out.output)
    assert data["certified_exact"] and data["round_trip"]
    assert data["mu_additive"]


def test_cli_verify_ses_polynomial_coords():
    # Ext^1(D/t^3, D/t^2) = D/t^2 over F_2[t]_(t): 1+t is a unit class,
    # and 3t^2+t reduces to t
    for coords, want in (("1+t", "(1+t,)"), ("3*t^2+t", "(t,)")):
        out = CliRunner().invoke(
            main, ["compute", "verify-ses", "Q3", "Q2", "--coords", coords])
        assert out.exit_code == 0, out.output
        data = json.loads(out.output)
        assert data["class"] == want
        assert data["certified_exact"] and data["round_trip"]


def test_cli_custom_workspace(tmp_path):
    path = tmp_path / "ws.txt"
    path.write_text(
        "ring r5 { family=dvr p=5 }\n"
        "module k5 { ring=r5 kind=residue_field }\n"
        "module F5 { ring=r5 kind=quotient gens=[t^2] }\n")
    out = CliRunner().invoke(
        main, ["compute", "ext", "k5", "F5", "--workspace", str(path)])
    assert out.exit_code == 0
    assert json.loads(out.output)["order"] == 5


def test_cli_unknown_module_label():
    out = CliRunner().invoke(main, ["compute", "ext", "nope", "R23"])
    assert out.exit_code != 0
    assert "unknown module" in out.output


@pytest.mark.parametrize("command", [
    ["ring-info", "r"], ["mod-invariants", "k"], ["ext", "k", "k"],
    ["ext-sub", "k", "k"], ["ext-ul", "k", "k"], ["verify-ses", "k", "k"]])
def test_cli_workspace_syntax_error_is_clean(tmp_path, command):
    path = tmp_path / "ws.txt"
    path.write_text("ring r { family=dvr p=5 }\nmodule k { ring=r kind=\n")
    out = CliRunner().invoke(
        main, ["compute", *command, "--workspace", str(path)])
    assert out.exit_code == 1
    assert out.output.startswith("Error: ")
    assert not isinstance(out.exception, WorkspaceSyntaxError)


def test_cli_verify_all_fail_outranks_budget(monkeypatch):
    statuses = {name: "fail" if name in EXPECTED_FAIL else "pass"
                for name in list_scenarios()}
    first, second = list_scenarios()[:2]
    statuses[first], statuses[second] = "fail", "budget"

    def fake_run(name, seed=0, budget=0, out=None):
        return ScenarioResult(name=name, description="", rings="",
                              instances=[], status=statuses[name],
                              aggregate_pass=statuses[name] == "pass",
                              seed=seed, budget=budget, budget_used=0,
                              wall_time_s=0.0)

    monkeypatch.setattr("subext.cli.run_scenario", fake_run)
    assert CliRunner().invoke(main, ["verify", "all"]).exit_code == 1
    statuses[first] = "pass"
    assert CliRunner().invoke(main, ["verify", "all"]).exit_code == 3
    statuses[second] = "pass"
    assert CliRunner().invoke(main, ["verify", "all"]).exit_code == 0
    # an expected-fail scenario that does not fail is a fail
    for control in EXPECTED_FAIL:
        for status in ("pass", "budget"):
            statuses[control] = status
            assert CliRunner().invoke(main, ["verify", "all"]).exit_code == 1
        statuses[control] = "fail"


def test_cli_verify_all_out_keeps_every_report(tmp_path, monkeypatch):
    def fake_run(name, seed=0, budget=0):
        status = "fail" if name in EXPECTED_FAIL else "pass"
        return ScenarioResult(name=name, description="", rings="",
                              instances=[], status=status,
                              aggregate_pass=status == "pass", seed=seed,
                              budget=budget, budget_used=0, wall_time_s=0.0)

    monkeypatch.setattr("subext.cli.run_scenario", fake_run)
    path = tmp_path / "all.json"
    out = CliRunner().invoke(main, ["verify", "all", "--out", str(path)])
    assert out.exit_code == 0
    assert path.read_text() == out.output
    for name in list_scenarios():
        assert f'"scenario": "{name}"' in out.output


def test_cli_verify_all_reports_past_an_error(tmp_path, monkeypatch):
    broken = list_scenarios()[1]

    def fake_run(name, seed=0, budget=0):
        if name == broken:
            raise SubextError("scenario exploded")
        status = "fail" if name in EXPECTED_FAIL else "pass"
        return ScenarioResult(name=name, description="", rings="",
                              instances=[], status=status,
                              aggregate_pass=status == "pass", seed=seed,
                              budget=budget, budget_used=0, wall_time_s=0.0)

    monkeypatch.setattr("subext.cli.run_scenario", fake_run)
    path = tmp_path / "all.json"
    out = CliRunner().invoke(main, ["verify", "all", "--out", str(path)])
    assert out.exit_code == 1
    assert out.stderr == f"Error: {broken}: scenario exploded\n"
    assert path.read_text() == out.stdout
    for name in list_scenarios():
        assert (f'"scenario": "{name}"' in out.stdout) == (name != broken)
    # a single named scenario still stops with the error
    single = CliRunner().invoke(main, ["verify", broken])
    assert single.exit_code == 1 and single.stdout == ""


# runs `subext verify all` and prints, per scenario, its name, the
# coefficient rings with a live shared Base when it starts, and how many
# shared Bases are live when it returns
_VERIFY_ALL_PROBE = """
import json
from subext import cli, dcoeff
seen, run = [], cli.run_scenario

def probed(name, **kwargs):
    seen.append([name, sorted(dcoeff._SHARED.keys())])
    result = run(name, **kwargs)
    seen[-1].append(len(dcoeff._SHARED))
    return result

cli.run_scenario = probed
try:
    cli.main(["verify", "all"])
except SystemExit as exc:
    print(json.dumps([exc.code, seen]))
"""


def test_cli_verify_all_starts_each_scenario_with_no_shared_base():
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c", _VERIFY_ALL_PROBE], timeout=600,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")))
    code, seen = json.loads(run.stdout.splitlines()[-1])
    assert code == 0
    assert [name for name, _, _ in seen] == list_scenarios()
    assert all(live == [] for _, live, _ in seen)
    # each scenario's rings share Bases that are still live when it returns
    assert all(left > 0 for _, _, left in seen)


@pytest.mark.parametrize("workspace, command, message", [
    ("ring r { family=dvr p=abc }", ["ring-info", "r"],
     "line 2, column 1: p and gens need integers"),
    ("ring r { family=semigroup p=2 gens=[2,x] }", ["ring-info", "r"],
     "line 2, column 1: p and gens need integers"),
    ("ring r { family=semigroup p=2 gens=[0,3] }", ["ring-info", "r"],
     "line 2, column 1: semigroup generators must be positive"),
    (None, ["ext", "k23", "R23", "--deg", "-1"],
     "Ext degree must be at least 1"),
    (None, ["verify-ses", "k23", "R23", "--coords", "x"],
     "--coords needs comma-separated integers"),
    (None, ["verify-ses", "Q3", "Q2", "--coords", "1+t^"],
     "bad monomial 't^'"),
    (None, ["verify-ses", "Q3", "Q2", "--coords", "1++t"], "bad term ''"),
    ("ring a { family=artin p=2 vars=[x] ideal=[x^2] }\n"
     "module ka { ring=a kind=residue_field }",
     ["verify-ses", "ka", "ka", "--coords", "t"],
     "t only exists over the local base"),
    (None, ["ext-ul", "M23", "Q2"], "Ext needs M and N over one ring"),
    (None, ["ext-sub", "M23", "Q2"], "Ext needs M and N over one ring"),
    (None, ["verify-ses", "M23", "Q2"], "Ext needs M and N over one ring"),
    (None, ["ext-ul", "M23", "M23", "--ideal", "m345"],
     "ideal 'm345' is over e345, not over the ring of M"),
    ("ring e { family=semigroup p=2 gens=[2,3] }\n"
     "module M { ring=e kind=frac_ideal gens=[t^2,t^3] }\n"
     "module Q { ring=ok kind=quotient gens=[t^2] }\n"
     "module X { ring=ok kind=direct_sum of=[Q,M] }",
     ["mod-invariants", "X"],
     "line 5, column 1: direct_sum parts must be over one ring: "
     "'M' is over e, not ok"),
    ("ring e { family=semigroup p=2 gens=[2,3] }\n"
     "module Q { ring=ok kind=quotient gens=[t^2] }\n"
     "module X { ring=e kind=direct_sum of=[Q,Q] }",
     ["mod-invariants", "X"],
     "line 4, column 1: direct_sum parts must be over one ring: "
     "'Q' is over ok, not e"),
], ids=["p-not-int", "gens-not-int", "gens-zero", "deg-negative",
        "coords-not-int", "coords-bad-monomial", "coords-bad-term",
        "coords-t-over-field", "ext-ul-two-rings", "ext-sub-two-rings",
        "verify-ses-two-rings", "ext-ul-ideal-of-another-ring",
        "direct-sum-two-rings", "direct-sum-other-ring"])
def test_cli_bad_input_is_clean(tmp_path, workspace, command, message):
    if workspace is not None:
        path = tmp_path / "ws.txt"
        path.write_text("ring ok { family=dvr p=2 }\n" + workspace + "\n")
        command = [*command, "--workspace", str(path)]
    out = CliRunner().invoke(main, ["compute", *command])
    assert out.exit_code == 1
    assert out.output.startswith("Error: ") and message in out.output
    assert isinstance(out.exception, SystemExit)

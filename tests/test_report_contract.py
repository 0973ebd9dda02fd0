"""Report contract: the report of every scenario is pinned by digest.

Each digest is the SHA-256 of render_report(run_scenario(name, 0)) with the
wall_time_s line removed.  A change to the engine that keeps its answers
keeps these bytes.  A change that alters a report on purpose updates the
digest here and records the report change in CHANGES.md.
"""

import hashlib

import pytest

from subext.scenarios import list_scenarios, render_report

REPORT_SHA256 = {
    "algor":
        "abca363fa878305ba925147e831a96af8f033c39921531f42bb721a36805181f",
    "artincan":
        "7af3c3e4b43507adfaa99889a044b9ef444dbae3ee776ddba0d3a3a31e737b0a",
    "axioms-mu":
        "fe8564e2c067265496fd9286c3cd157a55067923f15f13101fa96ab70c05baab",
    "axioms-mu-negative-control":
        "0c5ffbb83b6028b0c2f30c0d31d6757af97ff1bdfd64aacd08dd96b45e6eca21",
    "axioms-nu":
        "5af069c1ff0c65f9cc0cd77fa2e78184eb7f64d94b89342714f59552f40fbc1e",
    "axioms-ul":
        "08cf6f374fc03cf5b84871bc018d17fca05cfdaf9cdcfed26a02591ce2a98196",
    "cano-d1":
        "3ec0cc04467d3a7f0c988f8d33bc5f15bf803d72f4840770c071ac0b4656e6c8",
    "cycquot":
        "6997c56b6ecc92a78cbf4cbfa8f660cd665a9a260c16a62956e55d8919e5fba7",
    "dvr-mu":
        "6fb371ddf29e010283d2c166268cae987eb0e15e0c13b848b2bdd044619378a2",
    "halfexact":
        "63dd628492998a32ca0079a974106ba365bfb2695fd894c7c93b87eb4dce34b2",
    "hyper":
        "0e9a231db92926a8fb47135a6d32e5a1f9848eebbc74ee21f0e7c704526bd716",
    "injd-d1":
        "1f8f1aee7aa37e4e98fa143f386ec18dcfa859d39831cc747b6c6e5a5ac4345a",
    "jane":
        "10e31e4dee90c8fdecb5effaedadd734a4b7a2523071f7c47d3e38ea5021067f",
    "loewy":
        "aa7cc9dd5a851f55398195356de6d254d2840b6aca7e62dc5b5485ad94da90d0",
    "mintype-muadd":
        "f63b4b33cfd02785721aa67a8c9ab74482551ed4181c4369c322b12db0916262",
    "mr-minmult":
        "e82bda1b3886dd336456b5a282f3eac5fa6cec8f03cabb59be7500464b0f4d54",
    "prop1-ulrich":
        "c25bd82c89396e20a5e624d53c8de0b54a813ce50cb0ddb20bbb25e7c076a6c6",
    "projgor":
        "ff8e8736fbdde19c002aafb5d413d5a120a1689137bbf7b988cf588fd313d35d",
    "redul":
        "e3b96312dddc4d1da89dd4023cf565476625ff9d9909003c089fa75cdc39b4f7",
    "reg-depth1":
        "78a1c1781ca739bd330a49905f0a68425b2d15b9de79e88ef48a7c78c734dd96",
    "regu-d1":
        "d745fd2ce013110547ed311b964cf9a6fbb12262155de8f467e62117c57503c2",
    "tony-et":
        "084820ad97adaefd7daeaa1c59488aebe75797eb5ce0110b1edb34ab5a42411d",
    "trk-depth":
        "66af4111609c37c0691366681d4878190b0be68dec1d9ea1fe3cc7a413c2d533",
    "trset":
        "e15571bbbadadefbc14ef31a3c383dbc0da90dee53c0a0e5ccfa2df67c4b9fb9",
    "uladd":
        "97237163b5cb5f25995f20fe851803f6226c1a44747234b72db49bc7141f3d8e",
    "ulfaith":
        "49cc8292e1c4c07754ca1afbe2694fa9fd53eecc749fdd1120df835af088803d",
    "uliso":
        "4b5683c5aa492cdb5fdb50d202e4ba01bc0a278f58cde0563a63dae237784497",
    "weakly-mfull":
        "c7752de46d1389ed9d00bf28b19a59fed21d0348e501256c9da88c21ebc04e39",
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_digest_is_pinned(scenario_run, name):
    text = render_report(scenario_run(name))
    text = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith('  "wall_time_s": '))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]


def test_every_scenario_is_pinned():
    assert sorted(REPORT_SHA256) == list_scenarios()

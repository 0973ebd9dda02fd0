"""Report contract: the reports of the fast scenarios are pinned by digest.

Each digest is the SHA-256 of render_report(run_scenario(name, 0)) with the
wall_time_s line removed.  A change to the engine that keeps its answers
keeps these bytes.  A change that alters a report on purpose updates the
digest here and records the report change in CHANGES.md.
"""

import hashlib

import pytest

from subext.scenarios import render_report, run_scenario

REPORT_SHA256 = {
    "algor":
        "abca363fa878305ba925147e831a96af8f033c39921531f42bb721a36805181f",
    "artincan":
        "7af3c3e4b43507adfaa99889a044b9ef444dbae3ee776ddba0d3a3a31e737b0a",
    "axioms-mu-negative-control":
        "0c5ffbb83b6028b0c2f30c0d31d6757af97ff1bdfd64aacd08dd96b45e6eca21",
    "cano-d1":
        "3ec0cc04467d3a7f0c988f8d33bc5f15bf803d72f4840770c071ac0b4656e6c8",
    "hyper":
        "0e9a231db92926a8fb47135a6d32e5a1f9848eebbc74ee21f0e7c704526bd716",
    "injd-d1":
        "1f8f1aee7aa37e4e98fa143f386ec18dcfa859d39831cc747b6c6e5a5ac4345a",
    "jane":
        "10e31e4dee90c8fdecb5effaedadd734a4b7a2523071f7c47d3e38ea5021067f",
    "mintype-muadd":
        "f63b4b33cfd02785721aa67a8c9ab74482551ed4181c4369c322b12db0916262",
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
    "weakly-mfull":
        "c7752de46d1389ed9d00bf28b19a59fed21d0348e501256c9da88c21ebc04e39",
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_digest_is_pinned(name):
    text = render_report(run_scenario(name, 0))
    text = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith('  "wall_time_s": '))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]

"""Byte-level pins of the sweep records and the analyze and collapse outputs.

Any change to the edge order, the potentials, the visibility basepoints or
the record layout shows up here as a digest mismatch.  Update a digest only
for a deliberate change of output.
"""

import hashlib
import os
from fractions import Fraction as F

import pytest

from wforest.cli import main
from wforest.ends import ProxyParams
from wforest.generators import gp_graph, lattice_box, windmill
from wforest.graph import to_json
from wforest.percolation import records_to_jsonl, sweep
from wforest.weights import level_potential, unit_potential


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_records_gp_level_weights():
    g = gp_graph(2, 2, 3)
    assert g.boundary_vertices()
    recs = sweep(g, level_potential(g, F(1, 2)), [0.5, 0.8], 2, 3, ProxyParams())
    assert sha256(records_to_jsonl(recs)) == \
        "436bb84de22d64b6f7f6725c0b1b1647ad073f2bddebe8ba5d17d58bbd6a4d5b"


def test_sweep_records_box():
    g = lattice_box(6, 6)
    recs = sweep(g, unit_potential(g), [0.4, 0.6], 2, 5, ProxyParams())
    assert sha256(records_to_jsonl(recs)) == \
        "fa9664618aaaeb028f1fe8f2fa49498802630c06b1f40d72e0b20804e756623c"


@pytest.mark.parametrize("graph, weights, digest", [
    (windmill(3, 3), '{"unit":true}',
     "10e3ae7c60bbbe745ac52b9eaa9bc32315061a5dfb683fbbfe3625737756d924"),
    (gp_graph(2, 2, 3), '{"levels_from_meta":true}',
     "ab03e8322b049ddfae09bbb8097862176280a7cafcf37f1869ecf2f031ed3e80"),
], ids=["windmill-3-3-unit", "gp-2-2-3-levels"])
def test_analyze_report(tmp_path, graph, weights, digest):
    (tmp_path / "g.json").write_text(to_json(graph))
    (tmp_path / "w.json").write_text(weights)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert main(["analyze", "g.json", "w.json", "-o", "rep.json"]) == 0
    finally:
        os.chdir(cwd)
    assert sha256((tmp_path / "rep.json").read_text()) == digest


@pytest.mark.parametrize("graph, weights, tiebreak, forest_digest, family_digest", [
    (windmill(4, 3), '{"unit":true}', "meta",
     "f6a070c63dcc51136d932c5c4e5fa95b1005bd25b8e935c78b4ec8e2bfffb606",
     "e5e18a32d608de00e474d557f84b901cb16e23dcb79d0bbe7b650520a786ba39"),
    (gp_graph(2, 2, 3), '{"levels_from_meta":true}', "canonical",
     "4e537eb7527fa7a96d9424e897fe121bc06ab9d75615041bab27e776d4452bb0",
     "0c13d6aec61d9faf77dc53b9d4b7db1ce0daf05dd76d8e46018c7e1c0a98aa8f"),
], ids=["windmill-4-3-unit-meta", "gp-2-2-3-levels"])
def test_collapse_outputs(tmp_path, graph, weights, tiebreak, forest_digest, family_digest):
    (tmp_path / "g.json").write_text(to_json(graph))
    (tmp_path / "w.json").write_text(weights)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert main(["collapse", "g.json", "w.json", "--tiebreak", tiebreak,
                     "-o", "f.json", "--family-out", "fam.json"]) == 0
    finally:
        os.chdir(cwd)
    assert sha256((tmp_path / "f.json").read_text()) == forest_digest
    assert sha256((tmp_path / "fam.json").read_text()) == family_digest

import argparse
import contextlib
import copy
import io
import json
import os
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wforest.cli import _utc_iso, build_parser, main
from wforest.errors import UsageError
from wforest.graph import build_graph, from_json, to_json
from wforest.generators import cycle, gp_graph
from wforest.weights import EdgeOrder, unit_potential

from conftest import edge_set, maximal_subforest_oracle


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def test_gen_roundtrip(tmp_path):
    assert run(tmp_path, "gen", "--family", "cycle", "--n", "3", "-o", "tri.json") == 0
    g = from_json((tmp_path / "tri.json").read_text())
    assert edge_set(g) == edge_set(cycle(3))
    assert to_json(g) == (tmp_path / "tri.json").read_text()


def test_gen_gp_matches_library(tmp_path):
    assert run(tmp_path, "gen", "--family", "gp", "--k", "2", "--up", "1",
               "--down", "2", "-o", "gp.json") == 0
    assert (tmp_path / "gp.json").read_text() == to_json(gp_graph(2, 1, 2))


def _oracle_json(graph_file, potential) -> dict:
    """The kept and deleted edges of the cycle-enumeration oracle, as the CLI
    writes them."""
    g = from_json(graph_file.read_text())
    result = maximal_subforest_oracle(g, EdgeOrder(g, potential(g)))
    return {"kept": sorted(map(list, result.kept)),
            "deleted": sorted(map(list, result.deleted))}


def test_forest_triangle_and_oracle_parity(tmp_path):
    run(tmp_path, "gen", "--family", "cycle", "--n", "3", "-o", "tri.json")
    (tmp_path / "w.json").write_text('{"potential":{"0":"3","1":"2","2":"1"}}')
    assert run(tmp_path, "forest", "tri.json", "w.json", "--check-witnesses",
               "-o", "f1.json") == 0
    doc = json.loads((tmp_path / "f1.json").read_text())
    assert len(doc["deleted"]) == 1
    assert doc["cut_witnesses"]["ok"]
    slow = _oracle_json(tmp_path / "tri.json",
                        lambda g: {0: Fraction(3), 1: Fraction(2), 2: Fraction(1)})
    assert doc["kept"] == slow["kept"] and doc["deleted"] == slow["deleted"]


def test_oracle_parity_on_fixtures(tmp_path):
    fixtures = [
        ("gen", "--family", "windmill", "--blades", "3", "--radius", "2"),
        ("gen", "--family", "gp", "--k", "2", "--up", "1", "--down", "2"),
        ("gen", "--family", "random_gnm", "--n", "9", "--m", "14", "--seed", "4"),
    ]
    (tmp_path / "unit.json").write_text('{"unit":true}')
    for i, argv in enumerate(fixtures):
        run(tmp_path, *argv, "-o", f"g{i}.json")
        assert run(tmp_path, "forest", f"g{i}.json", "unit.json",
                   "-o", f"fast{i}.json") == 0
        fast = json.loads((tmp_path / f"fast{i}.json").read_text())
        slow = _oracle_json(tmp_path / f"g{i}.json", unit_potential)
        assert fast["kept"] == slow["kept"] and fast["deleted"] == slow["deleted"]


def test_forest_fixed_flag(tmp_path):
    run(tmp_path, "gen", "--family", "cycle", "--n", "4", "-o", "c4.json")
    (tmp_path / "unit.json").write_text('{"unit":true}')
    (tmp_path / "h.json").write_text('{"edges":[[0,1]]}')
    assert run(tmp_path, "forest", "c4.json", "unit.json", "--fixed", "h.json",
               "-o", "f.json") == 0
    doc = json.loads((tmp_path / "f.json").read_text())
    assert [0, 1] in doc["kept"] and doc["fixed"] == [[0, 1]]


def test_forest_fixed_edge_in_either_orientation(tmp_path, capsys):
    """A fixed edge may be written either way round, as in a graph document;
    a self-loop is refused with one JSON line."""
    (tmp_path / "c4.json").write_text(to_json(cycle(4)))
    (tmp_path / "unit.json").write_text('{"unit":true}')
    for name, pairs in (("f01", "[[0,1]]"), ("f10", "[[1,0]]"), ("loop", "[[1,1]]")):
        (tmp_path / f"{name}.json").write_text(pairs)
    for name in ("f01", "f10"):
        assert run(tmp_path, "forest", "c4.json", "unit.json", "--fixed", f"{name}.json",
                   "-o", f"out-{name}.json") == 0
    assert (tmp_path / "out-f10.json").read_text() == (tmp_path / "out-f01.json").read_text()
    capsys.readouterr()
    assert run(tmp_path, "forest", "c4.json", "unit.json", "--fixed", "loop.json",
               "-o", "out-loop.json") == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert json.loads(out.err)["error"] == "SelfLoop"
    assert not (tmp_path / "out-loop.json").exists()


def test_collapse_and_analyze(tmp_path):
    run(tmp_path, "gen", "--family", "windmill", "--blades", "3", "--radius", "2",
        "-o", "wm.json")
    (tmp_path / "unit.json").write_text('{"unit":true}')
    assert run(tmp_path, "collapse", "wm.json", "unit.json", "--tiebreak", "meta",
               "-o", "cf.json", "--family-out", "fam.json") == 0
    fam = json.loads((tmp_path / "fam.json").read_text())
    assert [1] in fam["blocks"]
    assert run(tmp_path, "analyze", "wm.json", "unit.json", "-o", "rep.json") == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["components"][0]["furcation_vertex_counts"]["3"] == 1


def test_percolate_degenerate_grid(tmp_path):
    run(tmp_path, "gen", "--family", "cycle", "--n", "5", "-o", "c5.json")
    (tmp_path / "unit.json").write_text('{"unit":true}')
    assert run(tmp_path, "percolate", "c5.json", "unit.json", "--p-grid", "0,1",
               "--trials", "1", "--seed", "3", "-o", "r.jsonl",
               "--summary", "s.csv") == 0
    lines = (tmp_path / "r.jsonl").read_text().splitlines()
    assert len(lines) == 2
    first, second = (json.loads(s) for s in lines)
    assert first["open"] == 0 and second["open"] == 5
    assert (tmp_path / "s.csv").read_text().startswith("p,statistic,value")


def test_every_command_accepts_a_graph_with_no_vertices(tmp_path):
    (tmp_path / "g.json").write_text('{"vertices":[],"edges":[]}')
    (tmp_path / "unit.json").write_text('{"unit":true}')
    for argv in (["forest", "g.json", "unit.json", "-o", "f.json"],
                 ["collapse", "g.json", "unit.json", "-o", "c.json", "--family-out", "fam.json"],
                 ["analyze", "g.json", "unit.json", "-o", "a.json"],
                 ["percolate", "g.json", "unit.json", "--p-grid", "0.5", "-o", "r.jsonl"]):
        assert run(tmp_path, *argv) == 0, argv
    record = json.loads((tmp_path / "r.jsonl").read_text())
    assert record["clusters"]["largest_fraction"] == 0.0


def test_rerun_byte_identical(tmp_path):
    (tmp_path / "unit.json").write_text('{"unit":true}')
    cmds = [
        ("gen", "--family", "gp", "--k", "2", "--up", "1", "--down", "2",
         "-o", "g.json"),
        ("forest", "g.json", "unit.json", "-o", "f.json"),
        ("percolate", "g.json", "unit.json", "--p-grid", "0.5", "--trials", "2",
         "--seed", "11", "-o", "r.jsonl", "--summary", "s.csv"),
    ]
    for argv in cmds:
        assert run(tmp_path, *argv) == 0
    snapshots = {
        name: (tmp_path / name).read_bytes()
        for name in ("g.json", "f.json", "r.jsonl", "s.csv")
    }
    for manifest in ("g.json.manifest.json", "f.json.manifest.json",
                     "r.jsonl.manifest.json"):
        assert run(tmp_path, "rerun", manifest) == 0
    for name, data in snapshots.items():
        assert (tmp_path / name).read_bytes() == data


def test_manifest_contents(tmp_path):
    from datetime import datetime

    before = time.time()
    run(tmp_path, "gen", "--family", "cycle", "--n", "4", "-o", "c.json")
    man = json.loads((tmp_path / "c.json.manifest.json").read_text())
    assert man["command"] == "gen"
    assert man["argv"][0] == "gen"
    assert "c.json" in man["outputs"]
    assert man["outputs"]["c.json"].startswith("sha256:")
    stamp = datetime.fromisoformat(man["timestamp"])
    assert stamp.utcoffset().total_seconds() == 0
    assert before - 1e-3 <= stamp.timestamp() <= time.time() + 1e-3


@pytest.mark.parametrize("t", [
    0.0, 1.5, -1.25, 951_782_400.5, 1_700_000_000.0, 1_700_000_000.25,
    1_700_000_000.123456, 1_760_918_399.9999996, 1_760_918_400.0000004,
    253_402_300_799.0])
def test_manifest_timestamp_is_the_isoformat_of_datetime(t):
    """The manifest's timestamp text is `datetime`'s, microsecond rounding
    included; at a whole second `isoformat` leaves the fraction out."""
    from datetime import datetime, timezone

    assert _utc_iso(t) == datetime.fromtimestamp(t, timezone.utc).isoformat()


def test_manifest_timestamp_leaves_out_a_zero_fraction():
    assert _utc_iso(1_700_000_000.0) == "2023-11-14T22:13:20+00:00"
    assert _utc_iso(1_700_000_000.25) == "2023-11-14T22:13:20.250000+00:00"
    assert _utc_iso(1_760_918_399.9999996) == "2025-10-20T00:00:00+00:00"


def test_validation_error_exit_code(tmp_path):
    rc = run(tmp_path, "gen", "--family", "gp", "--k", "1", "--up", "1",
             "--down", "1", "-o", "x.json")
    assert rc == 2
    assert not (tmp_path / "x.json").exists()
    rc = run(tmp_path, "forest", "missing.json", "missing.json", "-o", "y.json")
    assert rc == 2


def test_structured_error_output(tmp_path, capsys):
    run(tmp_path, "gen", "--family", "nope", "-o", "z.json")
    err = capsys.readouterr().err
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"] == "BadParams"


def test_missing_potential_vertex_is_reported_by_every_command(tmp_path, capsys):
    (tmp_path / "g.json").write_text(to_json(cycle(6)))
    (tmp_path / "w.json").write_text('{"potential":{"0":1,"1":1,"2":1,"3":1,"4":1}}')
    for argv in (["forest", "g.json", "w.json", "-o", "out.json"],
                 ["collapse", "g.json", "w.json", "-o", "out.json", "--family-out", "f.json"],
                 ["analyze", "g.json", "w.json", "-o", "out.json"],
                 ["percolate", "g.json", "w.json", "--p-grid", "0.5", "-o", "out.json"]):
        assert run(tmp_path, *argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1, argv
        assert json.loads(out.err)["error"] == "MissingVertex", argv
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("key", ["01", " 1", "1 ", "+1", "-0", "1_0", "1.0", "x", "", "99"],
                         ids=["leading_zero", "leading_space", "trailing_space", "plus_sign",
                              "minus_zero", "underscore", "decimal_point", "letter", "empty",
                              "no_vertex"])
def test_noncanonical_weight_keys_exit_2(tmp_path, capsys, key):
    """A potential key is a vertex id as `str` writes it; any other spelling
    is refused by name, so "01" can never overwrite vertex 1's value.  So is
    a key that names no vertex of the graph, though every vertex has its
    value."""
    (tmp_path / "g.json").write_text(to_json(cycle(4)))
    potential = {"0": 1, "1": 1, "2": 1, "3": 1, key: 5}
    (tmp_path / "w.json").write_text(json.dumps({"potential": potential}))
    assert run(tmp_path, "forest", "g.json", "w.json", "-o", "f.json") == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    doc = json.loads(out.err)
    assert doc["error"] == "MalformedDocument" and repr(key) in doc["message"]
    assert not (tmp_path / "f.json").exists()
    assert not (tmp_path / "f.json.manifest.json").exists()


@pytest.mark.parametrize("level, weights, flags, error", [
    (0, '{"potential":{"0":"1e-100000000","1":1,"2":1,"3":1}}', [], "MalformedDocument"),
    (0, '{"potential":{"0":"3/2","1":" 2E+4301 ","2":1,"3":1}}', [], "MalformedDocument"),
    (0, '{"levels_from_meta":true,"base_ratio":"1e99999999999999999999"}', [],
     "MalformedDocument"),
    (0, '{"unit":true}', ["--delta", "1e-100000000"], "UsageError"),
    (0, '{"unit":true}', ["--delta", "1e1_000_000"], "UsageError"),
    (10**9, '{"levels_from_meta":true}', [], "BadParams"),  # ratio 1/2: two bits a level
    (30_000, '{"levels_from_meta":true,"base_ratio":"1/1000"}', [], "BadParams"),  # ten bits
], ids=["potential", "potential-spaced", "base-ratio", "delta", "delta-underscores",
        "level", "level-ratio-1/1000"])
def test_huge_exponents_and_levels_exit_2(tmp_path, capsys, level, weights, flags, error):
    """A rational written with a decimal exponent past `MAX_EXPONENT`, in a
    weight file or a flag, and a vertex level whose power would pass
    `MAX_LEVEL_BITS`, are refused before any big integer is built: one JSON
    line, exit 2, nothing written.  `analyze` reads both `--delta` and the
    weights.  The graph is a 4-cycle with vertex 0 at `level`."""
    g = build_graph(range(4), edge_set(cycle(4)), {"levels": {0: level, 1: 0, 2: 0, 3: 0}})
    (tmp_path / "g.json").write_text(to_json(g))
    (tmp_path / "w.json").write_text(weights)
    assert run(tmp_path, "analyze", "g.json", "w.json", *flags, "-o", "a.json") == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert json.loads(out.err)["error"] == error
    assert not (tmp_path / "a.json").exists()


def test_exponent_bound_is_inclusive():
    """The shared rule of weight files and rational flags: an exponent of
    magnitude `MAX_EXPONENT` passes it, one more does not; text that is no
    decimal with an exponent is left to `Fraction`."""
    from wforest.cli import MAX_EXPONENT, _huge_exponent
    assert not _huge_exponent(f"1e{MAX_EXPONENT}") and not _huge_exponent(f"1E-{MAX_EXPONENT}")
    assert _huge_exponent(f"1e{MAX_EXPONENT + 1}") and _huge_exponent(f"-2.5e-{MAX_EXPONENT + 1}")
    assert not any(map(_huge_exponent, ["3/2", "0.5", "inf", "nan", "1e", "e99", "1/2e"]))


def test_canonical_weight_keys_name_negative_and_large_ids(tmp_path):
    g = build_graph([-3, 0, 12], [(-3, 0), (0, 12)])
    (tmp_path / "g.json").write_text(to_json(g))
    (tmp_path / "w.json").write_text('{"potential":{"-3":"1/2","0":1,"12":2}}')
    assert run(tmp_path, "forest", "g.json", "w.json", "-o", "f.json") == 0
    assert json.loads((tmp_path / "f.json").read_text())["kept"] == [[-3, 0], [0, 12]]


@pytest.mark.parametrize("factors", [
    "[1,2]",
    '[{"family":"cycle","n":"3"},{"family":"cycle","n":3}]',
    '[{"family":"cycle","n":true},{"family":"cycle","n":3}]',
    '{"family":"cycle","n":3}',
    '[{"family":"cycle","n":3},{"family":"free_product","max_word":1,"factors":[2]}]',
])
def test_malformed_factors_exit_2(tmp_path, capsys, factors):
    assert run(tmp_path, "gen", "--family", "free_product", "--max-word", "2",
               "--factors", factors, "-o", "fp.json") == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert json.loads(out.err)["error"] == "MalformedDocument"
    assert not (tmp_path / "fp.json").exists()


@pytest.mark.parametrize("field, flags", [
    ("k", ("--family", "gp")),
    ("factors", ("--family", "free_product", "--max-word", "1")),
    ("k", ("--family", "cycle", "--n", "4", "--k", "3")),
    ("factors", ("--family", "gp", "--k", "2", "--up", "1", "--down", "2",
                 "--factors", "[]")),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_gen_refuses_missing_and_foreign_family_fields(tmp_path, capsys, field, flags):
    """A missing field, or one the family does not take, is named with its
    family, and nothing is written."""
    assert run(tmp_path, "gen", *flags, "-o", "g.json") == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    doc = json.loads(out.err)
    assert doc["error"] == "BadParams"
    assert repr(flags[1]) in doc["message"] and repr(field) in doc["message"]
    assert list(tmp_path.iterdir()) == []


def nested_factors(levels: int) -> str:
    """A cycle(3) inside `levels` free products, each beside a 1x1 box: a
    graph of 3 vertices at any depth."""
    box = {"family": "lattice_box", "w": 1, "h": 1}
    spec = {"family": "cycle", "n": 3}
    for _ in range(levels):
        spec = {"family": "free_product", "max_word": 1, "factors": [spec, box]}
    return json.dumps([spec, box])


@pytest.mark.parametrize("flags", [
    ("--family", "free_product", "--max-word", "1", "--factors", nested_factors(32)),
    ("--family", "free_product", "--max-word", "1", "--factors", nested_factors(330)),
    ("--family", "lattice_box", "--w", "100000000", "--h", "100000000"),
    ("--family", "gp", "--k", "2", "--up", "3", "--down", "400"),
    ("--family", "windmill", "--blades", "3", "--radius", "100000"),
    ("--family", "free_product", "--max-word", "1000000000", "--factors",
     '[{"family":"lattice_box","w":1,"h":2},{"family":"lattice_box","w":2,"h":1}]'),
    ("--family", "random_gnm", "--n", "2001", "--m", "1"),
    ("--family", "random_gnm", "--n", "100000", "--m", "0"),
    ("--family", "free_product", "--max-word", "1", "--factors",
     '[{"family":"cycle","n":3},{"family":"random_gnm","n":3000,"m":1}]'),
], ids=["nested-33", "nested-331", "box", "gp", "windmill", "fp-max-word", "gnm-2001",
        "gnm-1e5", "fp-gnm"])
def test_gen_refuses_deep_nesting_and_absurd_sizes(tmp_path, capsys, flags):
    """Factors nested past the limit, a family past the vertex bound, and a
    random_gnm past the pair bound, a factor too (each value refused from its
    closed form, before anything is built), are BadParams: one JSON line, no
    traceback, nothing written."""
    assert run(tmp_path, "gen", *flags, "-o", "g.json") == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert json.loads(out.err)["error"] == "BadParams"
    assert list(tmp_path.iterdir()) == []


def test_gen_nests_factors_up_to_the_limit(tmp_path):
    assert run(tmp_path, "gen", "--family", "free_product", "--max-word", "1",
               "--factors", nested_factors(31), "-o", "g.json") == 0
    assert len(from_json((tmp_path / "g.json").read_text()).vertices) == 3


TRIANGLE = '{"vertices":[{"id":0},{"id":1},{"id":2}],"edges":[[0,1],[1,2],[0,2]]'


@pytest.mark.parametrize("graph, error", [
    ('{"vertices":[{"id":0},{"id":1}],"edges":[[0,1],[1,0]]}', "DuplicateEdge"),
    ('{"vertices":[{"id":0},{"id":1}],"edges":[[0,1],[0,1]]}', "DuplicateEdge"),
    (TRIANGLE + ',"meta":{"tiebreak":[[0,1],[0,1],[1,2],[0,2],[5,6]]}}', "ValueError"),
    (TRIANGLE + ',"meta":{"tiebreak":[[0,1],[1,0],[1,2],[0,2]]}}', "ValueError"),
    (TRIANGLE + ',"meta":{"tiebreak":[[0,1],[1,2],[0,2],[5,6]]}}', "ValueError"),
], ids=["edge-twice-reversed", "edge-twice", "tiebreak-both", "tiebreak-repeat",
        "tiebreak-non-edge"])
def test_repeated_edges_and_foreign_tiebreaks_exit_2(tmp_path, capsys, graph, error):
    """A graph that lists an edge twice, and a meta tiebreak that repeats an
    edge or names a non-edge, are refused: one JSON line, nothing written."""
    (tmp_path / "g.json").write_text(graph)
    (tmp_path / "unit.json").write_text('{"unit":true}')
    assert run(tmp_path, "forest", "g.json", "unit.json", "--tiebreak", "meta",
               "-o", "f.json") == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert json.loads(out.err)["error"] == error
    assert not (tmp_path / "f.json").exists()


def test_rerun_rejects_drifted_input_with_unchanged_output(tmp_path, capsys):
    run(tmp_path, "gen", "--family", "cycle", "--n", "4", "-o", "c.json")
    (tmp_path / "unit.json").write_text('{"unit":true}')
    assert run(tmp_path, "forest", "c.json", "unit.json", "-o", "f.json") == 0
    before = (tmp_path / "f.json").read_bytes()
    # an extra key leaves the forest bytes unchanged
    (tmp_path / "unit.json").write_text('{"unit":true,"note":"edited"}')
    assert run(tmp_path, "rerun", "f.json.manifest.json") == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "InputDrift" and "unit.json" in doc["message"]
    assert (tmp_path / "f.json").read_bytes() == before


def test_rerun_rejects_drifted_input_before_rewriting_output(tmp_path, capsys):
    run(tmp_path, "gen", "--family", "cycle", "--n", "4", "-o", "c.json")
    (tmp_path / "w.json").write_text('{"potential":{"0":"1","1":"2","2":"3","3":"4"}}')
    assert run(tmp_path, "forest", "c.json", "w.json", "-o", "f.json") == 0
    before = (tmp_path / "f.json").read_bytes()
    (tmp_path / "w.json").write_text('{"potential":{"0":"4","1":"3","2":"2","3":"1"}}')
    assert run(tmp_path, "rerun", "f.json.manifest.json") == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "InputDrift"
    assert (tmp_path / "f.json").read_bytes() == before


def test_rerun_rejects_malformed_manifests(tmp_path, capsys):
    bad = ['[]', '{"argv":["gen"],"inputs":{}}', '{"argv":"gen","inputs":{},"outputs":{}}',
           '{"argv":["rerun","m.json"],"inputs":{},"outputs":{}}']
    for text in bad:
        (tmp_path / "m.json").write_text(text)
        assert run(tmp_path, "rerun", "m.json") == 2, text
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "MalformedDocument"


def test_atomic_write_ignores_a_stale_tmp_path(tmp_path):
    run(tmp_path, "gen", "--family", "cycle", "--n", "4", "-o", "c.json")
    (tmp_path / "unit.json").write_text('{"unit":true}')
    (tmp_path / "f.json.tmp").mkdir()
    assert run(tmp_path, "forest", "c.json", "unit.json", "-o", "f.json") == 0
    assert json.loads((tmp_path / "f.json").read_text())["kept"]
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")) \
        == ["f.json.tmp"]


def test_atomic_write_removes_its_temp_file_on_failure(tmp_path):
    run(tmp_path, "gen", "--family", "cycle", "--n", "4", "-o", "c.json")
    (tmp_path / "unit.json").write_text('{"unit":true}')
    (tmp_path / "out").mkdir()  # os.replace cannot put a file over a directory
    assert run(tmp_path, "forest", "c.json", "unit.json", "-o", "out") == 2
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_atomic_write_skips_a_taken_temp_name(tmp_path):
    run(tmp_path, "gen", "--family", "cycle", "--n", "4", "-o", "c.json")
    (tmp_path / "unit.json").write_text('{"unit":true}')
    taken = tmp_path / f"f.json.{os.getpid()}.0.tmp"
    taken.write_text("not ours")
    assert run(tmp_path, "forest", "c.json", "unit.json", "-o", "f.json") == 0
    assert json.loads((tmp_path / "f.json").read_text())["kept"]
    assert taken.read_text() == "not ours"
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == [taken.name]


def test_outputs_keep_the_default_file_mode(tmp_path):
    run(tmp_path, "gen", "--family", "cycle", "--n", "4", "-o", "c.json")
    umask = os.umask(0)
    os.umask(umask)
    assert (tmp_path / "c.json").stat().st_mode & 0o777 == 0o666 & ~umask


DEEP = "[" * 100_000  # past the JSON parser's recursion limit

MALFORMED = [
    ('{"vertices":[{"id":"a"},{"id":1}],"edges":[["a",1]]}', '{"unit":true}'),
    ('{"vertices":[0],"edges":[]}', '{"unit":true}'),
    ('{"vertices":[{"id":true},{"id":2}],"edges":[[true,2]]}', '{"unit":true}'),
    ('{"vertices":[{"id":0},{"id":1}],"edges":[[0,1]]}', '[{"unit":true}]'),
    ('{"vertices":[{"id":0},{"id":1}],"edges":[[0,1,2]]}', '{"unit":true}'),
    ('{"vertices":[{"id":0},{"id":1}],"edges":[[0,1]]}', '{"potential":{"0":null,"1":1}}'),
    ('{"vertices":[{"id":0},{"id":1}],"edges":[[0,1]]}', '{"potential":{"0":"1/0","1":1}}'),
    (DEEP, '{"unit":true}'),
    ('{"vertices":[{"id":0},{"id":1}],"edges":[[0,1]]}', DEEP),
]


def test_malformed_documents_exit_2(tmp_path, capsys):
    for graph, weights in MALFORMED:
        (tmp_path / "g.json").write_text(graph)
        (tmp_path / "w.json").write_text(weights)
        assert run(tmp_path, "forest", "g.json", "w.json", "-o", "f.json") == 2, graph[:50]
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    # a document nested too deeply to parse, as fixed edges, manifest or factors
    (tmp_path / "g.json").write_text(to_json(cycle(3)))
    (tmp_path / "w.json").write_text('{"unit":true}')
    (tmp_path / "deep.json").write_text(DEEP)
    for argv in (["forest", "g.json", "w.json", "--fixed", "deep.json", "-o", "f.json"],
                 ["rerun", "deep.json"],
                 ["gen", "--family", "free_product", "--max-word", "1", "--factors", DEEP,
                  "-o", "f.json"]):
        assert run(tmp_path, *argv) == 2, argv[0]
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1, argv[0]
        assert json.loads(out.err)["error"] == "MalformedDocument", argv[0]
    assert not (tmp_path / "f.json").exists()


def test_colliding_output_paths_exit_2_and_write_nothing(tmp_path, capsys):
    run(tmp_path, "gen", "--family", "windmill", "--blades", "3", "--radius", "2",
        "-o", "wm.json")
    (tmp_path / "unit.json").write_text('{"unit":true}')
    (tmp_path / "u.manifest.json").write_text('{"unit":true}')
    (tmp_path / "link.json").symlink_to("wm.json")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for argv in (
        ["collapse", "wm.json", "unit.json", "--tiebreak", "meta", "-o", "same.json",
         "--family-out", "same.json"],
        ["percolate", "wm.json", "unit.json", "--p-grid", "0.5", "-o", "r.jsonl",
         "--summary", "r.jsonl"],
        ["forest", "wm.json", "unit.json", "-o", "wm.json"],
        ["forest", "wm.json", "unit.json", "-o", "link.json"],
        ["forest", "link.json", "unit.json", "-o", "./wm.json"],
        ["analyze", "wm.json", "unit.json", "-o", "unit.json"],
        ["collapse", "wm.json", "unit.json", "-o", "c.json",
         "--family-out", "c.json.manifest.json"],
        ["forest", "wm.json", "u.manifest.json", "-o", "u"],  # the manifest is an input
    ):
        assert run(tmp_path, *argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1, argv
        assert json.loads(out.err)["error"] == "BadParams", argv
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before, argv
    assert run(tmp_path, "rerun", "wm.json.manifest.json") == 0


def test_usage_errors_exit_2_with_json(tmp_path, capsys):
    for argv in (["forest", "only_one.json"], ["frobnicate"],
                 ["forest", "g.json", "w.json", "--tiebreak", "random", "-o", "f.json"],
                 ["percolate", "g.json", "w.json", "--p-grid", "0.5", "--trials", "x",
                  "-o", "r.jsonl"],
                 ["forest", "g.json", "w.json", "--oracle", "-o", "f.json"],
                 # only percolate takes --tau
                 ["collapse", "g.json", "w.json", "--tau", "4", "-o", "c.json",
                  "--family-out", "f.json"],
                 ["analyze", "g.json", "w.json", "--tau", "4", "-o", "a.json"]):
        assert run(tmp_path, *argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1, argv
        assert json.loads(out.err)["error"] == "UsageError", argv
    for argv in (["--help"], ["forest", "--help"], ["--version"]):
        with pytest.raises(SystemExit) as info:
            run(tmp_path, *argv)
        assert info.value.code == 0, argv


# Argvs that together pass every flag of each command, in each of its
# spellings, and each command with only what it requires.
PARSER_ARGVS = {
    "gen": [
        ["gen", "--family", "cycle", "--n", "4", "-o", "g.json"],
        ["gen", "--family", "gp", "--k", "2", "--up", "3", "--down", "4", "--output", "g.json"],
        ["gen", "--family=lattice_box", "--w", "3", "--h=4", "-o", "g.json"],
        ["gen", "--family", "regular_tree", "--d", "3", "--radius", "2", "-o", "g.json"],
        ["gen", "--family", "windmill", "--blades", "3", "--radius", "2", "-o", "g.json"],
        ["gen", "-o", "g.json", "--family", "random_gnm", "--n", "6", "--m", "7", "--seed", "4"],
        ["gen", "--family", "free_product", "--max-word", "2", "--factors",
         '[{"family":"cycle","n":3},{"family":"cycle","n":4}]', "-o", "g.json"],
    ],
    "forest": [
        ["forest", "g.json", "w.json", "-o", "f.json"],
        ["forest", "g.json", "w.json", "--fixed", "x.json", "--check-witnesses",
         "--tiebreak", "meta", "--output", "f.json"],
        ["forest", "--tiebreak=canonical", "g.json", "-o", "f.json", "w.json"],
    ],
    "collapse": [
        ["collapse", "g.json", "w.json", "-o", "c.json", "--family-out", "fam.json"],
        ["collapse", "g.json", "w.json", "--delta", "3/2", "--smax", "4", "--tiebreak", "meta",
         "--output", "c.json", "--family-out=fam.json"],
    ],
    "analyze": [
        ["analyze", "g.json", "w.json", "-o", "a.json"],
        ["analyze", "g.json", "w.json", "--delta", "0.5", "--smax", "2",
         "--max-basepoints", "7", "--output", "a.json"],
    ],
    "percolate": [
        ["percolate", "g.json", "w.json", "--p-grid", "0.5", "-o", "r.jsonl"],
        ["percolate", "g.json", "w.json", "--p-grid", "0.1,0.9", "--trials", "3", "--seed", "9",
         "--delta", "1/3", "--tau", "7", "--output", "r.jsonl", "--summary", "s.csv"],
    ],
    "rerun": [["rerun", "m.json"]],
}


def _subcommands(parser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", sorted(PARSER_ARGVS))
def test_a_command_parses_as_under_the_full_parser(tmp_path, capsys, monkeypatch, command):
    """The parser `main` builds for one command gives the other commands no
    arguments, yet parses every argv of that command to the Namespace, and
    prints the help, of the parser that gives every command its arguments."""
    monkeypatch.setenv("COLUMNS", "100")
    full, named = build_parser(), build_parser(command)
    assert sorted(_subcommands(full)) == sorted(PARSER_ARGVS)
    flags = {s for a in _subcommands(full)[command]._actions for s in a.option_strings}
    used = {tok.split("=")[0] for argv in PARSER_ARGVS[command] for tok in argv}
    assert flags - {"-h", "--help"} <= used
    for argv in PARSER_ARGVS[command]:
        assert named.parse_args(argv) == full.parse_args(argv), argv
    assert [name for name, sub in _subcommands(named).items()
            if [a.dest for a in sub._actions] != ["help"]] == [command]
    for argv in ([command, "--help"], ["--help"]):
        helps = []
        for parse in (full.parse_args, lambda argv: run(tmp_path, *argv)):
            with pytest.raises(SystemExit) as info:
                parse(argv)
            assert info.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] and helps[0].startswith("usage: wforest"), argv


def test_usage_messages_are_the_full_parsers(tmp_path, capsys):
    """No command, an unknown command, an unknown flag and a missing argument
    are reported in the full parser's words, which are pinned here; an
    unknown command is refused with every command named."""
    cases = [
        ([], "the following arguments are required: command"),
        (["frobnicate", "x"], None),
        (["forest", "g.json", "w.json", "--bogus", "-o", "f.json"],
         "unrecognized arguments: --bogus"),
        (["gen", "--family", "cycle", "--bogus", "3", "-o", "g.json"],
         "unrecognized arguments: --bogus 3"),
        (["collapse", "g.json", "w.json", "--tau", "4", "-o", "c.json", "--family-out", "f"],
         "unrecognized arguments: --tau 4"),
        (["analyze", "g.json"], "the following arguments are required: weights, -o/--output"),
    ]
    for argv, text in cases:
        with pytest.raises(UsageError) as full:
            build_parser().parse_args(argv)
        message = str(full.value)
        assert run(tmp_path, *argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {"error": "UsageError", "message": message}
        if text is None:
            assert "invalid choice: 'frobnicate'" in message
            assert all(name in message for name in PARSER_ARGVS)
        else:
            assert message == text
    assert list(tmp_path.iterdir()) == []


COMMAND_ARGS = {
    "collapse": ("collapse", "g.json", "unit.json", "-o", "out.json",
                 "--family-out", "fam.json"),
    "analyze": ("analyze", "g.json", "unit.json", "-o", "out.json"),
    "percolate": ("percolate", "g.json", "unit.json", "--p-grid", "0.5", "-o", "out.json"),
}


@pytest.mark.parametrize("command, flags", [
    ("collapse", ("--smax", "0")),
    ("collapse", ("--smax", "-1")),
    ("analyze", ("--smax", "0")),
    ("analyze", ("--smax", "-1")),
    ("analyze", ("--max-basepoints", "0")),
    ("analyze", ("--max-basepoints", "-3")),
    ("collapse", ("--delta", "1/0")),
    ("collapse", ("--tau", "1/0")),
    ("analyze", ("--delta", "1/0")),
    ("analyze", ("--tau", "1/0")),
    ("percolate", ("--delta", "1/0")),
    ("percolate", ("--tau", "1/0")),
    ("percolate", ("--p-grid", "")),
    ("percolate", ("--trials", "0")),
    ("percolate", ("--trials", "-2")),
], ids=lambda v: v if isinstance(v, str) else "=".join(v))
def test_out_of_range_flags_exit_2_with_json(tmp_path, capsys, command, flags):
    (tmp_path / "g.json").write_text(to_json(gp_graph(2, 1, 2)))
    (tmp_path / "unit.json").write_text('{"unit":true}')
    assert run(tmp_path, *COMMAND_ARGS[command], *flags) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    error = json.loads(out.err)["error"]
    assert error in ("BadParams", "UsageError")
    if "--tau" in flags and command != "percolate":
        assert error == "UsageError"  # only percolate takes --tau
    assert not (tmp_path / "out.json").exists()


SEEDED = {
    "gen": ("gen", "--family", "random_gnm", "--n", "6", "--m", "7", "-o", "out.json"),
    "percolate": ("percolate", "g.json", "unit.json", "--p-grid", "0.5", "-o", "out.json"),
}


@pytest.mark.parametrize("command", sorted(SEEDED))
@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seeds_outside_64_bits_exit_2_and_write_nothing(tmp_path, capsys, command, seed):
    """The draws read a seed modulo 2**64, so a seed outside 0 <= seed <
    2**64 would repeat another seed's run; it is refused instead."""
    (tmp_path / "g.json").write_text(to_json(gp_graph(2, 1, 2)))
    (tmp_path / "unit.json").write_text('{"unit":true}')
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(tmp_path, *SEEDED[command], "--seed", str(seed)) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert json.loads(out.err) == {"error": "BadParams",
                                   "message": f"seed {seed} is outside 0 <= seed < 2**64"}
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert run(tmp_path, *SEEDED[command], "--seed", str((1 << 64) - 1)) == 0


# --- fuzzing: a valid forest run whose documents get one malformation each

VALID_GRAPH = {
    "vertices": [{"id": 0, "level": 0, "boundary": True}, {"id": 1, "level": 1},
                 {"id": 2, "level": 1}, {"id": 3, "level": 2, "boundary": False}],
    "edges": [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]],
    "meta": {"generator": "hand", "tiebreak": [[1, 2], [0, 1], [0, 2], [1, 3], [2, 3]]},
}
VALID_WEIGHTS = [
    {"unit": True},
    {"levels_from_meta": True, "base_ratio": "1/2"},
    {"potential": {"0": "3/2", "1": 2, "2": 0.5, "3": "1"}},
]
VALID_FIXED = [{"edges": [[0, 1], [2, 3]]}, [[1, 3]]]


def _is_fraction(x):
    try:
        return type(x) in (int, float, str) and Fraction(x) is not None
    except (ValueError, ZeroDivisionError, OverflowError):
        return False


# Each slot kind: the values the format accepts there.  A replacement drawn
# outside that set must be rejected.
ACCEPTS = {
    "object": lambda x: isinstance(x, dict),
    "list": lambda x: isinstance(x, list),
    "id": lambda x: type(x) is int,
    "bool": lambda x: type(x) is bool,
    "pair": lambda x: isinstance(x, list) and len(x) == 2
    and all(type(v) is int for v in x),
    "rational": _is_fraction,
    "fixed": lambda x: isinstance(x, list) or (isinstance(x, dict) and "edges" in x),
}


def _slots(graph, weights, fixed):
    """(container, key, kind, required) for every place a malformation can go;
    a required key's removal is itself a malformation."""
    out = [(graph, "vertices", "list", True), (graph, "edges", "list", True),
           (graph, "meta", "object", False), (graph["meta"], "tiebreak", "list", True)]
    for i, rec in enumerate(graph["vertices"]):
        out += [(graph["vertices"], i, "object", False), (rec, "id", "id", True)]
        out += [(rec, k, kind, False) for k, kind in
                (("level", "id"), ("boundary", "bool")) if k in rec]
    for pairs in (graph["edges"], graph["meta"]["tiebreak"],
                  fixed["edges"] if isinstance(fixed, dict) else fixed):
        for i, pair in enumerate(pairs):
            out += [(pairs, i, "pair", False), (pair, 0, "id", False),
                    (pair, 1, "id", False)]
    if isinstance(fixed, dict):
        out.append((fixed, "edges", "list", True))
    for key in ("unit", "levels_from_meta"):
        if key in weights:
            out.append((weights, key, "bool", True))
    if "base_ratio" in weights:
        out.append((weights, "base_ratio", "rational", False))
    if "potential" in weights:
        out.append((weights, "potential", "object", True))
        out += [(weights["potential"], k, "rational", True) for k in weights["potential"]]
    return out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                               max_size=2),
    max_leaves=4)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_fuzz_malformed_documents_exit_2(data):
    graph = copy.deepcopy(VALID_GRAPH)
    weights = copy.deepcopy(data.draw(st.sampled_from(VALID_WEIGHTS)))
    fixed = copy.deepcopy(data.draw(st.sampled_from(VALID_FIXED)))
    target = data.draw(st.sampled_from(["graph", "weights", "fixed", "slot"]))
    if target == "slot":
        container, key, kind, required = data.draw(st.sampled_from(_slots(graph, weights, fixed)))
        if required and data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(json_values.filter(lambda x: not ACCEPTS[kind](x)))
    else:  # replace a whole document
        kind = "fixed" if target == "fixed" else "object"
        bad = data.draw(json_values.filter(lambda x: not ACCEPTS[kind](x)))
        graph, weights, fixed = (bad if target == name else doc for name, doc in
                                 (("graph", graph), ("weights", weights), ("fixed", fixed)))
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in (("g.json", graph), ("w.json", weights), ("h.json", fixed)):
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(tmp, "forest", "g.json", "w.json", "--fixed", "h.json",
                     "--tiebreak", "meta", "--check-witnesses", "-o", "f.json")
        assert rc == 2, (graph, weights, fixed)
        assert "error" in json.loads(err.getvalue().strip().splitlines()[-1])
        assert not os.path.exists(os.path.join(tmp, "f.json"))


def test_fuzz_baseline_documents_are_valid(tmp_path):
    for weights in VALID_WEIGHTS:
        for fixed in VALID_FIXED:
            (tmp_path / "g.json").write_text(json.dumps(VALID_GRAPH))
            (tmp_path / "w.json").write_text(json.dumps(weights))
            (tmp_path / "h.json").write_text(json.dumps(fixed))
            assert run(tmp_path, "forest", "g.json", "w.json", "--fixed", "h.json",
                       "--tiebreak", "meta", "--check-witnesses", "-o", "f.json") == 0

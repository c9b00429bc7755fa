import json
import os

from wforest.cli import main
from wforest.graph import from_json, to_json
from wforest.generators import cycle, gp_graph


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
    assert g.edges == cycle(3).edges
    assert to_json(g) == (tmp_path / "tri.json").read_text()


def test_gen_gp_matches_library(tmp_path):
    assert run(tmp_path, "gen", "--family", "gp", "--k", "2", "--up", "1",
               "--down", "2", "-o", "gp.json") == 0
    assert (tmp_path / "gp.json").read_text() == to_json(gp_graph(2, 1, 2))


def test_forest_triangle_and_oracle_parity(tmp_path):
    run(tmp_path, "gen", "--family", "cycle", "--n", "3", "-o", "tri.json")
    (tmp_path / "w.json").write_text('{"potential":{"0":"3","1":"2","2":"1"}}')
    assert run(tmp_path, "forest", "tri.json", "w.json", "--check-witnesses",
               "-o", "f1.json") == 0
    doc = json.loads((tmp_path / "f1.json").read_text())
    assert len(doc["deleted"]) == 1
    assert doc["cut_witnesses"]["ok"]
    assert run(tmp_path, "forest", "tri.json", "w.json", "--oracle",
               "-o", "f2.json") == 0
    doc2 = json.loads((tmp_path / "f2.json").read_text())
    assert doc["kept"] == doc2["kept"] and doc["deleted"] == doc2["deleted"]


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
        assert run(tmp_path, "forest", f"g{i}.json", "unit.json", "--oracle",
                   "-o", f"slow{i}.json") == 0
        fast = json.loads((tmp_path / f"fast{i}.json").read_text())
        slow = json.loads((tmp_path / f"slow{i}.json").read_text())
        assert fast["kept"] == slow["kept"]


def test_forest_fixed_flag(tmp_path):
    run(tmp_path, "gen", "--family", "cycle", "--n", "4", "-o", "c4.json")
    (tmp_path / "unit.json").write_text('{"unit":true}')
    (tmp_path / "h.json").write_text('{"edges":[[0,1]]}')
    assert run(tmp_path, "forest", "c4.json", "unit.json", "--fixed", "h.json",
               "-o", "f.json") == 0
    doc = json.loads((tmp_path / "f.json").read_text())
    assert [0, 1] in doc["kept"] and doc["fixed"] == [[0, 1]]


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
    run(tmp_path, "gen", "--family", "cycle", "--n", "4", "-o", "c.json")
    man = json.loads((tmp_path / "c.json.manifest.json").read_text())
    assert man["command"] == "gen"
    assert man["argv"][0] == "gen"
    assert "c.json" in man["outputs"]
    assert man["outputs"]["c.json"].startswith("sha256:")


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


def test_percolate_worker_env_parity(tmp_path, monkeypatch):
    run(tmp_path, "gen", "--family", "lattice_box", "--w", "4", "--h", "4",
        "-o", "b.json")
    run(tmp_path, "gen", "--family", "gp", "--k", "2", "--up", "1", "--down", "2",
        "-o", "gp.json")
    (tmp_path / "unit.json").write_text('{"unit":true}')
    (tmp_path / "levels.json").write_text('{"levels_from_meta":true}')
    # the GP instance sends non-unit Fraction potentials through the pool
    for graph, weights in (("b.json", "unit.json"), ("gp.json", "levels.json")):
        args = ("percolate", graph, weights, "--p-grid", "0.4,0.6",
                "--trials", "2", "--seed", "8")
        monkeypatch.delenv("WFOREST_WORKERS", raising=False)
        assert run(tmp_path, *args, "-o", "serial.jsonl") == 0
        monkeypatch.setenv("WFOREST_WORKERS", "2")
        assert run(tmp_path, *args, "-o", "parallel.jsonl") == 0
        assert (tmp_path / "serial.jsonl").read_text() == \
            (tmp_path / "parallel.jsonl").read_text()

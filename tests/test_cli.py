import json
import subprocess
import sys

import pytest

from polyrigid import build_octahedron
from polyrigid.cli import main
from polyrigid.fileformat import (
    dumps,
    load_framework,
    parse_framework_dict,
    parse_rational,
    serialize_framework,
)
from polyrigid.errors import FrameworkFileError
from polyrigid.norm import preset

from fractions import Fraction


def write(path, data):
    path.write_text(dumps(data))
    return str(path)


def test_parse_rational_forms():
    assert parse_rational("9/10") == Fraction(9, 10)
    assert parse_rational("0.9") == Fraction(9, 10)
    assert parse_rational("-1") == -1
    assert parse_rational(3) == 3
    with pytest.raises(FrameworkFileError):
        parse_rational(0.9)
    with pytest.raises(FrameworkFileError):
        parse_rational("one half")
    assert parse_rational("25e-2") == parse_rational("1e-1000") * 10**1000 / 4 == Fraction(1, 4)
    assert parse_rational(" 1E+1000 ") == 10**1000


@pytest.mark.parametrize("value", ["1e999999", "1e-999999"])
def test_huge_exponents_exit_2_at_load(tmp_path, capsys, value):
    # the value is refused before its power is built, naming its field;
    # it once ran the whole decision and then failed writing the report
    with pytest.raises(FrameworkFileError, match=r"^positions\['b'\]: .*exponent beyond"):
        parse_rational(value, "positions['b']")
    with pytest.raises(FrameworkFileError, match="exponent beyond"):
        parse_rational("1e1" + "0" * 9999)  # a long exponent is not read in full
    doc = {"dim": 2, "norm": "linf", "vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
           "positions": {"a": ["0", "0"], "b": [value, "1/3"], "c": ["1", "2"]}}
    path, out = write(tmp_path / "huge.json", doc), tmp_path / "report.json"
    for command in ("global", "analyze"):
        capsys.readouterr()
        assert run_cli(command, path, "--out", str(out)) == 2
        _, err = capsys.readouterr()
        assert err.startswith(f"error: positions['b']: invalid rational {value!r}") and err.count("\n") == 1
    assert not out.exists()


def test_round_trip_byte_identity(tmp_path):
    doc = serialize_framework(build_octahedron())
    text1 = dumps(doc)
    fw = parse_framework_dict(json.loads(text1))
    text2 = dumps(serialize_framework(fw))
    assert text1 == text2


def test_decimal_positions_parse_exactly(tmp_path):
    doc = serialize_framework(build_octahedron())
    doc["positions"]["v-1"] = ["0", "0.9"]  # decimal convenience form
    fw = parse_framework_dict(doc)
    assert fw.position("v-1") == (0, Fraction(9, 10))
    # serializer always emits fractions
    again = serialize_framework(fw)
    assert again["positions"]["v-1"] == ["0", "9/10"]


def test_custom_norm_round_trip():
    doc = {
        "dim": 2,
        "norm": {"faces": [["1", "0"], ["-1", "0"], ["1", "1"], ["-1", "-1"]]},
        "vertices": ["a", "b"],
        "edges": [["a", "b"]],
        "positions": {"a": ["0", "0"], "b": ["1", "1/3"]},
    }
    fw = parse_framework_dict(doc)
    assert len(fw.norm.faces) == 4
    out = serialize_framework(fw)
    assert out["norm"] == {"faces": [["1", "0"], ["-1", "0"], ["1", "1"], ["-1", "-1"]]}


def test_loader_shares_one_norm_per_preset(tmp_path):
    doc = serialize_framework(build_octahedron())
    first = load_framework(write(tmp_path / "a.json", doc))
    doc["positions"]["v1"] = ["5", "7/2"]
    second = load_framework(write(tmp_path / "b.json", doc))
    assert first.norm is second.norm
    l1_doc = dict(doc, norm="l1")
    l1_norm = load_framework(write(tmp_path / "c.json", l1_doc)).norm
    assert l1_norm is not first.norm
    for norm, kind in ((first.norm, "linf"), (l1_norm, "l1")):
        assert norm.face_permutations() == preset(kind, 2).face_permutations()
    # the library constructor still returns a fresh norm on every call
    assert preset("linf", 2) is not preset("linf", 2)


def test_invalid_custom_norm_fails_on_every_load(tmp_path):
    doc = serialize_framework(build_octahedron())
    doc["norm"] = {"faces": [["1", "0"], ["-1", "0"], ["0", "1"]]}  # not symmetric
    path = write(tmp_path / "bad.json", doc)
    for _ in range(2):
        with pytest.raises(FrameworkFileError, match="norm.faces"):
            load_framework(path)


SQUARE = [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]
BAD_FACES = {
    "duplicate": SQUARE + [["1", "0"]],
    "zero": SQUARE + [["0", "0"]],
    "unmatched": SQUARE[:3],
    "not spanning": SQUARE[:2],
    "empty": [],
    "redundant": SQUARE + [["1/2", "1/2"], ["-1/2", "-1/2"]],
    "wrong length": SQUARE[:2] + [["0", "1", "0"], ["0", "-1", "0"]],
}


@pytest.mark.parametrize("faces", BAD_FACES.values(), ids=BAD_FACES.keys())
def test_each_invalid_custom_norm_is_a_file_error(tmp_path, capsys, faces):
    # the norm's own validation errors become file errors naming the field,
    # and the command exits 2 with one error line
    doc = serialize_framework(build_octahedron())
    doc["norm"] = {"faces": faces}
    path = write(tmp_path / "bad.json", doc)
    with pytest.raises(FrameworkFileError, match=r"^norm\.faces: "):
        load_framework(path)
    capsys.readouterr()
    assert main(["analyze", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: norm.faces: ") and err.count("\n") == 1


def test_asymmetric_rational_norm_fails_global(tmp_path, capsys):
    # the symmetry check runs on integer faces; the error names the face
    doc = serialize_framework(build_octahedron())
    doc["norm"] = {"faces": [["1/2", "0"], ["-1/2", "0"], ["0", "1/3"], ["0", "-2/3"]]}
    path = write(tmp_path / "skew.json", doc)
    capsys.readouterr()
    assert main(["global", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: norm.faces: face set is not centrally symmetric: (Fraction(0, 1), Fraction(1, 3)) unmatched\n"


def test_norm_programming_errors_are_not_file_errors(tmp_path, monkeypatch):
    # only the package's own errors are a bad file; anything else propagates
    import polyrigid.fileformat as ff

    def broken(dim, faces):
        raise TypeError("a bug, not a bad file")

    monkeypatch.setattr(ff, "PolytopeNorm", broken)
    doc = serialize_framework(build_octahedron())
    doc["norm"] = {"faces": SQUARE}
    with pytest.raises(TypeError, match="a bug"):
        load_framework(write(tmp_path / "square.json", doc))


def test_parse_errors_are_diagnostic(tmp_path, capsys):
    with pytest.raises(FrameworkFileError, match="missing field"):
        parse_framework_dict({"dim": 2})
    with pytest.raises(FrameworkFileError, match="positions"):
        parse_framework_dict(
            {
                "dim": 2,
                "norm": "linf",
                "vertices": ["a"],
                "edges": [],
                "positions": {},
            }
        )
    # malformed shapes: each names its field, and no command reads a string
    # as a list of its characters or true as 1
    good = {"dim": 2, "norm": "linf", "vertices": ["a", "b"], "edges": [["a", "b"]],
            "positions": {"a": ["0", "0"], "b": ["1", "1/3"]}}
    faces = [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]
    shapes = [
        ({"positions": [["0", "0"], ["1", "1/3"]]}, r"^positions: "),
        ({"positions": {"a": 5, "b": ["1", "1/3"]}}, r"^positions\['a'\]: "),
        ({"norm": {"faces": 5}}, r"^norm\.faces: "),
        ({"norm": {"faces": faces[:3] + [5]}}, r"^norm\.faces\[3\]: "),
        ({"positions": {"a": "12", "b": ["1", "1/3"]}}, r"^positions\['a'\]: "),
        ({"edges": ["ab"]}, r"^edges\[0\]: "),
        ({"edges": [["a", "b"], ["a", "b", "c"]]}, r"^edges\[1\]: "),
        ({"vertices": []}, r"^vertices: "),
        ({"vertices": ["a", "b", "a"]}, r"^vertices: duplicate identifier 'a'$"),
        ({"edges": [["a", "z"]]}, r"^edges\[0\]: unknown vertex 'z'$"),
        ({"edges": [["a", "b"], ["a", "a"]]}, r"^edges\[1\]: self-loop at 'a'$"),
        ({"edges": [[["a"], "b"]]}, r"^edges\[0\]: unknown vertex \['a'\]$"),
        ({"dim": True}, r"^dim: "),
        ({"positions": {"a": [True, "0"], "b": ["1", "1/3"]}}, r"^positions\['a'\]: "),
    ]
    for fields, where in shapes:
        doc = dict(good, **fields)
        with pytest.raises(FrameworkFileError, match=where):
            parse_framework_dict(doc)
        path = write(tmp_path / "bad.json", doc)
        for argv in (["analyze", path], ["global", path], ["sparsity", path, "--d", "2", "--k", "2"]):
            capsys.readouterr()
            assert run_cli(*argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert parse_framework_dict(dict(good, norm={"faces": faces})).norm.faces == preset("linf", 2).faces
    path = write(tmp_path / "bad.json", 5)
    for argv in (["analyze", path], ["sparsity", path, "--d", "2", "--k", "2"]):
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {path}: expected a dict, got int\n"


def run_cli(*argv):
    return main(list(argv))


def test_cli_generate_analyze_octahedron(tmp_path, capsys):
    path = tmp_path / "oct.json"
    assert run_cli("generate", "octahedron", "--out", str(path)) == 0
    report_path = tmp_path / "report.json"
    assert run_cli("analyze", str(path), "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    res = report["results"]
    assert res["well_positioned"] is True
    assert res["rank"] == 10
    assert res["infinitesimally_rigid"] is True
    assert res["redundantly_rigid"] is True
    assert all(c["two_connected"] for c in res["monochromatic_classes"])


def test_cli_generate_round_trip_is_byte_identical(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    run_cli("generate", "k2d", "--d", "3", "--out", str(p1))
    fw = load_framework(str(p1))
    p2.write_text(dumps(serialize_framework(fw)))
    assert p1.read_text() == p2.read_text()


def test_cli_analyze_hypercube_not_well_positioned(tmp_path):
    path = tmp_path / "cube.json"
    run_cli("generate", "hypercube", "--d", "2", "--out", str(path))
    report_path = tmp_path / "report.json"
    assert run_cli("analyze", str(path), "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert report["results"]["well_positioned"] is False


def test_cli_global_k4_witness(tmp_path):
    fw_path = tmp_path / "k4.json"
    # seed 74 gives a rigid K4 (checked in the engine tests)
    run_cli(
        "generate", "random", "--n", "4", "--d", "2", "--seed", "74",
        "--denominator-bound", "100", "--out", str(fw_path),
    )
    report_path = tmp_path / "report.json"
    assert run_cli("global", str(fw_path), "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    exact = report["results"]["exact"]
    if exact["outcome"] == "NotRigid":
        pytest.skip("seed produced a flexible realisation")
    assert exact["outcome"] == "NotGloballyRigid"
    assert "witness_positions" in exact
    # report embeds the resolved input: re-running from it reproduces the verdict
    fw = parse_framework_dict(report["input"])
    from polyrigid import decide_global_rigidity

    assert decide_global_rigidity(fw).outcome == "NotGloballyRigid"


def test_cli_global_budget_strict_exit_code(tmp_path):
    fw_path = tmp_path / "k5.json"
    run_cli(
        "generate", "random", "--n", "5", "--d", "2", "--seed", "12",
        "--denominator-bound", "100", "--out", str(fw_path),
    )
    report_path = tmp_path / "r.json"
    code = run_cli(
        "global", str(fw_path), "--budget", "5", "--strict", "--out", str(report_path)
    )
    report = json.loads(report_path.read_text())
    if report["results"]["exact"]["outcome"] == "BudgetExceeded":
        assert code == 3
    else:
        assert code == 0  # flexible instances decide before spending budget


def test_strict_exits_3_only_on_an_exceeded_budget(tmp_path):
    # the octahedron's search needs far more than 5 colourings
    fw_path = tmp_path / "oct.json"
    assert run_cli("generate", "octahedron", "--out", str(fw_path)) == 0
    for i, (extra, code, outcome) in enumerate((
        (["--strict"], 3, "BudgetExceeded"),
        ([], 0, "BudgetExceeded"),
        (["--assume-generic", "--strict"], 0, None),
    )):
        report_path = tmp_path / f"r{i}.json"
        assert run_cli("global", str(fw_path), "--budget", "5", *extra, "--out", str(report_path)) == code
        exact = json.loads(report_path.read_text())["results"]["exact"]
        assert (exact and exact["outcome"]) == outcome


@pytest.mark.parametrize("argv", [["generate", "nosuch"], ["nosuch", "file.json"]])
def test_unknown_command_or_generator_is_an_argparse_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: polyrigid") and "invalid choice: 'nosuch'" in err


def test_every_command_dispatches_through_its_parser():
    # main has no per-command branch: each subparser names its handler,
    # and --out is each one's last option
    import argparse

    from polyrigid import cli

    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"analyze", "global", "sparsity", "generate", "witness"}
    for name, parser in sub.choices.items():
        assert parser.get_default("run") is getattr(cli, f"cmd_{name}")
        assert parser._actions[-1].option_strings == ["--out"]


def test_cli_global_assume_generic(tmp_path):
    fw_path = tmp_path / "oct.json"
    run_cli("generate", "octahedron", "--out", str(fw_path))
    report_path = tmp_path / "r.json"
    assert run_cli("global", str(fw_path), "--assume-generic", "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert report["results"]["exact"] is None
    paths = report["results"]["fast_paths"]
    assert any(p["holds"] for p in paths)


def test_cli_sparsity(tmp_path):
    graph_doc = {
        "vertices": ["a", "b", "c", "d", "e"],
        "edges": [
            [a, b]
            for i, a in enumerate(["a", "b", "c", "d", "e"])
            for b in ["a", "b", "c", "d", "e"][i + 1:]
        ],
    }
    path = write(tmp_path / "k5.json", graph_doc)
    report_path = tmp_path / "r.json"
    assert run_cli("sparsity", path, "--d", "2", "--k", "2", "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    res = report["results"]
    assert res["rank"] == 8
    assert res["Mdd_connected"] is True
    assert all(res["edge_in_some_circuit"].values())


def test_cli_witness_path(tmp_path):
    doc = {
        "dim": 1,
        "norm": "linf",
        "vertices": ["v0", "v1", "v2"],
        "edges": [["v0", "v1"], ["v1", "v2"]],
        "positions": {"v0": ["0"], "v1": ["1"], "v2": ["3"]},
    }
    path = write(tmp_path / "path.json", doc)
    report_path = tmp_path / "r.json"
    assert run_cli("witness", path, "--restarts", "50", "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert report["results"]["witness_found"] is True


@pytest.mark.parametrize("flag, field, value", [("--restarts", "restarts", "-3"), ("--steps", "steps", "-5")])
def test_cli_witness_negative_count_is_a_usage_error(tmp_path, capsys, flag, field, value):
    path = tmp_path / "oct.json"
    assert run_cli("generate", "octahedron", "--out", str(path)) == 0
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run_cli("witness", str(path), flag, value, "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"error: {field} must be at least 0, got {value}\n")
    assert not out.exists()


def test_cli_witness_beyond_float_range_is_a_usage_error(tmp_path, capsys):
    # the exact commands take any rational; the float search names the
    # value it cannot use: a coordinate, a length whose ends both fit, or
    # the largest value where every length fits but the start box (2.5
    # times the longest) or the sum of squared lengths does not
    far = {"dim": 1, "norm": "linf", "vertices": ["a", "b"], "edges": [["a", "b"]], "positions": {"a": ["0"], "b": ["1e400"]}}
    wide = dict(far, vertices=["a", "b", "c"], edges=[["a", "b"], ["b", "c"]],
                positions={"a": ["0"], "b": ["1e308"], "c": ["-1e308"]})
    k3 = dict(wide, edges=[["a", "b"], ["b", "c"], ["a", "c"]], positions={"a": ["0"], "b": ["1e308"], "c": ["5e307"]})
    squares = dict(k3, positions={"a": ["0"], "b": ["1e200"], "c": ["5e199"]})
    out = str(tmp_path / "r.json")
    for doc, value in ((far, "1" + "0" * 400), (wide, "2" + "0" * 308), (k3, "1" + "0" * 308), (squares, "1" + "0" * 200)):
        path = write(tmp_path / "far.json", doc)
        assert run_cli("analyze", path, "--out", out) == run_cli("global", path, "--out", out) == 0
        capsys.readouterr()
        assert run_cli("witness", path, "--restarts", "2", "--out", out) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith(f"error: value {value} ") and err.count("\n") == 1


def test_cli_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("analyze", str(bad)) == 2
    missing_field = write(tmp_path / "m.json", {"dim": 2})
    assert run_cli("analyze", missing_field) == 2


def test_cli_np_gadget_generate(tmp_path):
    seed_doc = {
        "dim": 1,
        "norm": "linf",
        "vertices": ["v0", "v1", "v2"],
        "edges": [["v0", "v1"], ["v1", "v2"], ["v0", "v2"]],
        "positions": {"v0": ["0"], "v1": ["1/3"], "v2": ["1"]},
    }
    seed_path = write(tmp_path / "k3.json", seed_doc)
    out_path = tmp_path / "gadget.json"
    assert run_cli(
        "generate", "np-gadget", "--seed-file", seed_path, "--d", "2",
        "--out", str(out_path),
    ) == 0
    gadget = json.loads(out_path.read_text())
    assert len(gadget["vertices"]) == 7
    assert len(gadget["edges"]) == 19


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "polyrigid.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "polyrigid" in proc.stdout


def test_cli_generate_flexible_and_random(tmp_path):
    flex_path = tmp_path / "flex.json"
    assert run_cli(
        "generate", "flexible", "--n", "4", "--d", "2", "--norm", "l1",
        "--out", str(flex_path),
    ) == 0
    report_path = tmp_path / "r.json"
    assert run_cli("analyze", str(flex_path), "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert report["results"]["well_positioned"] is True
    assert report["results"]["infinitesimally_rigid"] is False

    rand_path = tmp_path / "rand.json"
    assert run_cli(
        "generate", "random", "--n", "3", "--d", "2", "--seed", "5",
        "--out", str(rand_path),
    ) == 0
    again = tmp_path / "rand2.json"
    assert run_cli(
        "generate", "random", "--n", "3", "--d", "2", "--seed", "5",
        "--out", str(again),
    ) == 0
    assert rand_path.read_text() == again.read_text()


@pytest.mark.parametrize("kind", ["random", "flexible"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_cli_generate_without_vertices_is_a_usage_error(tmp_path, capsys, kind, n):
    out = tmp_path / "k.json"
    assert run_cli("generate", kind, "--n", n, "--d", "2", "--out", str(out)) == 2
    _, err = capsys.readouterr()
    assert err == f"error: --n must be at least 1, got {n}\n"
    assert not out.exists()


def edge_tables_computed(argv):
    """How many edge tables ``main(argv)`` computes: the calls of
    ``framework.edge_table``, under every name the package binds it to,
    that find the framework's table not yet filled."""
    from polyrigid import framework

    real, computed = framework.edge_table, []

    def counting(fw):
        if getattr(fw, "_table", None) is None:
            computed.append(fw)
        return real(fw)

    with pytest.MonkeyPatch.context() as m:
        for name, module in list(sys.modules.items()):
            if name.startswith("polyrigid") and getattr(module, "edge_table", None) is real:
                m.setattr(module, "edge_table", counting)
        assert main(argv) == 0
    return len(computed)


def test_each_framework_computes_its_edge_table_once(tmp_path):
    # analyze reads one framework; global reads the input (the search
    # permutes its rows) and, when it finds one, the witness
    from pathlib import Path

    golden = Path(__file__).parent / "data" / "golden"
    out = str(tmp_path / "r.json")
    octahedron, k4 = str(golden / "octahedron.json"), str(golden / "linf_k4_s125.json")
    assert edge_tables_computed(["analyze", octahedron, "--out", out]) == 1
    assert edge_tables_computed(["global", octahedron, "--budget", "500", "--out", out]) == 1
    assert edge_tables_computed(["global", k4, "--out", out]) == 2


def test_analyze_eliminates_the_induced_rows_once(tmp_path, monkeypatch):
    # rank and redundant rigidity come from one tagged elimination; the
    # octahedron has |E| = 12 > d|V| - d = 10, so redundancy needs one
    from pathlib import Path

    from polyrigid import framework

    calls = []
    real = framework._elimination

    def counting(fw, faces):
        calls.append(fw)
        return real(fw, faces)

    monkeypatch.setattr(framework, "_elimination", counting)
    octahedron = Path(__file__).parent / "data" / "golden" / "octahedron.json"
    out = tmp_path / "r.json"
    assert main(["analyze", str(octahedron), "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    assert (results["rank"], results["redundantly_rigid"]) == (10, True)
    assert len(calls) == 1


def test_global_ranks_once(tmp_path, monkeypatch):
    # the planar route reads the exact verdict's rank: one elimination per
    # report, and one more for the octahedron's strong-colouring
    # redundancy check; --assume-generic has no verdict and ranks itself
    from pathlib import Path

    from polyrigid import framework

    calls = []
    real = framework._elimination

    def counting(fw, faces):
        calls.append(fw)
        return real(fw, faces)

    monkeypatch.setattr(framework, "_elimination", counting)
    counts = {}
    for path in sorted((Path(__file__).parent / "data" / "golden").glob("*.json")):
        if "." not in path.stem:
            for extra in ([], ["--assume-generic"]):
                calls.clear()
                assert main(["global", str(path), *extra, "--out", str(tmp_path / "r.json")]) == 0
                counts[path.stem, bool(extra)] = len(calls)
    expected = {key: 1 for key in counts}
    expected["octahedron", False] = expected["octahedron", True] = 2
    assert len(counts) == 22 and counts == expected


def test_positions_are_checked_before_the_norm(tmp_path, monkeypatch, capsys):
    # a dim that disagrees with the positions is reported before the norm
    # is built: a d = 7 l1 preset's checks do not finish in a minute
    import polyrigid.fileformat as ff

    def unreachable(spec, dim):
        raise AssertionError("the norm was built before the positions were checked")

    monkeypatch.setattr(ff, "parse_norm", unreachable)
    doc = {"dim": 7, "norm": "l1", "vertices": ["a", "b"], "edges": [["a", "b"]],
           "positions": {"a": ["0", "0"], "b": ["1", "2"]}}
    assert run_cli("analyze", write(tmp_path / "dim.json", doc)) == 2
    assert capsys.readouterr().err == "error: positions['a']: expected 7 coordinates, got 2\n"


def test_cli_generate_k2d_eps(tmp_path):
    out = tmp_path / "k2d.json"
    assert run_cli("generate", "k2d", "--d", "2", "--eps", "1/3", "--out", str(out)) == 0
    fw = load_framework(str(out))
    assert fw.position("1") == (1, Fraction(1, 3))
    assert run_cli("generate", "k2d", "--d", "2", "--eps", "2/3", "--out", str(out)) == 2


@pytest.mark.parametrize("eps", ["abc", "1/0"])
def test_cli_generate_k2d_bad_eps_is_a_usage_error(capsys, eps):
    assert run_cli("generate", "k2d", "--eps", eps) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: --eps: invalid rational {eps!r}") and err.count("\n") == 1


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    fw_path = tmp_path / "oct.json"
    assert run_cli("generate", "octahedron", "--out", str(fw_path)) == 0
    for argv in (["generate", "octahedron"], ["analyze", str(fw_path)]):
        capsys.readouterr()
        assert run_cli(*argv, "--out", str(missing)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot write {missing}: ") and err.count("\n") == 1
    assert not missing.parent.exists()


def test_cli_np_gadget_requires_seed_file():
    assert run_cli("generate", "np-gadget", "--d", "2") == 2


def global_meta(tmp_path, fw_path):
    report_path = tmp_path / "g.json"
    assert run_cli("global", str(fw_path), "--assume-generic", "--out", str(report_path)) == 0
    return json.loads(report_path.read_text())["meta"]


def test_negative_budget_is_a_usage_error(tmp_path, capsys):
    fw_path = tmp_path / "oct.json"
    assert run_cli("generate", "octahedron", "--out", str(fw_path)) == 0
    capsys.readouterr()
    assert run_cli("global", str(fw_path), "--budget", "-1") == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: --budget must be at least 0, got -1\n")


def test_global_has_no_worker_setting(monkeypatch, tmp_path, capsys):
    # the search is serial: --threads is an unknown flag, and
    # POLYRIGID_THREADS is not read
    fw_path = tmp_path / "oct.json"
    assert run_cli("generate", "octahedron", "--out", str(fw_path)) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli("global", str(fw_path), "--threads", "2")
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    monkeypatch.setenv("POLYRIGID_THREADS", "abc")
    assert global_meta(tmp_path, fw_path) == {"budget": None, "assume_generic": True, "strict": False}


def test_edgeless_linf_frameworks_get_reports(tmp_path):
    # the colour classes are read off the dimension, not the first edge:
    # d empty classes, and an exact verdict from the rank
    one = {"dim": 2, "norm": "linf", "vertices": ["a"], "edges": [], "positions": {"a": ["0", "0"]}}
    two = dict(one, vertices=["a", "b"], positions={"a": ["0", "0"], "b": ["1", "2"]})
    for doc, outcome in ((one, "GloballyRigid"), (two, "NotRigid")):
        path, out = write(tmp_path / "fw.json", doc), tmp_path / "r.json"
        assert run_cli("analyze", path, "--out", str(out)) == 0
        classes = json.loads(out.read_text())["results"]["monochromatic_classes"]
        assert [c["edges"] for c in classes] == [[], []]
        assert run_cli("global", path, "--out", str(out)) == 0
        assert json.loads(out.read_text())["results"]["exact"]["outcome"] == outcome
    # one vertex: the planar characterisation agrees with the exact verdict
    for kind in ("linf", "l1"):
        path, out = write(tmp_path / "fw.json", dict(one, norm=kind)), tmp_path / "r.json"
        assert run_cli("global", path, "--out", str(out)) == 0
        results = json.loads(out.read_text())["results"]
        planar = [p for p in results["fast_paths"] if p["criterion"].startswith("planar")]
        assert [p["generic_verdict"] for p in planar] == ["GloballyRigid"]
        assert results["exact"]["outcome"] == "GloballyRigid"


def test_budget_zero_cuts_at_the_first_colouring(tmp_path):
    fw_path = tmp_path / "oct.json"
    report_path = tmp_path / "r.json"
    assert run_cli("generate", "octahedron", "--out", str(fw_path)) == 0
    assert run_cli("global", str(fw_path), "--budget", "0", "--out", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    exact = report["results"]["exact"]
    assert exact["outcome"] == "BudgetExceeded"
    assert exact["certificate"]["colourings_examined"] == 1
    assert report["meta"]["budget"] == 0

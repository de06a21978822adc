import copy
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

import posetahedra
from posetahedra import cli, corpus, serialize
from posetahedra.affine import realize_affine_cyclohedron
from posetahedra.cli import main
from posetahedra.compact import stratum_point
from posetahedra.errors import SchemaError
from posetahedra.geometry import order_polytope, realize_poset_associahedron
from posetahedra.lattice import associahedron_face_lattice, is_flag_dual
from posetahedra.rational import frac, format_rational, parse_rational
from posetahedra.serialize import (
    affine_poset_from_json,
    affine_poset_to_json,
    config_point_from_json,
    config_point_to_json,
    polytope_from_json,
    polytope_to_json,
    polytope_to_off,
    poset_from_json,
    poset_to_json,
    ratio_report_to_json,
)
from posetahedra.tubes import Tubing

from strategies import SETTINGS


class TestRationals:
    def test_format(self):
        assert format_rational(F(-1, 2)) == "-1/2"
        assert format_rational(F(3)) == "3/1"

    def test_parse_roundtrip(self):
        for s in ("-1/2", "3/1", "0/1", "22/7"):
            assert format_rational(parse_rational(s)) == s
        assert parse_rational("5") == F(5)

    def test_zero_denominator_is_a_value_error(self):
        for parse in (parse_rational, frac):
            with pytest.raises(ValueError, match="1/0"):
                parse("1/0")

    @pytest.mark.parametrize("text", ["1e3", "2.5E-1", "1e999999999", " -1e7 "])
    def test_exponent_is_a_value_error(self, text):
        """10^k would take time and memory linear in k, so no exponent is
        read; the message names the text."""
        for parse in (parse_rational, frac):
            with pytest.raises(ValueError, match=re.escape(repr(text))):
                parse(text)


class TestJsonRoundTrips:
    def test_poset(self, w5):
        assert poset_from_json(poset_to_json(w5)) == w5

    def test_affine_poset(self):
        A = corpus.circular_claw(3)
        B = affine_poset_from_json(affine_poset_to_json(A))
        assert B.n == A.n and B.minshift == A.minshift

    def test_polytope_exact(self, c4):
        Q = realize_poset_associahedron(c4).primal
        data = polytope_to_json(Q)
        back = polytope_from_json(data)
        assert back.vertices == Q.vertices
        assert [f.normal for f in back.facets] == [f.normal for f in Q.facets]
        assert [f.offset for f in back.facets] == [f.offset for f in Q.facets]
        assert back.incidence == Q.incidence

    def test_polytope_facet_tubes(self, c4):
        data = polytope_to_json(realize_poset_associahedron(c4).primal)
        tubes = sorted(tuple(f["tube"]) for f in data["facets"])
        assert tubes == [(1, 2), (1, 2, 3), (2, 3), (2, 3, 4), (3, 4)]

    @pytest.mark.parametrize("name", ["chain4", "cclaw3", "w5-order"])
    def test_polytope_export_is_a_fixed_point(self, name):
        """Import then export gives back every key, facet tubes and vertex
        labels included."""
        Q = {"chain4": lambda: realize_poset_associahedron(corpus.chain(4)).primal,
             "cclaw3": lambda: realize_affine_cyclohedron(corpus.circular_claw(3)).primal,
             "w5-order": lambda: order_polytope(corpus.DESK_POSETS["w5"])}[name]()
        data = polytope_to_json(Q)
        assert "vertex_labels" in data
        again = polytope_to_json(polytope_from_json(copy.deepcopy(data)))
        assert serialize.dumps(again) == serialize.dumps(data)

    def test_vertex_labels_must_match_the_vertices(self, c4):
        data = polytope_to_json(realize_poset_associahedron(c4).primal)
        data["vertex_labels"].pop()
        with pytest.raises(ValueError, match="4 vertex labels for 5 vertices"):
            polytope_from_json(data)
        data["vertex_labels"] = [5] * 5
        with pytest.raises(SchemaError, match=r"\$.vertex_labels\[0\]: 5 is not of type 'array'"):
            polytope_from_json(data)

    def test_config_point(self, c4):
        point = stratum_point(c4, Tubing.of(c4, [(1, 2)]))
        data = config_point_to_json(point)
        assert data["tubes"]["1,2"] == ["-1/2", "1/2"]
        back = config_point_from_json(c4, data)
        assert back == point

    def test_malformed_rational_is_refused(self, c4, monkeypatch):
        Q = realize_poset_associahedron(c4).primal
        data = polytope_to_json(Q)
        data["vertices"][0][0] = "1/0"
        with pytest.raises(SchemaError, match="'1/0' does not match"):
            polytope_from_json(data)
        monkeypatch.setattr(serialize, "format_rational", lambda x: "0.5")
        with pytest.raises(SchemaError, match="'0.5' does not match"):
            polytope_to_json(Q)

    def test_ratio_report_serializes(self):
        from posetahedra.compact import ratio_counterexample_demo

        payload = ratio_report_to_json(ratio_counterexample_demo())
        text = json.dumps(payload)
        assert "ratio_gap" in payload and len(payload["curves"]) == 2
        json.loads(text)


def _exports():
    """One real export (for a tubing, the CLI's input) per schema, as
    ``(schema name, data)``."""
    c4 = corpus.chain(4)
    point = stratum_point(c4, Tubing.of(c4, [(1, 2)]))
    return [("poset", poset_to_json(corpus.DESK_POSETS["w5"])),
            ("affine poset", affine_poset_to_json(corpus.circular_claw(3))),
            ("polytope", polytope_to_json(realize_poset_associahedron(c4).primal)),
            ("polytope", polytope_to_json(
                realize_affine_cyclohedron(corpus.circular_claw(3)).primal)),
            ("configuration point", config_point_to_json(point)),
            ("tube", [1, 2]), ("tubing", [[1, 2], [1, 2, 3]])]


EXPORTS = _exports()

# JSON-like values, biased towards the schemas' own keys, rationals and tube keys
# so that random values get past the top level.
KEYS = st.sampled_from(["covers", "n", "chart_dim", "vertices", "facets", "normal", "offset",
                        "tube", "vertex_labels", "tubes", "1,2", "-3,4", "1,", "1,2\n"])
SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats()
           | st.fractions().map(format_rational)
           | st.sampled_from([1.0, -1.0, 0.0, "1/2", "-3/1", "1/0", "0.5", "1/2\n", "x1/2"])
           | st.text(max_size=4))
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(KEYS | st.text(max_size=3), inner, max_size=4),
                      max_leaves=12)
CORNERS = [
    {"covers": [[1.0, 2]]}, {"covers": [[True, 2]]}, {"covers": [(1, 2)]}, ({"covers": []},),
    {"covers": [[1, 2, 3]]}, {"covers": [[1]]}, {"covers": []}, {"covers": [], "x": 1}, {},
    {"n": 1.0, "covers": []}, {"n": 0, "covers": []}, {"n": -1.0, "covers": []},
    {"n": True, "covers": []}, {"n": 1.5, "covers": []}, {"n": float("nan"), "covers": []},
    {"chart_dim": 0, "vertices": [["1/2\n"]], "facets": []},
    {"chart_dim": 0, "vertices": [("1/2",)], "facets": []},
    {"chart_dim": 0, "vertices": [], "facets": [{"normal": [], "offset": "1/0"}]},
    {"chart_dim": 0, "vertices": [], "facets": [{"normal": [], "offset": "0/1", "x": 1}]},
    {"chart_dim": 0, "vertices": [], "facets": [], "vertex_labels": (1,), "x": 1},
    {"tubes": {"1,2": ["1/2\n"]}}, {"tubes": {"1,2\n": []}}, {"tubes": {"1,": []}},
    {"tubes": {"1,2": ("1/2",)}}, {"tubes": {}, "covers": []}, None, True, [], "covers",
]


def _verdict(name, data) -> bool:
    try:
        serialize._validate(data, name)
    except SchemaError:
        return False
    return True


def _oracle(name, data) -> bool:
    schema = serialize.SCHEMAS[name]
    return jsonschema.validators.validator_for(schema)(schema).is_valid(data)


def _sites(data, path=()):
    """Each leaf of ``data`` as ``(path, False)``, each object key as ``(path, True)``."""
    items = list(data.items() if isinstance(data, dict) else
                 enumerate(data) if isinstance(data, list) else ())
    if not items:
        yield path, False
    for key, value in items:
        if isinstance(data, dict):
            yield path + (key,), True
        yield from _sites(value, path + (key,))


class TestSchemaCheck:
    """The in-house schema check gives jsonschema's verdict on every instance."""

    @pytest.mark.parametrize("name", list(serialize.SCHEMAS))
    @SETTINGS
    @given(values=st.lists(VALUES, min_size=1, max_size=8))
    def test_random_values(self, name, values):
        for data in values:
            assert _verdict(name, data) == _oracle(name, data), data

    @pytest.mark.parametrize("k", range(len(EXPORTS)))
    @SETTINGS
    @given(data=st.data())
    def test_single_mutations_of_real_exports(self, k, data):
        """Replace one leaf, or rename one object key, of a valid export."""
        name, export = EXPORTS[k]
        assert _verdict(name, export) and _oracle(name, export)
        sites = list(_sites(export))
        for _ in range(8):
            path, is_key = data.draw(st.sampled_from(sites))
            mutant = copy.deepcopy(export)
            node = mutant
            for step in path[:-1]:
                node = node[step]
            if is_key:
                node[data.draw(KEYS | st.text(max_size=3))] = node.pop(path[-1])
            else:
                node[path[-1]] = data.draw(SCALARS | VALUES)
            assert _verdict(name, mutant) == _oracle(name, mutant), (path, mutant)

    @pytest.mark.parametrize("name", list(serialize.SCHEMAS))
    def test_corner_cases(self, name):
        for data in CORNERS:
            assert _verdict(name, data) == _oracle(name, data), data

    def test_draft_2020_12_types_and_search(self):
        assert _verdict("poset", {"covers": [[1.0, 2]]})
        assert not _verdict("poset", {"covers": [[True, 2]]})
        assert not _verdict("poset", {"covers": [(1, 2)]})
        assert _verdict("configuration point", {"tubes": {"1,2": ["1/2\n"]}})

    def test_error_names_the_path(self):
        with pytest.raises(SchemaError) as info:
            serialize._validate({"tubes": {"1,2": ["1/2", 3]}}, "configuration point")
        assert str(info.value) == "$.tubes.1,2[1]: 3 is not of type 'string'"

    @pytest.mark.parametrize("schema", [
        {"type": "integer", "enum": [1]},
        {"type": "object", "properties": {"n": {"type": "integer", "multipleOf": 2}}},
        {"type": "array", "items": {"type": "number"}},
        {"type": "object", "additionalProperties": {"type": "string"}},
    ], ids=["enum", "nested multipleOf", "type number", "additionalProperties schema"])
    def test_unhandled_keyword_is_refused(self, schema):
        with pytest.raises(ValueError, match="not handled"):
            serialize._compile(schema)


class TestOff:
    def test_pentagon_off(self, c4):
        Q = realize_poset_associahedron(c4).primal
        off = polytope_to_off(Q, precision=6)
        lines = off.splitlines()
        assert lines[0] == "OFF"
        assert "approximate" in lines[1]
        assert lines[2] == "5 1 0"
        assert len(lines) == 3 + 5 + 1

    def test_w5_off_faces(self, w5):
        Q = realize_poset_associahedron(w5).primal
        off = polytope_to_off(Q)
        counts = off.splitlines()[2].split()
        assert counts == ["18", "11", "0"]

    def test_bad_dimension(self):
        Q = realize_poset_associahedron(corpus.chain(2)).primal
        with pytest.raises(ValueError):
            polytope_to_off(Q)


@pytest.fixture
def files(tmp_path):
    chain4 = tmp_path / "chain4.json"
    chain4.write_text('{"covers": [[1,2],[2,3],[3,4]]}')
    cclaw3 = tmp_path / "cclaw3.json"
    cclaw3.write_text('{"n": 3, "covers": [[1,3],[2,3],[3,4],[3,5]]}')
    return {"chain4": str(chain4), "cclaw3": str(cclaw3), "dir": tmp_path}


class TestCli:
    def test_fvector_pentagon(self, files, capsys):
        assert main(["assoc", "faces", files["chain4"], "--fvector"]) == 0
        assert capsys.readouterr().out.strip() == "5 5 1"

    def test_fvector_octagon(self, files, capsys):
        assert main(["cyclo", "faces", files["cclaw3"], "--fvector"]) == 0
        assert capsys.readouterr().out.strip() == "8 8 1"

    @pytest.mark.parametrize("command,file,expected", [
        ("assoc", "chain4", "1 3 1"), ("cyclo", "cclaw3", "1 6 1")])
    def test_hvector(self, files, capsys, command, file, expected):
        assert main([command, "faces", files[file], "--hvector"]) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_cyclo_faces_json(self, files, capsys):
        assert main(["cyclo", "faces", files["cclaw3"]]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dim"] == 2
        assert [face["dim"] for face in data["faces"]].count(0) == 8
        assert data["faces"][0] == {"dim": -1, "empty": True}
        assert data["classes"] == [[1, 3], [2, 3], [3, 4], [3, 5],
                                   [1, 2, 3], [1, 3, 5], [2, 3, 4], [3, 4, 5]]

    def test_poset_validate(self, files, capsys):
        assert main(["poset", "validate", files["chain4"]]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["elements"] == [1, 2, 3, 4]

    def test_tubes_deterministic(self, files, capsys):
        assert main(["tubes", files["chain4"], "--proper"]) == 0
        first = capsys.readouterr().out
        assert main(["tubes", files["chain4"], "--proper"]) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)[0] == [1, 2]

    @pytest.mark.parametrize("flag", [[], ["--proper"], ["--max-tubings"]])
    def test_tubes_refuse_a_long_chain_fast(self, files, capsys, flag):
        """A 40-element chain is over the element budget of tube
        enumeration, so the command exits 1 at once instead of hanging."""
        chain40 = files["dir"] / "chain40.json"
        chain40.write_text(json.dumps({"covers": [[i, i + 1] for i in range(1, 40)]}))
        start = time.perf_counter()
        assert main(["tubes", str(chain40), *flag]) == 1
        assert time.perf_counter() - start < 1
        assert "40 elements" in capsys.readouterr().err

    def test_max_tubings(self, files, capsys):
        assert main(["tubes", files["chain4"], "--max-tubings"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 5

    def test_flag_check(self, files, capsys):
        assert main(["assoc", "faces", files["chain4"], "--flag-check"]) == 0
        assert json.loads(capsys.readouterr().out) == {"flag": True, "witness": None}

    @pytest.mark.parametrize("host", ["chain4", "h6"])
    def test_flag_check_builds_no_face_lattice(self, files, capsys, monkeypatch, host):
        """The flag check reads the tubing walk alone: it prints what
        ``is_flag_dual`` finds, witness included, and never builds the lattice."""
        P = {"chain4": corpus.chain(4), "h6": corpus.h6()}[host]
        path = files["dir"] / f"{host}.json"
        path.write_text(json.dumps({"covers": [list(c) for c in P.covers]}))
        built = []
        monkeypatch.setattr(cli, "associahedron_face_lattice",
                            lambda P: built.append(P) or associahedron_face_lattice(P))
        assert main(["assoc", "faces", str(path), "--flag-check"]) == 0
        check = is_flag_dual(P)
        assert json.loads(capsys.readouterr().out) == {
            "flag": check.ok,
            "witness": None if check.witness is None else [list(t.members) for t in check.witness]}
        assert (check.witness is None) == (host == "chain4") and not built
        assert main(["assoc", "faces", str(path), "--fvector"]) == 0 and len(built) == 1

    def test_realize_json_roundtrip(self, files, tmp_path, capsys):
        out = tmp_path / "pentagon.json"
        assert main(["assoc", "realize", files["chain4"], "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["vertices"]) == 5
        polytope_from_json(data)

    def test_realize_off(self, files, capsys):
        assert main(["assoc", "realize", files["chain4"], "--format", "off",
                     "--precision", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OFF") and "(3 decimal digits)" in out

    def test_cyclo_realize_json_roundtrip(self, files, tmp_path, capsys):
        out = tmp_path / "octagon.json"
        assert main(["cyclo", "realize", files["cclaw3"], "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["chart_dim"] == 2 and len(data["vertices"]) == 8
        back = polytope_from_json(data)
        assert back.vertices == realize_affine_cyclohedron(corpus.circular_claw(3)).primal.vertices

    def test_cyclo_realize_off(self, files, capsys):
        assert main(["cyclo", "realize", files["cclaw3"], "--format", "off",
                     "--precision", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OFF") and "(3 decimal digits)" in out
        assert out.splitlines()[2] == "8 1 0"

    def test_compact_pipeline(self, files, tmp_path, capsys):
        point_file = tmp_path / "point.json"
        assert main(["compact", "synthesize", files["chain4"],
                     "--tubing", "[[1,2]]", "--out", str(point_file)]) == 0
        assert main(["compact", "verify", str(point_file),
                     "--poset", files["chain4"]]) == 0
        assert json.loads(capsys.readouterr().out)["tubing"] == [[1, 2]]

        moved = tmp_path / "moved.json"
        assert main(["compact", "expand", str(point_file),
                     "--poset", files["chain4"], "--tube", "[1,2]",
                     "--parent", "[1,2,3,4]", "--t", "1/2",
                     "--out", str(moved)]) == 0
        assert main(["compact", "collapse", str(moved),
                     "--poset", files["chain4"], "--tube", "[1,2]",
                     "--parent", "[1,2,3,4]"]) == 0
        collapsed = json.loads(capsys.readouterr().out)
        assert collapsed["t"] == "1/2"
        assert collapsed["tubes"] == json.loads(point_file.read_text())["tubes"]

    def test_demo_ratios(self, files, capsys):
        assert main(["compact", "demo-ratios"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [c["target"] for c in data["curves"]] == ["0/1", "1/1"]

    @pytest.mark.parametrize("targets", ["0", "0,1,1/2"], ids=["one", "three"])
    def test_demo_ratios_other_than_two_targets(self, targets, capsys):
        assert main(["compact", "demo-ratios", "--targets", targets]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "exactly two targets" in captured.err
        assert "Traceback" not in captured.err

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"covers": [[1,2],[2,1]]}')
        assert main(["poset", "validate", str(bad)]) == 1

    @pytest.mark.parametrize("argv, bad", [
        (["poset", "validate", "{bad}"], {"covers": [[1, 2, 3]]}),
        (["compact", "verify", "{bad}", "--poset", "{chain4}"], {"tubes": {"1,2": ["1/0", "1/2"]}}),
    ], ids=["poset", "configuration point"])
    def test_schema_error_exit_code(self, files, argv, bad, capsys):
        path = files["dir"] / "bad.json"
        path.write_text(json.dumps(bad))
        assert main([a.format(bad=path, chain4=files["chain4"]) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: $") and "Traceback" not in err

    @pytest.mark.parametrize("tubing", ["5", "[5]", '[["a"]]', '[[1, 2.5]]', '{"1": [1]}'])
    def test_malformed_tubing_exit_code(self, files, tubing, capsys):
        assert main(["compact", "synthesize", files["chain4"], "--tubing", tubing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: $") and "Traceback" not in err

    @pytest.mark.parametrize("value", ["5", "[[1]]", "null"])
    @pytest.mark.parametrize("flag", ["--tube", "--parent"])
    @pytest.mark.parametrize("command", ["expand", "collapse"])
    def test_malformed_tube_exit_code(self, files, tmp_path, command, flag, value, capsys):
        point_file = tmp_path / "point.json"
        assert main(["compact", "synthesize", files["chain4"],
                     "--tubing", "[[1,2]]", "--out", str(point_file)]) == 0
        tubes = {"--tube": "[1,2]", "--parent": "[1,2,3,4]", flag: value}
        argv = ["compact", command, str(point_file), "--poset", files["chain4"],
                "--tube", tubes["--tube"], "--parent", tubes["--parent"]]
        assert main(argv + (["--t", "1/2"] if command == "expand" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: $") and "Traceback" not in err

    def test_zero_denominator_exit_code(self, files, tmp_path, capsys):
        point_file = tmp_path / "point.json"
        assert main(["compact", "synthesize", files["chain4"],
                     "--tubing", "[[1,2]]", "--out", str(point_file)]) == 0
        capsys.readouterr()
        assert main(["compact", "expand", str(point_file), "--poset", files["chain4"],
                     "--tube", "[1,2]", "--parent", "[1,2,3,4]", "--t", "1/0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "1/0" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["compact", "expand", "{point}", "--poset", "{chain4}", "--tube", "[1,2]",
         "--parent", "[1,2,3,4]", "--t", "1e999999999"],
        ["compact", "demo-ratios", "--targets", "0,1e999999999"],
    ], ids=["expand", "demo-ratios"])
    def test_exponent_exits_fast(self, files, tmp_path, argv):
        """An exponent is refused at once; its 10^k is never computed."""
        point_file = tmp_path / "point.json"
        assert main(["compact", "synthesize", files["chain4"],
                     "--tubing", "[[1,2]]", "--out", str(point_file)]) == 0
        src = str(Path(posetahedra.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "posetahedra.cli",
             *(a.format(point=point_file, chain4=files["chain4"]) for a in argv)],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "1e999999999" in proc.stderr

    def test_affine_host_over_budget_exits_fast(self, files, capsys):
        """A period over the element budget is refused before its shift
        matrix is built."""
        big = files["dir"] / "big.json"
        big.write_text(json.dumps({"n": 100000, "covers": []}))
        start = time.perf_counter()
        assert main(["cyclo", "faces", str(big)]) == 1
        assert time.perf_counter() - start < 1
        assert "period 100000" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["poset", "validate", "/nonexistent.json"]) == 1

    def test_stdin(self, files, capsys, monkeypatch):
        import io as _io

        monkeypatch.setattr("sys.stdin", _io.StringIO('{"covers": [[1,2],[2,3]]}'))
        assert main(["assoc", "faces", "-", "--fvector"]) == 0
        assert capsys.readouterr().out.strip() == "2 1"

import json
import time
from fractions import Fraction as F

import jsonschema
import pytest

from posetahedra import corpus, serialize
from posetahedra.cli import main
from posetahedra.compact import stratum_point
from posetahedra.geometry import realize_poset_associahedron
from posetahedra.rational import format_rational, parse_rational
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


class TestRationals:
    def test_format(self):
        assert format_rational(F(-1, 2)) == "-1/2"
        assert format_rational(F(3)) == "3/1"

    def test_parse_roundtrip(self):
        for s in ("-1/2", "3/1", "0/1", "22/7"):
            assert format_rational(parse_rational(s)) == s
        assert parse_rational("5") == F(5)


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
        with pytest.raises(jsonschema.ValidationError, match="'1/0' does not match"):
            polytope_from_json(data)
        monkeypatch.setattr(serialize, "format_rational", lambda x: "0.5")
        with pytest.raises(jsonschema.ValidationError, match="'0.5' does not match"):
            polytope_to_json(Q)

    def test_each_schema_is_checked_once(self, c4, w5, monkeypatch):
        checked = []
        cls = jsonschema.validators.validator_for(serialize.POLYTOPE_SCHEMA)
        check = cls.check_schema
        monkeypatch.setattr(cls, "check_schema", classmethod(
            lambda _, schema: checked.append(id(schema)) or check(schema)))
        serialize._validator.cache_clear()
        Q = realize_poset_associahedron(c4).primal
        point = stratum_point(c4, Tubing.of(c4, [(1, 2)]))
        for _ in range(2):
            polytope_from_json(polytope_to_json(Q))
            poset_from_json(poset_to_json(w5))
            config_point_from_json(c4, config_point_to_json(point))
        assert sorted(checked) == sorted(map(id, (serialize.POLYTOPE_SCHEMA,
                                                  serialize.POSET_SCHEMA,
                                                  serialize.CONFIG_POINT_SCHEMA)))

    def test_ratio_report_serializes(self):
        from posetahedra.compact import ratio_counterexample_demo

        payload = ratio_report_to_json(ratio_counterexample_demo())
        text = json.dumps(payload)
        assert "ratio_gap" in payload and len(payload["curves"]) == 2
        json.loads(text)


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

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"covers": [[1,2],[2,1]]}')
        assert main(["poset", "validate", str(bad)]) == 1

    def test_missing_file_exit_code(self, capsys):
        assert main(["poset", "validate", "/nonexistent.json"]) == 1

    def test_stdin(self, files, capsys, monkeypatch):
        import io as _io

        monkeypatch.setattr("sys.stdin", _io.StringIO('{"covers": [[1,2],[2,3]]}'))
        assert main(["assoc", "faces", "-", "--fvector"]) == 0
        assert capsys.readouterr().out.strip() == "2 1"

"""Affine outputs are pinned byte for byte.

The sha256 of the ``cyclo faces`` JSON (face lattice and tube classes), of
the primal and dual realization exports, and of the face factors of every
proper periodic tubing; any change to the Hasse diagram, the class search,
the laminarity test or the children partitions that moves a class, a face,
a coordinate or an order shows up here.
"""

import hashlib
import json

import pytest

from posetahedra import corpus
from posetahedra.affine import _children_partition, affine_face_factors, enumerate_affine_tubings
from posetahedra.cli import main
from posetahedra.geometry import realize
from posetahedra.serialize import affine_poset_to_json, dumps, polytope_to_json

HOSTS = {"cclaw4": corpus.circular_claw(4), "cchain5": corpus.circular_chain(5)}

# host: (cyclo faces stdout, primal export, dual export)
PINS = {
    "cclaw4": ("9f489d6605ffd2c8b1ceb3e57f9e2f2977014f4c942af729f2e006ed6b468f7e",
               "90f1ffa0e8972184d3a87a0fbe482019ba741f0b1f1374851dec66aa61dbed4d",
               "e97c4b142d4815999d3b1a0c69efdd99ef0d9f14492e58e8fd724a2de466adcd"),
    "cchain5": ("518dbc1be56a27601540005254824d68c749b0d71a0f81ead71f7cd5992826fd",
                "874a41d2c25166a0cd757b6fa57e796af9d6bda24ffe6db6de324e674954e1bf",
                "ddbd9aaa712ac3230c0d8a18094bfbecbcae53f99bdb78125f2136825363cf22"),
}

CCLAW4_FACTORS = "f94c1a69fb10c72739209776bb2916557426aecafe287d91cef7a40530f3ef03"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", PINS)
def test_cyclo_outputs_are_pinned(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(affine_poset_to_json(HOSTS[name])))
    assert main(["cyclo", "faces", str(path)]) == 0
    faces = capsys.readouterr().out
    R = realize(HOSTS[name])
    shas = (_sha(faces), _sha(dumps(polytope_to_json(R.primal))),
            _sha(dumps(polytope_to_json(R.dual))))
    assert shas == PINS[name]


def test_cclaw4_face_factors_are_pinned():
    """Per proper tubing, each class's children partition and finite factor
    (elements and covers), then the contracted affine factor."""
    A = HOSTS["cclaw4"]
    lines = []
    for T in enumerate_affine_tubings(A):
        classes = sorted(T, key=lambda c: c.key())
        finite, quotient = affine_face_factors(A, T)
        lines.append(repr([(cls.members, _children_partition(A, classes, cls),
                            P.elements, P.covers) for cls, P in zip(classes, finite)]))
        lines.append(repr((quotient.n, quotient.gen_covers, quotient.minshift)))
    assert _sha("\n".join(lines)) == CCLAW4_FACTORS

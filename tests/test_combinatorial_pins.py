"""Realizations are pinned combinatorially, with no coordinates.

The sha256 of the primal's vertex labels, facet labels and incidence,
the melt sequence and the vertex count after each stage.  A change that
moves coordinates but not the face structure (a different pull-out
factor, say) leaves these pins alone; one that moves a label, an order or
a stage shows up here.
"""

import hashlib
import json

import pytest

from posetahedra import corpus
from posetahedra.geometry import realize
from posetahedra.polytope import bit_positions

PINS = {
    "w5": (corpus.w5(),
           "f046443151ca17305670ccfb0bccb761f175ddd07a45d56c4f46a7c94e1e0fe3"),
    "chain6": (corpus.chain(6),
               "89dea4d567e6880a53c5dc46b165754881e5d01f7de3cec85b07ffeed2cf8be0"),
    "h6": (corpus.h6(),
           "7e8e1859767da32aa30c69e8a30158439a7cbc391a252640a76566b28bcc1269"),
    "cchain3": (corpus.circular_chain(3),
                "0d4f8f072911eccfd0640da82d70afd98acc28c0e0eb3aede63ff4af135b4847"),
    "cclaw3": (corpus.circular_claw(3),
               "e68092171370274cbefed0b1df97c0956510a5751715fb984bc7f70743a098d6"),
}


def _tube(t) -> list:
    return [list(t.members), bool(getattr(t, "is_full", False))]


def _label(label) -> list:
    return sorted(_tube(t) for t in label)


def combinatorial_sha(R) -> str:
    primal = R.primal
    record = {
        "vertex_labels": [_label(lab) for lab in primal.vertex_labels],
        "facet_labels": [_label(f.label) for f in primal.facets],
        "incidence": [bit_positions(inc) for inc in primal.incidence],
        "melt_sequence": [_tube(t) for t in R.melt_sequence],
        "stage_vertex_counts": list(R.stage_vertex_counts),
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", PINS)
def test_face_structure_is_pinned(name):
    host, expected = PINS[name]
    assert combinatorial_sha(realize(host)) == expected

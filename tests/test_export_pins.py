"""Realizations exported to JSON are pinned byte for byte.

The sha256 of the JSON export of the primal and the dual realization; any
change to the melting induction, the facet solve or the wire format that
moves a coordinate, a label or an order shows up here.
"""

import hashlib

import pytest

from posetahedra import corpus
from posetahedra.geometry import realize
from posetahedra.rational import bit_size
from posetahedra.serialize import dumps, polytope_to_json

PINS = {
    "w5": (corpus.w5(),
           "dbbbb91c63e9debe712161430f349d87ffc1acbf36c2b120a68a18a5da037757",
           "fbab1a2343f652f8aa7b42411338ee0a683c04ade95fc57c53adb517acc78956"),
    "chain6": (corpus.chain(6),
               "1ab9c86a8918edcd9732ea9791b3c44837e23621794f6de438f635b8c34a8c3b",
               "44611ab6d8f96bd8ca26a8aead76dc605b8b7029a94e5f576efd0ad1038b6e8e"),
    "cchain3": (corpus.circular_chain(3),
                "4c0d0b2cd2f2d830f07ffefd374ebf24ad8da7d07edfdc3146dea61428cf2232",
                "f5e194d6ae2eba35f11064cc4bd87a92448a80df469cdb6d23fb1b2b358d3228"),
    "cclaw3": (corpus.circular_claw(3),
               "6e14e8d18c3716aabb22841515d2e2df5e8f069737fd3038a8c476ef3a17390b",
               "20cb6e19475fa6cac3bd8de72f8f7c0a8503f48b9d1b7a93a810b53701c1d3bf"),
}


def _sha(poly) -> str:
    return hashlib.sha256(dumps(polytope_to_json(poly)).encode()).hexdigest()


@pytest.mark.parametrize("name", PINS)
def test_export_is_pinned(name):
    host, primal, dual = PINS[name]
    R = realize(host)
    assert (_sha(R.primal), _sha(R.dual)) == (primal, dual)


def test_chain8_coordinates_stay_small():
    """The dyadic pull-out factor multiplies each stage's denominators by a
    power of two at most; a factor of half the room took 952 bits here."""
    primal = realize(corpus.chain(8)).primal
    assert max(bit_size(x) for v in primal.vertices for x in v) <= 80

"""Realizations exported to JSON are pinned byte for byte.

The sha256 of the JSON export of the primal and the dual realization; any
change to the melting induction, the facet solve or the wire format that
moves a coordinate, a label or an order shows up here.
"""

import hashlib

import pytest

from posetahedra import corpus
from posetahedra.geometry import realize
from posetahedra.serialize import dumps, polytope_to_json

PINS = {
    "w5": (corpus.w5(),
           "af8878ce351d5312088b709700d02914707bb1c596df9253bc2741c6c89e17df",
           "77afe6e28af67cb6667429be96ad452603c2d1e5e561750bdb4451b2e4285e14"),
    "chain6": (corpus.chain(6),
               "38c38ef967129b97e62cedd093ff81ddc1262e8af6c5e872027115d9769f57e0",
               "bd30d9bbec7fe3554179e992197e2f9c85a4e93c76dd8f5937ea4af30287f40a"),
    "cchain3": (corpus.circular_chain(3),
                "4c0d0b2cd2f2d830f07ffefd374ebf24ad8da7d07edfdc3146dea61428cf2232",
                "f5e194d6ae2eba35f11064cc4bd87a92448a80df469cdb6d23fb1b2b358d3228"),
    "cclaw3": (corpus.circular_claw(3),
               "d81a711ad01e728079e5de87f0b970fd8a95cebc68dc03d3a2e1b0d865ded59e",
               "40ded4c562dab64ebd95be4c116a3af415238cd1bf23eb11dd3bfb2660cae6df"),
}


def _sha(poly) -> str:
    return hashlib.sha256(dumps(polytope_to_json(poly)).encode()).hexdigest()


@pytest.mark.parametrize("name", PINS)
def test_export_is_pinned(name):
    host, primal, dual = PINS[name]
    R = realize(host)
    assert (_sha(R.primal), _sha(R.dual)) == (primal, dual)

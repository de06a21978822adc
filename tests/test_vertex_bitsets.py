"""The polytope layer holds every vertex set as a vertex bitset.

``RationalPolytope.face_of`` is compared with the old frozenset
``face_from_vertices`` (``oracles.face_from_vertices``) at every stage of
a realization, on every vertex pair and every facet's vertex set.  The
face each stage subdivides, read off the stage's vertex-below table, is
compared with the old scan of ``AdmissiblePoset.le`` over the vertex
labels.  Certification refuses vertices and normals with the wrong number
of coordinates, and the OFF export leaves the decimal context alone.
"""

import decimal
import hashlib
import itertools
from dataclasses import replace
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given

import oracles
from posetahedra import corpus, geometry
from posetahedra.errors import MismatchError, NotAFaceError
from posetahedra.geometry import MeltedSet, admissible_tubings
from posetahedra.polytope import bit_positions
from posetahedra.rational import format_rational, parse_rational
from posetahedra.serialize import polytope_from_json, polytope_to_json, polytope_to_off
from strategies import SETTINGS, connected_posets


def _stages(host):
    """The realization and, per stage, the polytope subdivided, the face
    bitset it was subdivided at and the lattice after the melt."""
    stages = []
    subdivide = geometry.stellar_subdivide

    def recording(Q, face, adm):
        stages.append((Q, face, adm))
        return subdivide(Q, face, adm)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "stellar_subdivide", recording)
        R = geometry.realize(host)
    assert len(stages) == len(R.melt_sequence)
    return R, stages


def _old_face(Q, bits):
    """The old face of a vertex bitset, as a bitset, or NotAFaceError."""
    frozen = SimpleNamespace(vertices=Q.vertices,
                             incidence=[frozenset(bit_positions(inc)) for inc in Q.incidence])
    try:
        face = oracles.face_from_vertices(frozen, bit_positions(bits), NotAFaceError)
    except NotAFaceError:
        return NotAFaceError
    return sum(1 << k for k in face)


def _new_face(Q, bits):
    try:
        return Q.face_of(bits)
    except NotAFaceError:
        return NotAFaceError


def _check_faces(Q):
    pairs = (1 << i | 1 << j for i, j in itertools.combinations(range(Q.n_vertices), 2))
    for bits in itertools.chain(pairs, Q.incidence):
        assert _new_face(Q, bits) == _old_face(Q, bits), bit_positions(bits)


def _check_realization(host):
    R, stages = _stages(host)
    for k, (Q, face, _) in enumerate(stages):
        _check_faces(Q)
        # the old scan: every vertex whose label lies below s_tau in the
        # lattice of the stage, before tau melts
        adm = admissible_tubings(host, MeltedSet.of(host, R.melt_sequence[:k]))
        top = adm.s_tau(R.melt_sequence[k])
        assert face == sum(1 << i for i, lab in enumerate(Q.vertex_labels) if adm.le(lab, top))
    _check_faces(R.dual)
    _check_faces(R.primal)


@pytest.mark.parametrize("host", [corpus.w5(), corpus.circular_chain(3)], ids=["w5", "cchain3"])
def test_faces_match_the_frozenset_faces(host):
    _check_realization(host)


@SETTINGS
@given(connected_posets())
def test_faces_match_the_frozenset_faces_on_random_posets(P):
    _check_realization(P)


def test_normal_with_an_extra_entry_is_refused():
    """An extra normal entry would take the offset's place in the signs."""
    data = polytope_to_json(geometry.realize(corpus.chain(4)).primal)
    facet = data["facets"][0]
    facet["normal"].append(format_rational(-parse_rational(facet["offset"])))
    facet["offset"] = "999/1"
    with pytest.raises(MismatchError, match=r"^facet .* normal has 3 coordinates, not 2$"):
        polytope_from_json(data)


def test_ragged_vertex_is_refused():
    Q = geometry.realize(corpus.chain(4)).primal
    Q.certify()
    vertices = Q.vertices[:1] + (Q.vertices[1] + (F(0),),) + Q.vertices[2:]
    with pytest.raises(MismatchError, match=r"^vertex 1 has 3 coordinates, not 2$"):
        replace(Q, vertices=vertices).certify()


@pytest.mark.parametrize("host,precision,sha", [
    (corpus.chain(4), 2, "7a51c642a70110a1fe11a87fab88b89352fd8dd58c61248c64343da3fa9eb1ff"),
    (corpus.w5(), 12, "a905b7e163e266531c059110a280456c1f59354ac53cc03d82f7ed000a844f9d"),
    (corpus.w5(), 3, "51d8f3017dd58a7edddd826f1d5251bd97f37578e1746a263be0c4b27ce2ae20"),
], ids=["chain4-2", "w5-12", "w5-3"])
def test_off_export_leaves_the_decimal_context(host, precision, sha):
    Q = geometry.realize(host).primal
    before = decimal.getcontext().prec
    text = polytope_to_off(Q, precision=precision)
    assert decimal.getcontext().prec == before
    assert hashlib.sha256(text.encode()).hexdigest() == sha

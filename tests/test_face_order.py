"""The integer kernels of certification against the code they replaced.

The bitset face order must agree with the per-pair tube loop, the integer
affine rank with Fraction row reduction, and the integer side signs with
Fraction evaluation of the facet functional.
"""

import functools
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from posetahedra import corpus
from posetahedra.affine import affine_admissible_tubings, class_contains, enumerate_affine_tubes
from posetahedra.geometry import MeltedSet, admissible_tubings
from posetahedra.linalg import affine_rank, homogeneous, rank
from posetahedra.polytope import Facet, side_signs
from posetahedra.tubes import enumerate_tubes
from strategies import SETTINGS, connected_posets


@st.composite
def melted_stages(draw):
    """A poset and an upward-closed set of its proper tubes."""
    P = draw(connected_posets())
    proper = enumerate_tubes(P, proper_only=True)
    seeds = draw(st.lists(st.sampled_from(proper), max_size=4)) if proper else []
    melted = {s for s in proper for t in seeds if t.issubset(s)}
    return P, MeltedSet.of(P, melted)


@SETTINGS
@given(melted_stages())
def test_face_order_matches_pair_loop(stage):
    P, M = stage
    adm = admissible_tubings(P, M)
    for a, b in itertools.product(adm.elements, repeat=2):
        assert adm.le(a, b) == oracles.admissible_le(adm, a, b), (a, b)


@pytest.mark.parametrize("name,step", [
    ("cchain3", 1), ("cchain4", 1), ("cclaw3", 1),
    ("cclaw4", 3),  # every third melting stage and the last: 147 tubings a stage
])
def test_affine_face_order_matches_pair_loop(name, step):
    make = corpus.circular_chain if name.startswith("cchain") else corpus.circular_claw
    A = make(int(name[-1]))
    sequence = sorted(enumerate_affine_tubes(A, proper_only=True),
                      key=lambda t: (-len(t), t.members))
    contains = functools.cache(class_contains)  # a pure predicate: cached for speed only
    for k in sorted(set(range(0, len(sequence), step)) | {len(sequence)}):
        adm = affine_admissible_tubings(A, frozenset(sequence[:k]))
        for a, b in itertools.product(adm.elements, repeat=2):
            assert adm.le(a, b) == oracles.affine_admissible_le(adm, a, b, contains)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def point_sets(draw):
    """Up to 8 points in dimension 1..5, often on a lower-dimensional flat."""
    d = draw(st.integers(1, 5))
    vector = st.lists(rationals, min_size=d, max_size=d)
    base = draw(vector)
    directions = draw(st.lists(vector, max_size=d))
    points = []
    for _ in range(draw(st.integers(0, 8))):
        coeffs = draw(st.lists(rationals, min_size=len(directions),
                               max_size=len(directions)))
        points.append(tuple(
            b + sum((c * v[k] for c, v in zip(coeffs, directions)), F(0))
            for k, b in enumerate(base)
        ))
    return d, points


@SETTINGS
@given(point_sets())
def test_integer_affine_rank_matches_fraction_rank(case):
    d, points = case
    expected = -1 if not points else rank(
        [[x - b for x, b in zip(p, points[0])] for p in points[1:]], d)
    assert affine_rank(points) == expected


@SETTINGS
@given(point_sets(), st.data())
def test_integer_signs_match_facet_value(case, data):
    d, points = case
    normal = tuple(data.draw(st.lists(rationals, min_size=d, max_size=d)))
    facet = Facet(normal, F(0))
    if points:
        # put the hyperplane through one of the points so that ties occur
        facet = Facet(normal, facet.value(data.draw(st.sampled_from(points))))
    facet = Facet(normal, facet.offset + data.draw(st.sampled_from([0, 0, F(1, 3), -1])))
    signs = side_signs(facet.normal, facet.offset, [homogeneous(p) for p in points])
    expected = [(facet.value(p) > facet.offset) - (facet.value(p) < facet.offset)
                for p in points]
    assert signs == expected

"""The integer kernels of certification against the code they replaced.

The bitset face order must agree with the per-pair tube loop, the integer
affine rank with Fraction row reduction, the integer side signs with
Fraction evaluation of the facet functional, and the integer hyperplane
solve with the Fraction one, both alone and as every facet of every
melting stage.
"""

import functools
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from posetahedra import corpus, geometry
from posetahedra.affine import affine_admissible_tubings, class_contains, enumerate_affine_tubes
from posetahedra.geometry import MeltedSet, admissible_tubings
from posetahedra.linalg import affine_rank, homogeneous, hyperplane_through, rank
from posetahedra.polytope import Facet, facet_through, side_signs
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


@st.composite
def near_hyperplanes(draw):
    """d to d + 2 points on a random (d - 1)-flat in dimension 1..5; some
    sets repeat a point, some move the first point off the flat."""
    d = draw(st.integers(1, 5))
    vector = st.lists(rationals, min_size=d, max_size=d)
    base = draw(vector)
    directions = draw(st.lists(vector, min_size=d - 1, max_size=d - 1))
    points = []
    for _ in range(draw(st.integers(d, d + 2))):
        coeffs = draw(st.lists(rationals, min_size=d - 1, max_size=d - 1))
        points.append(tuple(
            b + sum((c * v[k] for c, v in zip(coeffs, directions)), F(0))
            for k, b in enumerate(base)
        ))
    if draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))
    if draw(st.booleans()):
        points[0] = tuple(x + y for x, y in zip(points[0], draw(vector)))
    return points


def _check_hyperplane(points):
    got = hyperplane_through([homogeneous(p) for p in points])
    want = oracles.hyperplane_through(points)
    if want is None:
        assert got is None
    else:
        normal, offset = oracles.primitive(*want)
        # the orientation of either solve is arbitrary
        assert got in ((normal, offset), ([-n for n in normal], -offset))


@SETTINGS
@given(point_sets())
def test_integer_hyperplane_matches_fraction_solve(case):
    _check_hyperplane(case[1])


@SETTINGS
@given(near_hyperplanes())
def test_integer_hyperplane_matches_fraction_solve_near_hyperplanes(points):
    _check_hyperplane(points)


@pytest.mark.parametrize("rows", [
    [],
    [[1]],                   # a point in dimension 0
    [[2, 1, 2], [2, 1, 2]],  # one point twice in the plane
    [[1, 0, 0], [0, 1, 0]],  # kernel (0, 0, 1): a zero normal, which no points clear to
])
def test_integer_hyperplane_none(rows):
    assert hyperplane_through(rows) is None


def test_integer_hyperplane_is_primitive():
    # 4 * (1/2, 1) is not primitive; its hyperplane -2x = -1 is
    assert hyperplane_through([[2, 4]]) == ([-2], -1)


@pytest.mark.parametrize("host", [corpus.w5(), corpus.circular_chain(3)], ids=["w5", "cchain3"])
def test_facets_match_fraction_solve_at_every_stage(monkeypatch, host):
    stages = []
    rebuild = geometry.rebuild_from_lattice

    def recording(*args):
        stages.append(rebuild(*args))
        return stages[-1]

    monkeypatch.setattr(geometry, "rebuild_from_lattice", recording)
    R = geometry.realize(host)
    assert len(stages) == len(R.melt_sequence) + 1
    for Q in stages:
        for facet, inc in zip(Q.facets, Q.incidence):
            assert (facet.normal, facet.offset) == oracles.oriented_facet(Q.vertices, inc)
            assert all(type(x) is F for x in (*facet.normal, facet.offset))
            assert facet_through(Q.rows, inc, facet.label) == facet

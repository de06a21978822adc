"""The integer kernels of certification against the code they replaced.

The bitset face order must agree with the per-pair tube loop, the integer
affine rank with Fraction row reduction, the integer side signs with
Fraction evaluation of the facet functional, and the integer hyperplane
solve with the Fraction one, both alone and as every facet of every
melting stage.  Kernels and unique solves, read off the same integer
elimination, must equal Fraction row reduction, alone and as every chart
of the corpus.
"""

import functools
import itertools
import operator
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from posetahedra import corpus, geometry
from posetahedra.affine import (
    affine_admissible_tubings,
    affine_order_polytope,
    class_contains,
    enumerate_affine_tubes,
)
from posetahedra.geometry import MeltedSet, admissible_tubings, order_polytope
from posetahedra.linalg import (
    LinAlgError,
    affine_rank,
    homogeneous,
    hyperplane_through,
    integer_rank,
    nullspace,
    solve_unique,
)
from posetahedra.polytope import (Facet, bit_positions, facet_through, side_signs, sides,
                                   union_table)
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


@SETTINGS
@given(st.lists(st.integers(0, 2**70), max_size=30), st.data())
def test_union_table_matches_bit_loop(sets, data):
    union = union_table(sets)
    for x in data.draw(st.lists(st.integers(0, 2**len(sets) - 1), max_size=10)):
        assert bit_positions(x) == [j for j in range(len(sets)) if x >> j & 1]
        assert union(x) == functools.reduce(operator.or_, (sets[j] for j in bit_positions(x)), 0)


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
    expected = -1 if not points else oracles.rank(
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
    # the polytope keeps a sign row as the bitsets of its zeros and its ones
    values = [facet.value(p) - facet.offset for p in points]
    assert sides(signs) == (sum(1 << k for k, v in enumerate(values) if v == 0),
                            sum(1 << k for k, v in enumerate(values) if v > 0))


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
        for facet, inc in zip(Q.facets, map(bit_positions, Q.incidence)):
            assert (facet.normal, facet.offset) == oracles.oriented_facet(Q.vertices, inc)
            assert all(type(x) is F for x in (*facet.normal, facet.offset))
            solved, row = facet_through(Q.rows, inc, facet.label)
            assert solved == facet
            assert row == side_signs(facet.normal, facet.offset, Q.rows)


@st.composite
def systems(draw):
    """A rational system A x = b of 0..6 rows in 1..5 columns; rows are
    often zero or combinations of earlier rows, so that ranks fall short."""
    ncols = draw(st.integers(1, 5))
    entry = st.one_of(st.just(F(0)), rationals)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * r[k] for c, r in zip(coeffs, rows)), F(0))
                         for k in range(ncols)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    rhs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    return rows, ncols, rhs


@SETTINGS
@given(systems())
def test_kernel_and_rank_match_fraction_row_reduction(case):
    rows, ncols, _ = case
    assert nullspace(rows, ncols) == oracles.nullspace(rows, ncols)
    assert integer_rank(homogeneous(r)[:-1] for r in rows) == oracles.rank(rows, ncols)


@SETTINGS
@given(systems())
def test_unique_solve_matches_fraction_row_reduction(case):
    rows, _, rhs = case
    try:
        want = oracles.solve_unique(rows, rhs)
    except oracles.LinAlgError as exc:
        with pytest.raises(LinAlgError, match=str(exc)):
            solve_unique(rows, rhs)
    else:
        assert solve_unique(rows, rhs) == want


@pytest.mark.parametrize("rows,rhs,error", [
    ([[F(1), F(2)], [F(2), F(4)]], [F(1), F(3)], "inconsistent"),
    ([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)], "underdetermined"),
    ([[F(0), F(0)]], [F(0)], "underdetermined"),
])
def test_unique_solve_raises(rows, rhs, error):
    with pytest.raises(oracles.LinAlgError, match=error):
        oracles.solve_unique(rows, rhs)
    with pytest.raises(LinAlgError, match=error):
        solve_unique(rows, rhs)


def _check_chart(Q, rows):
    """The chart's basis is the Fraction kernel of its defining rows, and
    each vertex the Fraction solve of its ambient point."""
    chart = Q.chart
    assert chart.basis == tuple(map(tuple, oracles.nullspace(rows, len(chart.ids))))
    columns = [list(col) for col in zip(*chart.basis)]
    for u in Q.vertices:
        x = chart.to_ambient(u)
        rhs = [x[i] - b for i, b in zip(chart.ids, chart.base)]
        assert tuple(oracles.solve_unique(columns, rhs)) == u
        assert chart.to_chart(x) == u


@pytest.mark.parametrize("name", sorted(corpus.DESK_POSETS))
def test_order_polytope_chart_matches_fraction_row_reduction(name):
    P = corpus.DESK_POSETS[name]
    weight = dict.fromkeys(P.elements, 0)
    for i, j in P.covers:
        weight[i] -= 1
        weight[j] += 1
    _check_chart(order_polytope(P), [[F(1)] * len(P.elements), [F(weight[e]) for e in P.elements]])


@pytest.mark.parametrize("name", sorted(corpus.DESK_AFFINE))
def test_affine_order_polytope_chart_matches_fraction_row_reduction(name):
    A = corpus.DESK_AFFINE[name]
    _check_chart(affine_order_polytope(A), [[F(1)] * A.n])


@pytest.mark.parametrize("n", [2, 4])  # a point chart (no basis) and a plane
def test_point_off_the_chart_is_refused(n):
    chart = order_polytope(corpus.chain(n)).chart
    x = chart.to_ambient([F(1)] * chart.dim)
    x[1] += 1  # the ambient point no longer sums to zero
    with pytest.raises(LinAlgError):
        chart.to_chart(x)

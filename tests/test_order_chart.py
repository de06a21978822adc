"""The finite and the affine order polytope against verbatim copies of
their old builders (``oracles.order_polytope``, ``oracles.affine_order_polytope``).

Dimension, vertices, facets (normal, offset and label), incidence, chart
and vertex labels must come out identical, down to the repr of every
rational.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given

import oracles
from posetahedra import corpus
from posetahedra.affine import affine_order_polytope, maximal_proper_classes
from posetahedra.errors import DegenerateError
from posetahedra.geometry import order_polytope
from posetahedra.linalg import affine_rank, nullspace
from posetahedra.polytope import Chart, Facet, bit_positions, polytope_from_data
from posetahedra.poset import ideal_filter_splits
from strategies import SETTINGS, affine_posets, connected_posets

PERIODS = (F(1), F(1, 2), F(3))
AFFINE_HOSTS = {**corpus.DESK_AFFINE,
                **{f"cchain{n}": corpus.circular_chain(n) for n in (1, 2, 5)},
                **{f"cclaw{n}": corpus.circular_claw(n) for n in (1, 2, 5)}}


def snapshot(Q):
    """Everything a polytope holds, with the incidence as sorted tuples."""
    return (repr((Q.dim, Q.vertices, Q.facets, Q.chart, Q.vertex_labels)),
            tuple(tuple(bit_positions(inc)) for inc in Q.incidence))


def old_order_polytope(P):
    return oracles.order_polytope(P, ideal_filter_splits, nullspace, Chart, Facet,
                                  polytope_from_data, affine_rank, DegenerateError)


def old_affine_order_polytope(A, c):
    return oracles.affine_order_polytope(A, c, maximal_proper_classes, nullspace, Chart,
                                         Facet, polytope_from_data)


def check_finite(P):
    assert snapshot(order_polytope(P)) == snapshot(old_order_polytope(P))


def check_affine(A):
    for c in PERIODS:
        assert snapshot(affine_order_polytope(A, c)) == snapshot(old_affine_order_polytope(A, c))


@pytest.mark.parametrize("name", sorted(corpus.DESK_POSETS))
def test_desk_order_polytopes_match_the_old_builder(name):
    check_finite(corpus.DESK_POSETS[name])


@SETTINGS
@given(connected_posets())
def test_random_order_polytopes_match_the_old_builder(P):
    check_finite(P)


@pytest.mark.parametrize("name", sorted(AFFINE_HOSTS))
def test_desk_affine_order_polytopes_match_the_old_builder(name):
    check_affine(AFFINE_HOSTS[name])


@SETTINGS
@given(affine_posets())
def test_random_affine_order_polytopes_match_the_old_builder(A):
    check_affine(A)


def test_nonpositive_period_is_refused():
    for c in (F(0), F(-1)):
        with pytest.raises(ValueError, match="period increment must be positive"):
            affine_order_polytope(corpus.circular_chain(3), c)

"""The per-stage face index, the carried stage and the rank memo against
the definitions.

Every melting stage indexes its admissible tubings once (``FaceOrder``),
builds them on tube positions with options carried from the previous
stage, takes the hyperplanes of the facets the subdivision keeps and
takes face ranks through a memo that the realization hands from stage to
stage.  Here every stage is checked again: its tubings against the old
enumeration (``oracles.admissible_tubings``), every face with the per-pair
order of ``oracles.admissible_le`` and the Fraction rank, and every facet
against a solve from scratch.  The memo is shown to be keyed by row
values, not by vertex index or label.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given

import oracles
from posetahedra import affine, corpus, geometry, linalg
from posetahedra.geometry import AdmissiblePoset, initial_dual, tube_system
from posetahedra.linalg import homogeneous
from posetahedra.polytope import facet_through, polytope_from_data
from strategies import SETTINGS, connected_posets


def _stages(host):
    """(polytope, admissible poset) of every stage of the host's realization."""
    stages = []
    rebuild = geometry.rebuild_from_lattice

    def recording(*args):
        stages.append((rebuild(*args), args[3]))
        return stages[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "rebuild_from_lattice", recording)
        R = geometry.realize(host)
    assert len(stages) == len(R.melt_sequence) + 1
    return stages


def _le(host):
    if isinstance(host, affine.AffinePoset):
        return lambda adm, a, b: oracles.affine_admissible_le(adm, a, b, affine.class_contains)
    return oracles.admissible_le


def _check_every_stage(host):
    le = _le(host)
    ranks = {}  # the Fraction rank of each point set, which recurs from stage to stage
    for Q, adm in _stages(host):
        old = oracles.admissible_tubings(host, adm.melted, tube_system, AdmissiblePoset)
        assert adm.elements == old.elements
        # each vertex was cleared once, and the rows handed on are its rows
        assert Q.rows == tuple(map(homogeneous, Q.vertices))
        labels = Q.vertex_labels
        vertices_below = adm.order.below(labels)
        tight = {}
        for i, T in enumerate(adm.elements):
            ids = [k for k, lab in enumerate(labels) if le(adm, lab, T)]
            assert [adm.le(lab, T) for lab in labels] == [k in ids for k in range(len(labels))]
            assert vertices_below(i) == sum(1 << k for k in ids), T
            tight[T] = ids
            points = tuple(Q.vertices[k] for k in ids)
            if points not in ranks:
                ranks[points] = oracles.rank([[*v, 1] for v in points], Q.dim + 1)
            assert ranks[points] == adm.dim(T) + 1, T
        # carried and solved facets alike are the facets a solve from scratch gives
        assert list(Q.facets) == [facet_through(Q.rows, tight[Tf], Tf)[0]
                                  for Tf in adm.facets()]


@pytest.mark.parametrize("host", [corpus.w5(), corpus.h6(), corpus.circular_chain(3),
                                  corpus.circular_claw(3)],
                         ids=["w5", "h6", "cchain3", "cclaw3"])
def test_every_stage_matches_the_definitions(host):
    _check_every_stage(host)


@SETTINGS
@given(connected_posets())
def test_every_stage_matches_the_definitions_on_random_posets(P):
    _check_every_stage(P)


def test_rank_memo_is_keyed_by_row_values(w5, monkeypatch):
    dual, _ = initial_dual(w5)
    square = sorted(next(inc for inc in dual.incidence if len(inc) == 4))
    # certifying the stage took this facet's rank and kept it, under the
    # OR of its rows' ids
    key = 0
    for k in square:
        key |= dual.ranks.bit(dual.rows[k])
    assert dual.ranks[key] == 3
    calls = []
    integer_rank = linalg.integer_rank
    monkeypatch.setattr(linalg, "integer_rank", lambda rows: calls.append(rows) or
                        integer_rank(rows))
    assert dual.rank(square) == 3 and not calls
    # the same labels and indices, one vertex of the facet moved off its plane
    k = square[0]
    centroid = dual.centroid()
    moved = tuple(x + (c - x) * F(1, 7) for x, c in zip(dual.vertices[k], centroid))
    vertices = dual.vertices[:k] + (moved,) + dual.vertices[k + 1:]
    tampered = polytope_from_data(dual.dim, vertices, (), vertex_labels=dual.vertex_labels,
                                  ranks=dual.ranks)
    assert tampered.ranks is dual.ranks
    calls.clear()
    assert tampered.rank(square) == 4 and len(calls) == 1
    assert dual.rank(square) == 3 and len(calls) == 1


def test_realization_drops_its_rank_memo(w5):
    assert geometry.realize(w5).dual.ranks == {}


def test_only_new_facets_are_solved(w5, monkeypatch):
    """Each stage solves exactly its new facets, the ones through the new
    vertex; the facets that do not contain the subdivided face are carried."""
    solves = []
    solve = geometry.facet_through
    monkeypatch.setattr(geometry, "facet_through",
                        lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
    stages = []
    subdivide = geometry.stellar_subdivide

    def recording(Q, *args):
        before = len(solves)
        stages.append((subdivide(Q, *args), len(solves) - before))
        return stages[-1][0]

    monkeypatch.setattr(geometry, "stellar_subdivide", recording)
    R = geometry.realize(w5)
    assert len(stages) == len(R.melt_sequence)
    for Q, solved in stages:
        new = Q.n_vertices - 1  # the pulled-out point comes last
        assert solved == sum(new in inc for inc in Q.incidence) < Q.n_facets

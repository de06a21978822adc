"""The per-stage face index, the carried stage and the rank memo against
the definitions.

Every melting stage indexes its admissible tubings once (``AdmissiblePoset``),
builds them on tube positions with options carried from the previous
stage, takes the hyperplanes of the facets the subdivision keeps and
takes face ranks through a memo that the realization hands from stage to
stage.  Here every stage is checked again: its tubings against the old
enumeration (``oracles.admissible_tubings``), every face with the per-pair
order of ``oracles.admissible_le`` and the Fraction rank, and every facet
against a solve from scratch.  The memo is shown to be keyed by row
values, not by vertex index or label.

What a stage takes from what it has already proved is checked too: each
face rank read off an independent facet (a vertex count) against the
integer rank of the face's rows, each sign row, carried or solved, against
a fresh ``side_signs``, and each rank a facet solve seeded into the memo
against the integer rank of its rows.
"""

from fractions import Fraction as F
from functools import reduce
from operator import or_

import pytest
from hypothesis import given

import oracles
from posetahedra import affine, corpus, geometry, linalg
from posetahedra.geometry import initial_dual, tube_system
from posetahedra.linalg import homogeneous, integer_rank
from posetahedra.polytope import (RankMemo, bit_positions, facet_through, polytope_from_data,
                                   side_signs, sides)
from strategies import SETTINGS, affine_posets, connected_posets


def _stages(host):
    """(polytope, admissible poset, the (rows, rank) its facet solves seeded
    into the rank memo) of every stage of the host's realization."""
    stages, seeds = [], []
    rebuild, seed = geometry.rebuild_from_lattice, RankMemo.seed

    def recording(*args):
        first = len(seeds)
        Q = rebuild(*args)
        stages.append((Q, args[3], seeds[first:]))
        return Q

    def seeding(memo, rows, rank):
        seeds.append((tuple(rows), rank))
        seed(memo, rows, rank)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "rebuild_from_lattice", recording)
        mp.setattr(RankMemo, "seed", seeding)
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
    integer_ranks = {}
    for Q, adm, seeded in _stages(host):
        old = oracles.admissible_tubings(host, adm.melted, tube_system)
        assert adm.elements == old
        # each vertex was cleared once, and the rows handed on are its rows
        assert Q.rows == tuple(map(homogeneous, Q.vertices))
        labels = Q.vertex_labels
        # The oracle asks of each tube t of the lower tubing that one tube s
        # of the upper tubing be t (t melted) or a frozen tube holding t (t
        # frozen), so a <= T exactly when each t of a passes against some
        # s of T alone.  Each such pair is asked once per stage; a tubing of
        # the labels is the bitset of its tubes.
        bit = {t: 1 << k for k, t in enumerate(frozenset().union(*labels))}
        label_bits = [sum(map(bit.__getitem__, lab)) for lab in labels]
        passing = {s: sum(b for t, b in bit.items() if le(adm, (t,), (s,)))
                   for s in frozenset().union(*adm.elements)}
        vertices_below = adm.below(labels)
        tight = {}
        for i, T in enumerate(adm.elements):
            allowed = reduce(or_, map(passing.__getitem__, T), 0)
            ids = [k for k, lab in enumerate(label_bits) if not lab & ~allowed]
            assert [adm.le(lab, T) for lab in labels] == [k in ids for k in range(len(labels))]
            assert vertices_below(i) == sum(1 << k for k in ids), T
            tight[T] = ids
            rows = tuple(Q.rows[k] for k in ids)  # a point's row is one to one, and quick to hash
            if rows not in ranks:
                ranks[rows] = oracles.rank([[*Q.vertices[k], 1] for k in ids], Q.dim + 1)
            assert ranks[rows] == adm.dim(T) + 1, T
        # carried and solved facets alike are the facets a solve from scratch gives
        assert list(Q.facets) == [facet_through(Q.rows, tight[Tf], Tf)[0]
                                  for Tf in adm.facets()]
        _check_stage_facts(Q, adm, seeded, integer_ranks)


def _check_stage_facts(Q, adm, seeded, ranks):
    """What the stage took from its own proofs equals a fresh computation;
    ``ranks`` keeps the integer rank of each set of rows across stages."""
    assert Q.signs == tuple(sides(side_signs(f.normal, f.offset, Q.rows)) for f in Q.facets)
    tight_rows = {frozenset(Q.rows[k] for k in bit_positions(inc)) for inc in Q.incidence}
    for rows, rank in seeded:  # each the tight rows of a solved facet
        assert frozenset(rows) in tight_rows
        assert rank == integer_rank(rows) == Q.dim

    def rank(vertices):
        rows = tuple(Q.rows[k] for k in sorted(vertices))
        if rows not in ranks:
            ranks[rows] = integer_rank(rows)
        return ranks[rows]

    # a facet of d vertices of rank d has independent rows, and a face below
    # it has its vertex count as rank
    order = adm  # T <= F when mask(T) misses bad(F)
    independent = [order.bads[order.index[f.label]] for f, inc in zip(Q.facets, Q.incidence)
                   if inc.bit_count() == Q.dim and rank(bit_positions(inc)) == Q.dim]
    vertices_below = order.below(Q.vertex_labels)
    for i, mask in enumerate(order.masks):
        if any(not mask & bad for bad in independent):
            below = vertices_below(i)
            assert below.bit_count() == rank(bit_positions(below)), adm.elements[i]


@pytest.mark.parametrize("host", [corpus.w5(), corpus.h6(), corpus.circular_chain(3),
                                  corpus.circular_claw(3)],
                         ids=["w5", "h6", "cchain3", "cclaw3"])
def test_every_stage_matches_the_definitions(host):
    _check_every_stage(host)


@SETTINGS
@given(connected_posets())
def test_every_stage_matches_the_definitions_on_random_posets(P):
    _check_every_stage(P)


@SETTINGS
@given(affine_posets())
def test_stage_facts_on_random_affine_posets(A):
    ranks = {}
    for stage in _stages(A):
        _check_stage_facts(*stage, ranks)


def test_rank_memo_is_keyed_by_row_values(w5, monkeypatch):
    dual, _ = initial_dual(w5)
    square = next(inc for inc in dual.incidence if inc.bit_count() == 4)
    # certifying the stage took this facet's rank and kept it, under the
    # OR of its rows' ids
    key = 0
    for k in bit_positions(square):
        key |= dual.ranks.bit(dual.rows[k])
    assert dual.ranks[key] == 3
    calls = []
    integer_rank = linalg.integer_rank
    monkeypatch.setattr(linalg, "integer_rank", lambda rows: calls.append(rows) or
                        integer_rank(rows))
    assert dual.rank_of(square) == 3 and not calls
    # the same labels and indices, one vertex of the facet moved off its plane
    k = bit_positions(square)[0]
    centroid = dual.centroid()
    moved = tuple(x + (c - x) * F(1, 7) for x, c in zip(dual.vertices[k], centroid))
    vertices = dual.vertices[:k] + (moved,) + dual.vertices[k + 1:]
    tampered = polytope_from_data(dual.dim, vertices, (), vertex_labels=dual.vertex_labels,
                                  ranks=dual.ranks)
    assert tampered.ranks is dual.ranks
    calls.clear()
    assert tampered.rank_of(square) == 4 and len(calls) == 1
    assert dual.rank_of(square) == 3 and len(calls) == 1


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
        assert solved == sum(inc >> new & 1 for inc in Q.incidence) < Q.n_facets

"""The tubing walk's arrow-free shortcut and the graded check on masks.

``tubes.tubing_walk`` neither scans nor rebuilds the chosen reach sets for
a candidate with no arrow out or none in; its tubes, its masks in walk
order and its flag witness equal those of the walk without the shortcut
(``oracles.tubing_walk``).  A tubing lattice grades
itself on its masks (``TubingCovers.grade``), never iterating its pairs;
every lattice and every tampered walk family has the outcome, error message
included, that the loop over explicit cover pairs gives.
"""

import dataclasses

import pytest
from hypothesis import given

import oracles
from posetahedra import corpus
from posetahedra.affine import _class_walk, cyclohedron_face_lattice
from posetahedra.errors import NotGradedError
from posetahedra.lattice import (
    EMPTY,
    TubingCovers,
    associahedron_face_lattice,
    f_vector,
    h_vector,
    tubing_face_lattice,
)
from posetahedra.tubes import is_tubing, tube_table, tubing_walk, walk_tubings
from strategies import SETTINGS, affine_posets, connected_posets

WALK_HOSTS = {**corpus.DESK_POSETS, "claw6": corpus.claw(6)}


def check_walk(P):
    assert tubing_walk.__wrapped__(P) == oracles.tubing_walk(P, tube_table, walk_tubings, is_tubing)


@pytest.mark.parametrize("name", sorted(WALK_HOSTS))
def test_walk_is_unchanged(name):
    check_walk(WALK_HOSTS[name])


def test_walk_hosts_cover_both_shortcuts_and_a_witness():
    """claw6 has no arrow at all, h6 has arrows both ways and is not flag."""
    claw6, h6 = tube_table(WALK_HOSTS["claw6"]), tube_table(WALK_HOSTS["h6"])
    assert not any(claw6.arrow) and not any(claw6.arrow_in)
    assert any(h6.arrow) and any(h6.arrow_in)
    assert tubing_walk(WALK_HOSTS["h6"])[2] is not None


@SETTINGS
@given(connected_posets(max_size=7))
def test_walk_is_unchanged_on_random_posets(P):
    check_walk(P)


def outcome(L):
    """Either "graded" or the message of the NotGradedError that
    check_graded raises."""
    try:
        L.check_graded()
    except NotGradedError as failure:
        return str(failure)
    return "graded"


def pair_outcome(L):
    """The outcome of the loop over the explicit pairs of L's covers; a
    missing upper cover raises while they are listed."""
    try:
        covers = tuple(L.covers)
    except NotGradedError as failure:
        return str(failure)
    return outcome(dataclasses.replace(L, covers=covers))


def check_same_outcome(L):
    assert isinstance(L.covers, TubingCovers)
    assert outcome(L) == pair_outcome(L) == "graded"


@pytest.mark.parametrize("name", sorted(corpus.DESK_POSETS))
def test_desk_lattices_grade_as_their_pairs(name):
    check_same_outcome(associahedron_face_lattice.__wrapped__(corpus.DESK_POSETS[name]))


@pytest.mark.parametrize("name", sorted(corpus.DESK_AFFINE))
def test_desk_cyclohedra_grade_as_their_pairs(name):
    check_same_outcome(cyclohedron_face_lattice.__wrapped__(corpus.DESK_AFFINE[name]))


@SETTINGS
@given(connected_posets())
def test_random_lattices_grade_as_their_pairs(P):
    check_same_outcome(associahedron_face_lattice.__wrapped__(P))


@SETTINGS
@given(affine_posets())
def test_random_cyclohedra_grade_as_their_pairs(A):
    check_same_outcome(cyclohedron_face_lattice.__wrapped__(A))


WALKS = {**{name: lambda P=P: (*tubing_walk(P)[:2], len(P.elements) - 2)
            for name, P in corpus.DESK_POSETS.items() if len(P.elements) > 3},
         "cclaw3": lambda: (*_class_walk(corpus.circular_claw(3)), 2),
         "cchain4": lambda: (*_class_walk(corpus.circular_chain(4)), 3)}


def without(name, dropped):
    """The lattice of the host's walk family less the masks dropped, and
    the position of each kept face by mask."""
    tubes, masks, dim = WALKS[name]()
    L = tubing_face_lattice(name, tubes, [mask for mask in masks if mask not in dropped], dim)
    return L, {mask: p for p, mask in enumerate(L.faces.masks, 1)}


@pytest.mark.parametrize("name", sorted(WALKS))
def test_family_missing_a_facet(name):
    _, masks, _ = WALKS[name]()
    L, _ = without(name, {next(mask for mask in masks if mask.bit_count() == 1)})
    message = outcome(L)
    assert " has no upper cover without " in message
    assert message == pair_outcome(L)


@pytest.mark.parametrize("name", sorted(WALKS))
def test_family_missing_both_vertices_of_an_edge(name):
    _, masks, dim = WALKS[name]()
    edge = next(mask for mask in masks if mask.bit_count() == dim - 1)
    vertices = {mask for mask in masks if mask.bit_count() == dim and mask & edge == edge}
    assert len(vertices) == 2  # the polytope is simple
    L, position = without(name, vertices)
    assert outcome(L) == pair_outcome(L) == f"face {L.faces[position[edge]]} has no lower cover"


@pytest.mark.parametrize("name", sorted(WALKS))
def test_family_missing_every_vertex(name):
    _, masks, dim = WALKS[name]()
    L, _ = without(name, {mask for mask in masks if mask.bit_count() == dim})
    assert outcome(L) == pair_outcome(L) == f"face {EMPTY} has no upper cover"


def test_vectors_and_check_never_iterate_the_pairs(monkeypatch):
    iterations = []
    iterate = TubingCovers.__iter__

    def spy(covers):
        iterations.append(covers)
        return iterate(covers)

    monkeypatch.setattr(TubingCovers, "__iter__", spy)
    lattices = [associahedron_face_lattice.__wrapped__(P) for P in corpus.DESK_POSETS.values()]
    lattices += [cyclohedron_face_lattice.__wrapped__(A) for A in corpus.DESK_AFFINE.values()]
    for check in (f_vector, h_vector, lambda L: L.check_graded()):
        for L in lattices:
            check(dataclasses.replace(L))  # afresh: not graded yet
    assert iterations == []
    assert tuple(lattices[0].covers) and len(iterations) == 1  # the spy sees an iteration

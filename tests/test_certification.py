"""Tampered inputs must make certification fail.

Each test corrupts one certified object and expects MismatchError from the
check that guards it: the face-lattice match, the polytope's own V/H
certificate, or the supporting-hyperplane solve.
"""

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction as F

import pytest

from posetahedra import corpus, geometry
from posetahedra.affine import realize_affine_cyclohedron
from posetahedra.errors import MismatchError
from posetahedra.geometry import (
    AdmissiblePoset,
    MeltedSet,
    admissible_tubings,
    initial_dual,
    lattice_match,
    melt_order,
    realize_poset_associahedron,
    stellar_subdivide,
)
from posetahedra.polytope import facet_through
from posetahedra.tubes import enumerate_tubes


@pytest.fixture
def w5_dual(w5):
    return initial_dual(w5)


def _first_stage(P):
    """The dual and lattice before and after melting the first tube."""
    dual, adm = initial_dual(P)
    tau = melt_order(enumerate_tubes(P, proper_only=True))[0]
    face_ids = [i for i, lab in enumerate(dual.vertex_labels) if adm.le(lab, adm.s_tau(tau))]
    new_adm = admissible_tubings(P, MeltedSet.of(P, {tau}))
    return dual, adm, stellar_subdivide(dual, face_ids, new_adm), new_adm


def test_swapped_vertex_labels(w5_dual):
    dual, adm = w5_dual
    labels = list(dual.vertex_labels)
    labels[0], labels[1] = labels[1], labels[0]
    with pytest.raises(MismatchError, match="vertex set disagrees") as info:
        lattice_match(replace(dual, vertex_labels=tuple(labels)), adm)
    # the message names a face whose vertex set the swap changed
    moved = [T for T in adm.elements if adm.le(labels[0], T) != adm.le(labels[1], T)]
    assert any(f"face {sorted(t.members for t in T)} " in str(info.value) for T in moved)


def test_polytope_against_previous_lattice(w5):
    _, old_adm, new_dual, new_adm = _first_stage(w5)
    lattice_match(new_dual, new_adm)
    with pytest.raises(MismatchError):
        lattice_match(new_dual, old_adm)


def test_vertex_moved_off_its_facet(w5_dual):
    dual, _ = w5_dual
    dual.certify()
    i = min(dual.incidence[0])
    centroid = dual.centroid()
    step = F(1, 97)
    moved = tuple(x + step * (c - x) for x, c in zip(dual.vertices[i], centroid))
    vertices = dual.vertices[:i] + (moved,) + dual.vertices[i + 1:]
    with pytest.raises(MismatchError, match="incidence mismatch"):
        replace(dual, vertices=vertices).certify()


def test_claimed_facet_does_not_support(w5_dual):
    dual, _ = w5_dual
    on_no_facet = [
        ids for ids in itertools.combinations(range(dual.n_vertices), dual.dim)
        if not any(set(ids) <= inc for inc in dual.incidence)
    ]
    assert on_no_facet
    for ids in on_no_facet:
        with pytest.raises(MismatchError, match="does not support"):
            facet_through(dual.rows, ids)


@dataclass(frozen=True)
class _OneFaceOff(AdmissiblePoset):
    """Claims one more dimension for the face ``off`` than it has."""

    off: frozenset = frozenset()

    def dim(self, T):
        return super().dim(T) + (T == self.off)


def test_face_with_wrong_dimension(w5_dual):
    dual, adm = w5_dual
    edge = next(T for T in adm.elements if adm.dim(T) == 1)
    wrong = _OneFaceOff(adm.host, adm.melted, adm.elements, edge)
    with pytest.raises(MismatchError, match="wrong dimension"):
        lattice_match(dual, wrong)


def _face_centroid(Q, face_ids):
    """A pull-out point that was never pulled out: it stays on the face."""
    pts = [Q.vertices[i] for i in sorted(face_ids)]
    return tuple(sum(col, F(0)) / len(pts) for col in zip(*pts))


@pytest.mark.parametrize("realize,host,stage", [
    (realize_poset_associahedron, corpus.w5(), r"melting \{1,2,3,4\}: "),
    (realize_affine_cyclohedron, corpus.circular_chain(3), r"melting class \{1,2,3\}: "),
])
def test_stage_failure_names_the_melted_tube(monkeypatch, realize, host, stage):
    monkeypatch.setattr(geometry, "_pullout_point", _face_centroid)
    with pytest.raises(MismatchError, match=stage + r"face \[.*\] vertex set disagrees"):
        realize(host)

"""Tampered final duals must fail the final-lattice check.

The melting induction ends by checking that the final dual's vertices are
the proper tubes (or tube classes), its facets the maximal tubings, and its
incidence tube membership.  Each test corrupts one of these and expects
MismatchError.
"""

from dataclasses import replace

import pytest

from posetahedra import affine, corpus, geometry
from posetahedra.errors import MismatchError
from posetahedra.polytope import Facet

# host name -> (host, realize, final check, a different host of the same size)
CASES = {
    "w5": (corpus.w5(), geometry.realize_poset_associahedron,
           geometry._check_final_lattice, corpus.chain(5)),
    "cchain3": (corpus.circular_chain(3), affine.realize_affine_cyclohedron,
                geometry._check_final_lattice, corpus.circular_claw(3)),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    host, realize, check, other = CASES[request.param]
    R = realize(host)
    check(host, R.dual, R.lattice)  # the untouched result passes
    return host, R, check, other, realize


def test_swapped_vertex_labels(case):
    host, R, check, _, _ = case
    labels = list(R.dual.vertex_labels)
    labels[0], labels[1] = labels[1], labels[0]
    with pytest.raises(MismatchError, match="incidence disagrees"):
        check(host, replace(R.dual, vertex_labels=tuple(labels)), R.lattice)


def test_facet_label_missing_a_tube(case):
    host, R, check, _, _ = case
    f = R.dual.facets[0]
    # the smallest tube of more than one element is proper: the root is larger
    dropped = min((t for t in f.label if len(t) > 1), key=len)
    facets = (Facet(f.normal, f.offset, label=f.label - {dropped}),) + R.dual.facets[1:]
    with pytest.raises(MismatchError, match="maximal tubings"):
        check(host, replace(R.dual, facets=facets), R.lattice)


def test_lattice_of_another_host(case):
    host, R, check, other, realize = case
    wrong = realize(other).lattice
    assert wrong.faces != R.lattice.faces
    with pytest.raises(MismatchError):
        check(host, R.dual, wrong)

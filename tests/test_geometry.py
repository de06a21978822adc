import random
from fractions import Fraction as F

import pytest

from posetahedra import corpus
from posetahedra.errors import BitBudgetError, NotAFaceError
from posetahedra.geometry import (
    MeltedSet,
    admissible_tubings,
    initial_dual,
    melt_order,
    order_polytope,
    realize_poset_associahedron,
    stellar_subdivide,
    tube_system,
)
from posetahedra.lattice import f_vector, tubing_partitions
from posetahedra.polytope import polar_dual
from posetahedra.poset import ideal_filter_splits
from posetahedra.tubes import Tube, enumerate_proper_tubings, enumerate_tubes


class TestOrderPolytope:
    def test_segment_exact_vertices(self, c3):
        Q = order_polytope(c3)
        ambient = sorted(tuple(Q.chart.to_ambient(v).items()) for v in Q.vertices)
        assert ambient == [
            ((1, F(-2, 3)), (2, F(1, 3)), (3, F(1, 3))),
            ((1, F(-1, 3)), (2, F(-1, 3)), (3, F(2, 3))),
        ]

    def test_triangle(self, c4):
        Q = order_polytope(c4)
        assert Q.dim == 2 and Q.n_vertices == 3 and Q.n_facets == 3

    def test_w5(self, w5):
        Q = order_polytope(w5)
        assert Q.dim == 3 and Q.n_vertices == 5 and Q.n_facets == 5

    def test_point_for_two_elements(self):
        Q = order_polytope(corpus.chain(2))
        assert Q.dim == 0 and Q.n_vertices == 1 and Q.n_facets == 0

    def test_vertex_count_matches_splits(self):
        for name, P in corpus.DESK_POSETS.items():
            if len(P.elements) > 6:
                continue
            Q = order_polytope(P)
            assert Q.n_vertices == len(ideal_filter_splits(P)), name

    def test_vertices_inside_all_facets(self, w5):
        Q = order_polytope(w5)
        Q.certify()  # exact incidence re-check


class TestPolarDual:
    def test_triangle_self_dual(self, c4):
        Q = order_polytope(c4)
        D = polar_dual(Q)
        assert D.n_vertices == 3 and D.n_facets == 3

    def test_involution_on_w5(self, w5):
        Q = order_polytope(w5)
        DD = polar_dual(polar_dual(Q))
        assert DD.incidence == Q.incidence

    def test_involution_on_pentagon(self, c4):
        primal = realize_poset_associahedron(c4).primal
        DD = polar_dual(polar_dual(primal))
        assert DD.incidence == primal.incidence


class TestAdmissible:
    def test_base_case_counts(self, w5):
        adm = admissible_tubings(w5, MeltedSet.of(w5, ()))
        # one admissible tubing per tubing partition of the poset
        assert len(adm.elements) == len(tubing_partitions(w5)) - 1
        assert len(adm.vertices()) == len(w5.covers)
        dims = sorted({adm.dim(T) for T in adm.elements})
        assert dims == [-1, 0, 1, 2]

    def test_w5_intermediate_melt(self, w5):
        M = MeltedSet.of(w5, (Tube.of((1, 2, 3, 4)), Tube.of((2, 3, 4, 5))))
        adm = admissible_tubings(w5, M)
        assert len(adm.vertices()) == 7

    def test_full_melt_matches_tubings(self, w5):
        M = MeltedSet.of(w5, enumerate_tubes(w5, proper_only=True))
        adm = admissible_tubings(w5, M)
        tubings = enumerate_proper_tubings(w5)
        assert len(adm.elements) == len(tubings)
        strip = lambda T: frozenset(t for t in T if 1 < len(t) < 5)
        assert {strip(T) for T in adm.elements} == {frozenset(T.tubes) for T in tubings}

    def test_upward_closure_enforced(self, w5):
        with pytest.raises(ValueError):
            MeltedSet.of(w5, (Tube.of((1, 2)),))  # {1,2,3} etc. not melted

    def test_a_set_not_of_tubes_is_refused(self, w5):
        with pytest.raises(ValueError, match=r"not tubes of the host: \{1,5\}"):
            MeltedSet.of(w5, [Tube.of((1, 5))])

    @pytest.mark.parametrize("host", [corpus.DESK_POSETS["h6"], corpus.DESK_AFFINE["cclaw4"]],
                             ids=["h6", "cclaw4"])
    def test_upward_closure_matches_the_definition(self, host):
        """MeltedSet.of refuses a set exactly when a proper tube outside it
        strictly contains a tube in it, by the system's ``contains``."""
        system, rng = tube_system(host), random.Random(7)
        proper = system.proper_tubes()
        for _ in range(40):
            chosen = {t for t in proper if rng.random() < 0.2}
            closure = chosen | {s for s in proper for t in chosen
                                if len(s) > len(t) and system.contains(s, t)}
            assert MeltedSet.of(host, closure).tubes == closure | {system.root}
            if closure != chosen:
                with pytest.raises(ValueError, match="not upward closed"):
                    MeltedSet.of(host, chosen)

    def test_eq_dim_bookkeeping(self, w5):
        M = MeltedSet.of(w5, (Tube.of((1, 2, 3, 4)), Tube.of((2, 3, 4, 5))))
        adm = admissible_tubings(w5, M)
        for T in adm.elements:
            melted = sum(1 for t in T if t in M)
            assert adm.dim(T) == 5 + melted - (len(T) - melted) - 2


class TestStellar:
    def test_subdividing_vertex_keeps_combinatorics(self, c4):
        R = realize_poset_associahedron(c4)
        # the last three melts are 2-element tubes: vertex subdivisions
        assert R.stage_vertex_counts == (3, 4, 5, 5, 5, 5)

    def test_not_a_face(self, w5):
        dual, adm = initial_dual(w5)
        # a diagonal of the pyramid's square facet spans the square, not itself
        pairs = [
            1 << i | 1 << j
            for i in range(dual.n_vertices)
            for j in range(i + 1, dual.n_vertices)
            if dual.face_of(1 << i | 1 << j) != 1 << i | 1 << j
        ]
        assert pairs, "expected some non-face vertex pair in the dual pyramid"
        with pytest.raises(NotAFaceError):
            stellar_subdivide(dual, pairs[0], adm)

    def test_melt_order_weakly_decreasing(self, w5):
        tubes = melt_order(enumerate_tubes(w5, proper_only=True))
        sizes = [len(t) for t in tubes]
        assert sizes == sorted(sizes, reverse=True)
        assert tubes[0].members == (1, 2, 3, 4)


class TestRealize:
    @pytest.mark.parametrize("name,nverts,nfacets", [
        ("chain4", 5, 5),
        ("claw3", 6, 6),
        ("n4", 5, 5),
        ("chain5", 14, 9),
        ("diamond4", 6, 6),
    ])
    def test_counts(self, name, nverts, nfacets):
        P = corpus.DESK_POSETS[name]
        R = realize_poset_associahedron(P)
        assert R.primal.n_vertices == nverts
        assert R.primal.n_facets == nfacets
        assert f_vector(R.lattice)[0] == nverts

    def test_w5_counts_and_stages(self, w5):
        R = realize_poset_associahedron(w5)
        assert R.primal.n_facets == 11
        assert R.dual.n_vertices == 11
        # 5 vertices before melting, 7 after the size-4 melts, 11 after size-3
        assert R.stage_vertex_counts[0] == 5
        assert R.stage_vertex_counts[2] == 7
        assert R.stage_vertex_counts[6] == 11

    def test_chain7_reach(self):
        P = corpus.chain(7)
        R = realize_poset_associahedron(P)
        assert R.primal.n_vertices == len(enumerate_proper_tubings(P, max_only=True))
        assert R.primal.n_facets == len(enumerate_tubes(P, proper_only=True))

    def test_two_element_poset_is_point(self):
        R = realize_poset_associahedron(corpus.chain(2))
        assert R.primal.n_vertices == 1 and R.primal.n_facets == 0

    def test_facets_labeled_by_tubes(self, c4):
        R = realize_poset_associahedron(c4)
        labels = set()
        for f in R.primal.facets:
            proper = [t for t in f.label if 1 < len(t) < 4]
            assert len(proper) == 1
            labels.add(proper[0])
        assert labels == set(enumerate_tubes(c4, proper_only=True))

    def test_bit_budget_guard(self, w5, monkeypatch):
        monkeypatch.setenv("POSETAHEDRA_MAX_BITS", "4")
        with pytest.raises(BitBudgetError):
            realize_poset_associahedron(w5)

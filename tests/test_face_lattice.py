import dataclasses

import pytest

from posetahedra import corpus
from posetahedra.errors import NotGradedError
from posetahedra.lattice import (
    EMPTY,
    associahedron_face_lattice,
    f_vector,
    face_product_decomposition,
    h_vector,
    is_flag_dual,
    order_polytope_face_lattice,
    tubing_partitions,
)
from posetahedra.tubes import Tube, Tubing, enumerate_proper_tubings, full_tube


class TestAssociahedronLattice:
    def test_pentagon(self, c4):
        L = associahedron_face_lattice(c4)
        assert f_vector(L) == (5, 5, 1)
        assert h_vector(L) == (1, 3, 1)

    def test_hexagon(self, claw3):
        L = associahedron_face_lattice(claw3)
        assert f_vector(L) == (6, 6, 1)
        assert h_vector(L) == (1, 4, 1)

    def test_three_dimensional_associahedron(self):
        L = associahedron_face_lattice(corpus.chain(5))
        assert f_vector(L) == (14, 21, 9, 1)
        assert h_vector(L) == (1, 6, 6, 1)

    def test_point(self):
        L = associahedron_face_lattice(corpus.chain(2))
        assert f_vector(L) == (1,)
        assert h_vector(L) == (1,)
        assert L.euler_sum() == 0

    def test_reverse_inclusion_order(self, c4):
        L = associahedron_face_lattice(c4)
        small = frozenset({Tube.of((1, 2)), Tube.of((1, 2, 3))})
        big = frozenset({Tube.of((1, 2))})
        # more tubes = smaller face = lower in the lattice
        i, j = L.index(small), L.index(big)
        assert L.dims[i] == 0 and L.dims[j] == 1
        assert (i, j) in L.covers

    def test_dimension_formula(self):
        for name, P in corpus.DESK_POSETS.items():
            L = associahedron_face_lattice(P)
            n = len(P.elements)
            for key, dim in zip(L.faces, L.dims):
                if key is EMPTY:
                    assert dim == -1
                else:
                    assert dim + len(key) == n - 2, (name, key)

    def test_euler_relation(self):
        for name, P in corpus.DESK_POSETS.items():
            assert associahedron_face_lattice(P).euler_sum() == 0, name

    def test_simplicity(self):
        for name, P in corpus.DESK_POSETS.items():
            L = associahedron_face_lattice(P)
            want = len(P.elements) - 2
            for key in L.faces_of_dim(0):
                assert len(L.upper_covers(L.index(key))) == want, (name, key)


class TestGradedChecks:
    """Each check of check_graded fires on a pentagon lattice tampered with."""

    @staticmethod
    def pentagon():
        L = associahedron_face_lattice(corpus.chain(4))
        L.check_graded()
        return L

    def test_cover_with_dimension_gap_two(self):
        L = self.pentagon()
        vertex, top = L.dims.index(0), L.dims.index(L.dim)
        bad = dataclasses.replace(L, covers=tuple(L.covers) + ((vertex, top),))
        for vector in (f_vector, h_vector, f_vector):  # a failure is not remembered
            with pytest.raises(NotGradedError, match="dimension gap"):
                vector(bad)

    def test_graded_once(self):
        """h_vector after f_vector does not grade the lattice again."""

        class Covers(tuple):
            reads = 0

            def __iter__(self):
                Covers.reads += 1
                return super().__iter__()

        L = self.pentagon()
        counted = dataclasses.replace(L, covers=Covers(L.covers))
        assert f_vector(counted) == f_vector(L)
        reads = Covers.reads
        assert h_vector(counted) == h_vector(L)
        assert Covers.reads == reads

    def test_face_without_upper_cover(self):
        L = self.pentagon()
        vertex = L.dims.index(0)
        bad = dataclasses.replace(L, covers=tuple(c for c in L.covers if c[0] != vertex))
        with pytest.raises(NotGradedError, match="no upper cover"):
            f_vector(bad)

    def test_face_without_lower_cover(self):
        L = self.pentagon()
        empty, vertex = L.faces.index(EMPTY), L.dims.index(0)
        bad = dataclasses.replace(L, covers=tuple(c for c in L.covers if c != (empty, vertex)))
        with pytest.raises(NotGradedError, match="no lower cover"):
            f_vector(bad)

    def test_missing_top_face(self):
        L = self.pentagon()
        top = L.dims.index(L.dim)
        keep = [i for i in range(len(L.faces)) if i != top]
        renumber = {old: new for new, old in enumerate(keep)}
        bad = dataclasses.replace(
            L,
            faces=tuple(L.faces[i] for i in keep),
            dims=tuple(L.dims[i] for i in keep),
            covers=tuple((renumber[a], renumber[b]) for a, b in L.covers
                         if a in renumber and b in renumber),
        )
        with pytest.raises(NotGradedError, match="missing top face"):
            f_vector(bad)


class TestOrderPolytopeLattice:
    def test_segment(self, c3):
        L = order_polytope_face_lattice(c3)
        assert f_vector(L) == (2, 1)

    def test_triangle(self, c4):
        assert f_vector(order_polytope_face_lattice(c4)) == (3, 3, 1)

    def test_w5_square_pyramid(self, w5):
        L = order_polytope_face_lattice(w5)
        fv = f_vector(L)
        assert fv[0] == 5 and fv[L.dim - 1] == 5
        assert fv == (5, 8, 5, 1)
        assert L.euler_sum() == 0

    def test_facets_are_covers(self):
        for name, P in corpus.DESK_POSETS.items():
            L = order_polytope_face_lattice(P)
            if L.dim >= 1:
                assert len(L.faces_of_dim(L.dim - 1)) == len(P.covers), name

    def test_single_block_is_empty_face(self, c3):
        parts = tubing_partitions(c3)
        assert frozenset({full_tube(c3)}) in parts


class TestFlagness:
    def test_h6_witness(self, h6):
        check = is_flag_dual(h6)
        assert not check.ok
        assert sorted(t.members for t in check.witness) == [(1, 2), (3, 4), (5, 6)]

    def test_chains_are_flag(self):
        assert is_flag_dual(corpus.chain(4)).ok
        assert is_flag_dual(corpus.chain(5)).ok

    def test_witness_subsets_are_faces(self, h6):
        from posetahedra.tubes import is_tubing

        witness = is_flag_dual(h6).witness
        for drop in witness:
            assert is_tubing(h6, [t for t in witness if t != drop]).ok
        assert not is_tubing(h6, witness).ok


class TestFaceProducts:
    def test_w5_single_tube(self, w5):
        T = Tubing.of(w5, [(1, 2, 3)])
        factors = face_product_decomposition(w5, T)
        sizes = sorted(len(f.elements) for f in factors)
        assert sizes == [3, 3]
        assert sum(len(f.elements) - 2 for f in factors) == 5 - 1 - 2

    def test_empty_tubing(self, w5):
        factors = face_product_decomposition(w5, Tubing.of(w5, []))
        assert len(factors) == 1 and factors[0].covers == w5.covers

    def test_chain_two_blocks(self, c4):
        T = Tubing.of(c4, [(1, 2), (3, 4)])
        factors = face_product_decomposition(c4, T)
        assert sorted(len(f.elements) for f in factors) == [2, 2, 2]
        assert sum(len(f.elements) - 2 for f in factors) == 0

    def test_dimension_identity_everywhere(self):
        for name, P in corpus.DESK_POSETS.items():
            if len(P.elements) > 6:
                continue
            n = len(P.elements)
            for T in enumerate_proper_tubings(P):
                factors = face_product_decomposition(P, T)
                total = sum(len(f.elements) - 2 for f in factors)
                assert total == n - len(T.tubes) - 2, (name, T)

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posetahedra import corpus
from posetahedra.affine import (
    AffinePoset,
    AffineTube,
    affine_admissible_tubings,
    affine_face_factors,
    affine_order_polytope,
    build_affine_poset,
    class_contains,
    class_nested_or_disjoint,
    cyclohedron_face_lattice,
    enumerate_affine_tubes,
    enumerate_affine_tubings,
    interior_witness,
    is_affine_tubing,
    linear_extension,
    make_affine_tube,
    maximal_proper_classes,
    quotient_affine_poset,
    realize_affine_cyclohedron,
    tube_from_signed_pair,
)
from posetahedra.errors import (
    CycleError,
    EmptyError,
    NotATubeError,
    NotStronglyConnectedError,
    OverlapError,
)
from posetahedra.lattice import EMPTY, f_vector, h_vector
from strategies import SETTINGS


@pytest.fixture
def cc3():
    return corpus.circular_chain(3)


@pytest.fixture
def ck3():
    return corpus.circular_claw(3)


class TestBuildAffine:
    def test_circular_chain(self, cc3):
        assert cc3.lt(1, 2) and cc3.lt(1, 4) and cc3.lt(-2, 0)
        assert not cc3.lt(2, 1)

    def test_circular_claw(self, ck3):
        # leaves 1 and 2 are incomparable, both between consecutive hubs
        assert ck3.lt(1, 3) and ck3.lt(2, 3) and ck3.lt(0, 1)
        assert not ck3.lt(1, 2) and not ck3.lt(2, 1)

    def test_cycle_error(self):
        with pytest.raises(CycleError):
            build_affine_poset(2, [(1, 2), (2, 1)])

    def test_descending_cycle_error(self):
        with pytest.raises(CycleError):
            build_affine_poset(2, [(1, 2), (2, 1 - 2)])

    def test_not_strongly_connected(self):
        with pytest.raises(NotStronglyConnectedError):
            build_affine_poset(4, [(1, 3), (2, 4), (3, 5), (4, 6)])

    def test_periodicity_invariant(self, cc3, ck3):
        for A in (cc3, ck3):
            n = A.n
            for i in range(-n, 2 * n + 1):
                for j in range(-n, 2 * n + 1):
                    assert A.le(i, j) == A.le(i + n, j + n)

    def test_order_one(self):
        A = corpus.circular_chain(1)
        assert A.lt(0, 1) and A.lt(3, 7)


class TestLinearExtension:
    def test_circular_chain_identity_pattern(self, cc3):
        phi = linear_extension(cc3)
        assert [phi[i] - phi[1] for i in (1, 2, 3)] == [0, 1, 2]

    def test_valid_on_window(self, cc3, ck3):
        for A in (cc3, ck3, corpus.circular_claw(4)):
            phi = linear_extension(A)
            n = A.n
            val = lambda i: phi[(i - 1) % n + 1] + (i - ((i - 1) % n + 1))
            for i in range(-2 * n, 2 * n):
                assert val(i + n) == val(i) + n
                for j in range(-2 * n, 2 * n):
                    if A.lt(i, j):
                        assert val(i) < val(j)

    def test_order_one_identity(self):
        phi = linear_extension(corpus.circular_chain(1))
        assert phi == {1: 1}

    @pytest.mark.parametrize("minshift,message", [
        (((1, 1), (-1, -2)), "no fundamental domain"),
        (((-2, 1), (1, 2)), "relabeling breaks"),
    ])
    def test_non_order_shift_matrix_raises(self, minshift, message):
        # built directly, bypassing build_affine_poset's validation
        A = AffinePoset(n=2, gen_covers=(), minshift=minshift)
        with pytest.raises(CycleError, match=message):
            linear_extension(A)


class TestAffineTubes:
    def test_cc3_classes(self, cc3):
        classes = enumerate_affine_tubes(cc3)
        assert sorted(t.members for t in classes) == [
            (1, 2), (1, 2, 3), (2, 3), (2, 3, 4), (3, 4), (3, 4, 5),
        ]

    def test_ck3_eight_classes(self, ck3):
        assert len(enumerate_affine_tubes(ck3)) == 8

    def test_order_one_none(self):
        assert enumerate_affine_tubes(corpus.circular_chain(1)) == ()

    def test_residue_repetition_rejected(self, cc3):
        with pytest.raises(NotATubeError):
            make_affine_tube(cc3, [1, 4])

    def test_not_convex_rejected(self, cc3):
        with pytest.raises(NotATubeError):
            make_affine_tube(cc3, [1, 3])

    def test_canonical_representative(self, cc3):
        tube = make_affine_tube(cc3, [6, 7])
        assert tube.members == (3, 4)

    def test_class_predicates(self, cc3):
        t12 = AffineTube((1, 2))
        t123 = AffineTube((1, 2, 3))
        t34 = AffineTube((3, 4))
        assert class_contains(cc3, t123, t12)
        assert not class_contains(cc3, t12, t123)
        # instances {3,4} and {4,5} = {1,2}+3 overlap in one element
        assert not class_nested_or_disjoint(cc3, t12, t34)
        assert class_contains(cc3, AffineTube((3, 4, 5)), t12)


@st.composite
def tube_class_pairs(draw):
    """A period n and two classes of member sets spanning up to six periods,
    the inner one often a subset of the outer one, and full classes too.
    Only the period and the members matter to class_contains, so the sets
    need not be tubes."""
    n = draw(st.integers(1, 4))
    A = corpus.circular_chain(n)
    spread = st.sets(st.integers(1, 6 * n), min_size=1, max_size=6)
    outer = draw(spread)
    # a subset lying high in outer is canonical only after a shift by
    # several periods, so outer's containing instance lies that far below
    inner = draw(st.one_of(spread, st.sets(st.sampled_from(sorted(outer)), min_size=1)))
    full = draw(st.sampled_from(["neither", "neither", "outer", "inner"]))
    return (A, AffineTube.full() if full == "outer" else AffineTube.of(A, outer),
            AffineTube.full() if full == "inner" else AffineTube.of(A, inner))


@SETTINGS
@given(tube_class_pairs())
def test_class_contains_matches_shift_scan(case):
    A, outer, inner = case
    if outer.is_full or inner.is_full:
        expected = outer.is_full
    else:
        expected = any(inner.as_set <= outer.instance(d, A.n) for d in range(-40, 41))
    assert class_contains(A, outer, inner) == expected


class TestAffineTubings:
    def test_single_class_always_valid(self, cc3):
        for cls in enumerate_affine_tubes(cc3):
            assert is_affine_tubing(cc3, [cls])

    def test_crossing_pair_invalid(self, cc3):
        assert not is_affine_tubing(cc3, [AffineTube((1, 2)), AffineTube((3, 4))])

    def test_hexagon_vertex_pairs(self, cc3):
        verts = enumerate_affine_tubings(cc3, max_only=True)
        assert len(verts) == 6
        for T in verts:
            assert len(T) == 2

    def test_cyclohedron_vertex_counts(self):
        # binomial(2(n-1), n-1) vertices for circular chains
        for n in (2, 3, 4):
            A = corpus.circular_chain(n)
            verts = enumerate_affine_tubings(A, max_only=True)
            assert len(verts) == math.comb(2 * (n - 1), n - 1), n

    def test_type_b_vertex_counts(self):
        for n in (2, 3, 4):
            A = corpus.circular_claw(n)
            verts = enumerate_affine_tubings(A, max_only=True)
            assert len(verts) == 2 ** (n - 1) * math.factorial(n - 1), n


class TestAffineTubingType:
    def test_validated_constructor(self, cc3):
        from posetahedra.affine import AffineTubing
        from posetahedra.errors import NotATubingError

        T = AffineTubing.of(cc3, [(4, 5)])  # canonicalized to {1,2}
        assert [c.members for c in T] == [(1, 2)]
        with pytest.raises(NotATubingError):
            AffineTubing.of(cc3, [(1, 2), (3, 4)])


class TestCyclohedronLattice:
    def test_hexagon(self, cc3):
        L = cyclohedron_face_lattice(cc3)
        assert f_vector(L) == (6, 6, 1)
        assert h_vector(L) == (1, 4, 1)
        assert L.euler_sum() == 0

    def test_octagon(self, ck3):
        assert f_vector(cyclohedron_face_lattice(ck3)) == (8, 8, 1)

    def test_segment(self):
        assert f_vector(cyclohedron_face_lattice(corpus.circular_chain(2))) == (2, 1)

    def test_three_dimensional_cyclohedron(self):
        L = cyclohedron_face_lattice(corpus.circular_chain(4))
        assert f_vector(L) == (20, 30, 12, 1)
        assert L.euler_sum() == 0

    def test_dimension_formula(self, ck3):
        L = cyclohedron_face_lattice(ck3)
        for key, dim in zip(L.faces, L.dims):
            if key is not EMPTY:
                assert dim == ck3.n - len(key) - 1

    def test_simplicity(self):
        for name, A in corpus.DESK_AFFINE.items():
            L = cyclohedron_face_lattice(A)
            for key in L.faces_of_dim(0):
                assert len(L.upper_covers(L.index(key))) == A.n - 1, name


class TestSignedPairs:
    def test_examples(self, ck3):
        assert tube_from_signed_pair(ck3, {1}, set()).members == (3, 4)   # {0,1}+3
        assert tube_from_signed_pair(ck3, set(), {2}).members == (2, 3)   # {-1,0}+3
        with pytest.raises(OverlapError):
            tube_from_signed_pair(ck3, {1}, {1})
        with pytest.raises(EmptyError):
            tube_from_signed_pair(ck3, set(), set())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bijection_with_proper_classes(self, n):
        A = corpus.circular_claw(n)
        images = set()
        for kplus_mask in itertools.product((0, 1), repeat=n - 1):
            for kminus_mask in itertools.product((0, 1), repeat=n - 1):
                kplus = {i + 1 for i in range(n - 1) if kplus_mask[i]}
                kminus = {i + 1 for i in range(n - 1) if kminus_mask[i]}
                if kplus & kminus or not kplus | kminus:
                    continue
                images.add(tube_from_signed_pair(A, kplus, kminus))
        assert len(images) == 3 ** (n - 1) - 1
        assert images == set(enumerate_affine_tubes(A))

    def test_face_poset_isomorphism(self, ck3):
        # nested-pair chains (the cross-polytope description) <-> tubings
        n = ck3.n
        pairs = []
        for kp in (set(), {1}, {2}, {1, 2}):
            for km in (set(), {1}, {2}, {1, 2}):
                if not kp & km and kp | km:
                    pairs.append((frozenset(kp), frozenset(km)))

        def chain_ok(chosen):
            # faces are chains of signed subsets under componentwise inclusion
            for (ap, am), (bp, bm) in itertools.combinations(chosen, 2):
                if not ((ap <= bp and am <= bm) or (bp <= ap and bm <= am)):
                    return False
            return True

        faces = set()
        for r in range(len(pairs) + 1):
            for combo in itertools.combinations(pairs, r):
                if chain_ok(combo):
                    faces.add(frozenset(
                        tube_from_signed_pair(ck3, kp, km) for kp, km in combo
                    ))
        tubings = set(enumerate_affine_tubings(ck3))
        assert faces == tubings


class TestAffineOrderPolytope:
    def test_segment(self):
        A = corpus.circular_chain(2)
        Q = affine_order_polytope(A)
        assert Q.dim == 1 and Q.n_vertices == 2 and Q.n_facets == 2
        ambient = sorted(tuple(sorted(Q.chart.to_ambient(v).items())) for v in Q.vertices)
        assert ambient == [
            (((1, F(-1, 2))), (2, F(1, 2))),
            ((1, F(0)), (2, F(0))),
        ]

    def test_vertices_are_maximal_classes(self):
        for name, A in corpus.DESK_AFFINE.items():
            if A.n < 2:
                continue
            Q = affine_order_polytope(A)
            assert Q.n_vertices == len(maximal_proper_classes(A)), name
            assert Q.dim == A.n - 1

    def test_interior_witness_strict(self):
        for name, A in corpus.DESK_AFFINE.items():
            if A.n < 2:
                continue
            Q = affine_order_polytope(A)
            x = interior_witness(A)
            u = Q.chart.to_chart(x)
            for facet in Q.facets:
                assert facet.value(u) < facet.offset, name

    def test_ck3_quadrilateral(self, ck3):
        Q = affine_order_polytope(ck3)
        assert Q.n_vertices == 4 and Q.n_facets == 4


class TestAffineRealization:
    @pytest.mark.parametrize("name,nverts", [
        ("cchain2", 2),
        ("cchain3", 6),
        ("cclaw3", 8),
    ])
    def test_counts(self, name, nverts):
        A = corpus.DESK_AFFINE[name]
        R = realize_affine_cyclohedron(A)
        assert R.primal.n_vertices == len(enumerate_affine_tubings(A, max_only=True))
        assert R.primal.n_facets == nverts  # polygon: facets = vertices

    def test_tube_class_spanning_two_periods(self):
        # {1,6} spans three periods of 2; its shift by -2, {-3,2}, holds {2}
        A = build_affine_poset(2, [(1, 6), (2, 3)])
        assert class_contains(A, AffineTube((1, 6)), AffineTube((2,)))
        R = realize_affine_cyclohedron(A)
        assert R.primal.n_vertices == len(enumerate_affine_tubings(A, max_only=True)) == 2
        assert R.melt_sequence == (AffineTube((1, 6)), AffineTube((2, 3)))

    def test_order_one_point(self):
        R = realize_affine_cyclohedron(corpus.circular_chain(1))
        assert R.primal.n_vertices == 1

    def test_admissible_base_counts(self, cc3):
        adm = affine_admissible_tubings(cc3, frozenset())
        assert len(adm.vertices()) == 3  # cover classes with distinct residues
        assert {adm.dim(T) for T in adm.elements} == {-1, 0, 1}


class TestAffineFactors:
    def test_quotient_contracts_period(self, cc3):
        q = quotient_affine_poset(cc3, [AffineTube((1, 2))])
        assert q.n == 2

    def test_dim_identity(self):
        for name in ("cchain3", "cclaw3", "cchain4"):
            A = corpus.DESK_AFFINE[name]
            L = cyclohedron_face_lattice(A)
            for T in enumerate_affine_tubings(A):
                finite, quotient = affine_face_factors(A, T)
                total = sum(len(p.elements) - 2 for p in finite) + (quotient.n - 1)
                assert total == A.n - len(T) - 1, (name, T)

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from posetahedra import affine, corpus
from posetahedra.affine import (
    FULL,
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
    _shift_weight,
)
from posetahedra.errors import (
    CycleError,
    ElementBudgetError,
    EmptyError,
    NotATubeError,
    NotStronglyConnectedError,
    OverlapError,
)
from posetahedra.lattice import EMPTY, f_vector, h_vector
from posetahedra.poset import MAX_ELEMENTS
from strategies import SETTINGS, affine_posets, periodic_bowtie

# the desk hosts, the largest on which the old search is quick, and a host
# whose Hasse diagram has a cycle on distinct residues (1-3-2-4), where a
# growth search could meet a class twice
OLD_SEARCH_HOSTS = {**corpus.DESK_AFFINE, "cchain5": corpus.circular_chain(5),
                    "cclaw5": corpus.circular_claw(5), "bowtie": periodic_bowtie()}


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

    def test_element_budget(self, monkeypatch):
        """A period of MAX_ELEMENTS is built; one more is refused before
        the shift matrix is allocated."""
        assert corpus.circular_chain(MAX_ELEMENTS).n == MAX_ELEMENTS
        monkeypatch.setattr(affine, "_min_plus_closure", None)  # never reached
        for n in (MAX_ELEMENTS + 1, 10**5):
            with pytest.raises(ElementBudgetError, match=f"period {n}"):
                build_affine_poset(n, [])


def _hasse_matches_the_old_cover_test(A):
    """The Hasse diagram on the elements of three periods, and the cover
    classes, equal the old per-call cover test."""
    assert A.cover_classes == oracles.cover_classes(A)
    for i in range(1 - A.n, 2 * A.n + 1):
        assert A.hasse_neighbors(i) == oracles.hasse_neighbors(A, i)


class TestHasseDiagram:
    @pytest.mark.parametrize("name", sorted(OLD_SEARCH_HOSTS))
    def test_matches_the_old_cover_test(self, name):
        _hasse_matches_the_old_cover_test(OLD_SEARCH_HOSTS[name])

    @SETTINGS
    @given(affine_posets())
    def test_matches_the_old_cover_test_random(self, A):
        _hasse_matches_the_old_cover_test(A)


def _covers_match_the_between_test(A):
    """The cover test by residue windows equals the old test that listed
    every element between, on pairs up to three periods apart."""
    n = A.n
    for i in range(1 - n, 2 * n + 1):
        for j in range(i - 3 * n, i + 3 * n + 1):
            assert A.is_cover(i, j) == oracles.is_cover(A, i, j), (i, j)


def _verdict(A, members):
    try:
        make_affine_tube(A, members)
    except NotATubeError as failure:
        return str(failure).split(" ", 1)[1]
    return None


def _tube_verdicts_match_the_between_test(A):
    """On every set of at most n elements of a window of two periods, the
    tube constructor's verdict equals the old convexity test (every element
    between two members listed) followed by the Hasse connectivity test."""
    n = A.n
    for size in range(1, n + 1):
        for members in itertools.combinations(range(1, 2 * n + 1), size):
            if len({A.residue(m) for m in members}) < size:
                expected = "repeats a residue class"
            elif not oracles.affine_convex(A, members):
                expected = "is not convex"
            else:
                hasse = [(i, j) for i in members for j in members if oracles.is_cover(A, i, j)]
                expected = None if oracles.connected(hasse, members) else "is not connected"
            assert _verdict(A, members) == expected, members


def _linear_extension_is_strict(A):
    """phi is period-equivariant and strictly order-preserving on a window
    of four periods."""
    phi, n = linear_extension(A), A.n
    val = lambda i: phi[(i - 1) % n + 1] + (i - ((i - 1) % n + 1))
    for i in range(-2 * n, 2 * n):
        assert val(i + n) == val(i) + n
        for j in range(-2 * n, 2 * n):
            if A.lt(i, j):
                assert val(i) < val(j), (i, j)


ORDER_CHECKS = [_covers_match_the_between_test, _tube_verdicts_match_the_between_test,
                _linear_extension_is_strict]


class TestOrderWithoutBetween:
    """The order relations read off the shift matrix per residue equal the
    old tests that listed every element between two elements."""

    @pytest.mark.parametrize("check", ORDER_CHECKS, ids=lambda check: check.__name__)
    def test_periodic_bowtie(self, check):
        check(periodic_bowtie())

    @pytest.mark.parametrize("check", ORDER_CHECKS, ids=lambda check: check.__name__)
    @SETTINGS
    @given(A=affine_posets())
    def test_random(self, check, A):
        check(A)


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
        # a fundamental domain whose relations form a cycle
        (((-1, -1, -1), (-1, -1, -1), (-1, -1, 0)), "fundamental domain has a cycle"),
    ])
    def test_non_order_shift_matrix_raises(self, minshift, message):
        # built directly, bypassing build_affine_poset's validation
        A = AffinePoset(n=len(minshift), gen_covers=(), minshift=minshift)
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

    @pytest.mark.parametrize("name", sorted(OLD_SEARCH_HOSTS))
    @pytest.mark.parametrize("proper_only", [True, False])
    def test_classes_match_the_old_search(self, name, proper_only):
        """Both lists, the proper one filtered from the cached full one,
        equal the old window search for that flag, order included, so the
        growth search meets each class once."""
        A = OLD_SEARCH_HOSTS[name]
        expected = oracles.enumerate_affine_tubes(A, proper_only, make_affine_tube,
                                                  NotATubeError, AffineTube, FULL)
        assert enumerate_affine_tubes(A, proper_only=proper_only) == expected

    @SETTINGS
    @given(affine_posets())
    def test_classes_match_the_old_search_random(self, A):
        expected = oracles.enumerate_affine_tubes(A, False, make_affine_tube,
                                                  NotATubeError, AffineTube, FULL)
        assert enumerate_affine_tubes(A, proper_only=False) == expected

    def test_residue_repetition_rejected(self, cc3):
        with pytest.raises(NotATubeError, match=r"^\{1,4\} repeats a residue class$"):
            make_affine_tube(cc3, [1, 4])

    def test_not_convex_rejected(self, cc3):
        with pytest.raises(NotATubeError, match=r"^\{1,3\} is not convex$"):
            make_affine_tube(cc3, [1, 3])

    def test_not_connected_rejected(self, ck3):
        with pytest.raises(NotATubeError, match=r"^\{1,2\} is not connected$"):
            make_affine_tube(ck3, [1, 2])

    def test_class_search_formats_no_message(self, ck3, monkeypatch):
        """The search rejects most candidates, and names none of them."""
        calls = []
        monkeypatch.setattr(AffineTube, "__repr__", lambda tube: calls.append(tube) or "")
        enumerate_affine_tubes.cache_clear()
        assert len(enumerate_affine_tubes(ck3)) == 8
        assert calls == []

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


@SETTINGS
@given(tube_class_pairs())
def test_class_nested_or_disjoint_matches_shift_scan(case):
    A, a, b = case
    if a.is_full or b.is_full:
        expected = True
    else:
        expected = all(not a.as_set & inst or a.as_set <= inst or inst <= a.as_set
                       for d in range(-40, 41) if (a, d) != (b, 0)
                       for inst in [b.instance(d, A.n)])
    assert class_nested_or_disjoint(A, a, b) == expected


class TestAffineTubings:
    def test_single_class_always_valid(self, cc3):
        for cls in enumerate_affine_tubes(cc3):
            assert is_affine_tubing(cc3, [cls])

    def test_crossing_pair_invalid(self, cc3):
        assert not is_affine_tubing(cc3, [AffineTube((1, 2)), AffineTube((3, 4))])

    @pytest.mark.parametrize("host, inner", [("cchain3", (1, 2)), ("cclaw3", (1, 3))])
    def test_nested_pairs_are_tubings(self, host, inner):
        """Inner and outer relate at shift 0 both ways, but are nested there:
        the weights skip that shift, so the pair closes no cycle."""
        A = corpus.DESK_AFFINE[host]
        inner, outer = AffineTube(inner), AffineTube((1, 2, 3))
        assert _shift_weight(A, inner, outer) == _shift_weight(A, outer, inner) == 1
        assert is_affine_tubing(A, [inner, outer])
        assert frozenset({inner, outer}) in enumerate_affine_tubings(A, max_only=True)

    def test_cycle_pair_invalid(self):
        A = periodic_bowtie()
        a, b = AffineTube((1, 3)), AffineTube((2, 4))
        assert class_nested_or_disjoint(A, a, b)
        assert _shift_weight(A, a, b) == _shift_weight(A, b, a) == 0
        assert not is_affine_tubing(A, [a, b])

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

    def test_every_class_is_validated(self, cc3):
        """Given classes are canonicalized and checked like raw member lists."""
        from posetahedra.affine import AffineTubing

        assert AffineTubing.of(cc3, [AffineTube((4, 5))]).classes == {AffineTube((1, 2))}
        with pytest.raises(NotATubeError, match="not convex"):
            AffineTubing.of(cc3, [AffineTube((1, 3))])


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

    @pytest.mark.parametrize("c", [1, 3, F(1, 2)])
    def test_interior_witness_is_exact(self, c):
        x = interior_witness(corpus.circular_chain(3), c)
        assert all(type(v) is F for v in x.values())
        assert x == {1: F(-1, 3) * c, 2: F(0), 3: F(1, 3) * c}

    @pytest.mark.parametrize("c", [0, -1, F(-1, 2)])
    def test_interior_witness_refuses_a_nonpositive_increment(self, c):
        with pytest.raises(ValueError, match="period increment must be positive"):
            interior_witness(corpus.circular_chain(3), c)

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

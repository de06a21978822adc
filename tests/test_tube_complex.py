"""The bitset tube complex, its one tubing walk and the face-lattice
builders, against the predicates and against verbatim copies of the code
they replaced (``oracles``)."""

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from posetahedra import affine, corpus, tubes
from posetahedra.affine import (
    AffineTube,
    AffineTubing,
    _acyclic,
    _affine_root_partitions,
    _class_walk,
    _children_partition,
    class_contains,
    class_nested_or_disjoint,
    cyclohedron_face_lattice,
    enumerate_affine_tubes,
    enumerate_affine_tubings,
    is_affine_tubing,
    residues_of,
)
from posetahedra.geometry import tube_index
from posetahedra.lattice import (
    EMPTY,
    FaceLattice,
    TubingCovers,
    TubingFaces,
    associahedron_face_lattice,
    f_vector,
    h_vector,
    is_flag_dual,
    order_polytope_face_lattice,
    tubing_partitions,
)
from posetahedra.poset import build_poset
from posetahedra.tubes import (
    Tube,
    Tubing,
    d_graph,
    enumerate_proper_tubings,
    enumerate_tubes,
    has_arrow,
    is_tubing,
    nested_or_disjoint,
    tube_table,
    tubing_walk,
    walk_tubings,
)
from strategies import SETTINGS, affine_posets, connected_posets, periodic_bowtie

# The corpus, plus a host whose flag walk meets a candidate of three tubes
# with a 2-cycle against its prefix: {1,2,4} after {1,2}, {3,5}.
HOSTS = {**corpus.DESK_POSETS, "vee5": build_poset([(2, 1), (2, 3), (2, 4), (5, 3), (5, 4)])}
AFFINE_HOSTS = {**corpus.DESK_AFFINE, "cchain5": corpus.circular_chain(5),
                "cclaw5": corpus.circular_claw(5)}


def check_complex_bits(P):
    table = tube_table(P)
    proper = table.tubes[:-1]
    assert list(proper) == oracles.proper_tubes(P, Tube)
    assert table.tubes[-1] == Tube(P.elements)
    bit = {e: 1 << k for k, e in enumerate(P.elements)}
    for k, e in enumerate(P.elements):
        assert table.above[k] == sum(bit[j] for j in P.elements if P.lt(e, j))
    for i, a in enumerate(table.tubes):
        assert table.mask[i] == sum(bit[e] for e in a)
        assert table.up[i] == sum(bit[j] for j in P.elements if any(P.lt(e, j) for e in a)), a
        for k, b in enumerate(table.tubes):
            assert bool(table.sup[i] >> k & 1) == (a.as_set < b.as_set), (a, b)
    assert len(table.compat) == len(table.arrow) == len(table.arrow_in) == len(proper)
    for i, a in enumerate(proper):
        for k, b in enumerate(proper):
            assert bool(table.compat[i] >> k & 1) == nested_or_disjoint(a, b), (a, b)
            arrow = a.isdisjoint(b) and has_arrow(P, a, b)
            assert bool(table.arrow[i] >> k & 1) == arrow, (a, b)
            assert bool(table.arrow_in[k] >> i & 1) == arrow, (a, b)


def check_tubings(P):
    for max_only in (False, True):
        got = enumerate_proper_tubings(P, max_only)
        assert [T.tubes for T in got] == oracles.enumerate_proper_tubings(P, Tube, max_only)
        # the maximal tubings come from the cached walk, in the order a walk of their own gave
        assert got == oracles.walk_proper_tubings(P, max_only, tubing_walk.__wrapped__,
                                                  Tubing), max_only


def check_flag(P):
    check = is_flag_dual(P)
    assert (check.ok, check.witness) == oracles.is_flag_dual(P, Tube)


def assert_same_lattice(L, old):
    faces, dims, covers = old
    assert tuple(oracles.EMPTY if f is EMPTY else f for f in L.faces) == faces
    assert L.dims == dims
    assert L.covers == covers


def assert_equals_eager_keys(L, old):
    """L, its keys built when read and its covers read off its masks,
    equals and hashes as the lattice of the same faces, dims and covers
    with eager tuple keys and covers, both ways round; a key swapped for
    another, or two cover pairs swapped, breaks the equality."""
    faces, dims, covers = old
    eager = FaceLattice(L.kind, L.dim, tuple(EMPTY if f is oracles.EMPTY else f for f in faces),
                        dims, covers)
    assert isinstance(L.faces, TubingFaces) and isinstance(eager.faces, tuple)
    assert isinstance(L.covers, TubingCovers) and isinstance(eager.covers, tuple)
    assert L == eager and eager == L and hash(L) == hash(eager)
    assert L.faces == eager.faces and eager.faces == L.faces
    assert hash(L.faces) == hash(eager.faces)
    assert L.covers == eager.covers and eager.covers == L.covers
    assert hash(L.covers) == hash(eager.covers) and len(L.covers) == len(eager.covers)
    wrong = dataclasses.replace(eager, faces=eager.faces[:-1] + (EMPTY,))
    assert L != wrong and wrong != L and L.faces != wrong.faces
    swapped = covers[:-2] + covers[:-3:-1]  # the last two pairs, the other way round
    assert swapped != covers
    wrong = dataclasses.replace(eager, covers=swapped)
    assert L != wrong and wrong != L and L.covers != swapped and swapped != L.covers


@SETTINGS
@given(connected_posets(max_size=6))
def test_lazy_keys_equal_eager_keys(P):
    assert_equals_eager_keys(associahedron_face_lattice.__wrapped__(P),
                             oracles.associahedron_face_lattice(P, Tube))


@SETTINGS
@given(affine_posets())
def test_lazy_cyclohedron_keys_equal_eager_keys(A):
    assert_equals_eager_keys(cyclohedron_face_lattice.__wrapped__(A),
                             oracles.cyclohedron_face_lattice(A.n, old_affine_walk(A, False)))


def check_face_lattice(P):
    assert_same_lattice(associahedron_face_lattice(P), oracles.associahedron_face_lattice(P, Tube))


def old_partitions(P, members=None, strict_blocks=False):
    return oracles.tubing_partitions(P, members, strict_blocks, enumerate_tubes,
                                     oracles._find_cycle, d_graph)


def check_partitions(P):
    """The bitmask partitions against the old search, order included: of the
    host, and of every tube's members with strict blocks, as the melting
    induction asks for them."""
    assert tubing_partitions(P) == old_partitions(P)
    for t in enumerate_tubes(P):
        assert tubing_partitions(P, t.members, strict_blocks=True) == old_partitions(
            P, t.members, strict_blocks=True), t


def check_order_lattice(P):
    old = oracles.order_polytope_face_lattice(len(P.elements), old_partitions(P))
    assert_same_lattice(order_polytope_face_lattice(P), old)


def check_flag_tests_compatible_families(P):
    """Every family the flag check hands to is_tubing is one tube short of a
    pairwise compatible candidate, so each of its pairs is a tubing.  The
    check runs inside the host's one walk, so the spy sits in ``tubes`` and
    the walk is made afresh.  On a host that is not flag (h6) the spy sees
    every subfamily of the witness; on vee5 the one candidate of three tubes
    has a 2-cycle, so the spy sees nothing there."""
    seen = []

    def spy(host, tubes_):
        seen.append(tuple(tubes_))
        return is_tubing(host, tubes_)

    tubing_walk.cache_clear()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(tubes, "is_tubing", spy)
        check = is_flag_dual(P)
    if not check:
        witness = check.witness
        for d in range(len(witness)):
            assert witness[:d] + witness[d + 1:] in seen, (witness, d)
    for family in seen:
        for k, a in enumerate(family):
            for b in family[k + 1:]:
                assert is_tubing(P, (a, b)), (family, a, b)


CHECKS = (check_complex_bits, check_tubings, check_flag, check_face_lattice,
          check_partitions, check_order_lattice, check_flag_tests_compatible_families)


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("name", sorted(HOSTS))
def test_host(check, name):
    check(HOSTS[name])


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_random_posets(check):
    SETTINGS(given(connected_posets(max_size=6))(check))()


@SETTINGS
@given(connected_posets(max_size=7))
def test_lattices_match_old_builders_up_to_seven_elements(P):
    check_face_lattice(P)
    check_partitions(P)
    check_order_lattice(P)


@pytest.mark.parametrize("name", sorted(AFFINE_HOSTS))
def test_cyclohedron_lattice_matches_old_builder(name):
    A = AFFINE_HOSTS[name]
    L = cyclohedron_face_lattice(A)
    assert (L.kind, L.dim) == ("cyclohedron", A.n - 1)
    assert_same_lattice(L, oracles.cyclohedron_face_lattice(A.n, enumerate_affine_tubings(A)))


@SETTINGS
@given(affine_posets())
def test_random_cyclohedron_lattices_match_old_builder(A):
    """The lattice against the old builder, fed by the old walk and rule."""
    L = cyclohedron_face_lattice(A)
    assert (L.kind, L.dim) == ("cyclohedron", A.n - 1)
    assert_same_lattice(L, oracles.cyclohedron_face_lattice(A.n, old_affine_walk(A, False)))


# The old periodic tubing check (root-block Floyd–Warshall plus a finite cycle
# check per class), so the old walk below does not share the new rule.
OLD_IS_AFFINE_TUBING = oracles.affine_tubing_check(
    AffineTube, class_nested_or_disjoint, class_contains, residues_of, _children_partition,
    oracles._find_cycle)


def old_affine_walk(A, max_only):
    return oracles.enumerate_affine_tubings(A, max_only, enumerate_affine_tubes,
                                            class_nested_or_disjoint, OLD_IS_AFFINE_TUBING)


@pytest.mark.parametrize("name", sorted(corpus.DESK_AFFINE) + ["bowtie"])
def test_affine_tubings_match_old_walk(name):
    A = periodic_bowtie() if name == "bowtie" else corpus.DESK_AFFINE[name]
    for max_only in (False, True):
        assert enumerate_affine_tubings(A, max_only) == old_affine_walk(A, max_only)


@SETTINGS
@given(affine_posets(), st.integers(0, 2**32 - 1))
def test_random_affine_hosts_match_the_old_rule(A, seed):
    """The walk, and the rule on random laminar families (grown greedily, so
    that families with cycles occur) and on random subsets, against the old
    check."""
    assert enumerate_affine_tubings(A, False) == old_affine_walk(A, False)
    classes = list(enumerate_affine_tubes(A))
    rng = random.Random(seed)
    for _ in range(10):
        rng.shuffle(classes)
        family = []
        for cls in classes[:rng.randint(1, len(classes))]:
            if all(class_nested_or_disjoint(A, cls, c) for c in family):
                family.append(cls)
        for combo in (family, rng.sample(classes, min(len(classes), rng.randint(1, A.n)))):
            assert is_affine_tubing(A, combo) == OLD_IS_AFFINE_TUBING(A, combo), combo



def check_root_partitions(A):
    """The periodic tubing partitions of the line against the old search,
    order included."""
    assert _affine_root_partitions(A) == oracles.affine_root_partitions(
        A, enumerate_affine_tubes, residues_of, AffineTube, _acyclic)


@pytest.mark.parametrize("name", sorted(AFFINE_HOSTS) + ["bowtie"])
def test_root_partitions_match_old_search(name):
    check_root_partitions(periodic_bowtie() if name == "bowtie" else AFFINE_HOSTS[name])


@SETTINGS
@given(affine_posets())
def test_random_root_partitions_match_old_search(A):
    check_root_partitions(A)


def check_class_relations(A):
    """The walk's compatibility masks, each unordered pair of classes tested
    once, against the scan of every ordered pair; the containment of the
    melting induction's tube index against the shift scan of every pair."""
    compat, tested = [], []

    def walk(classes, masks, grow):
        compat.extend(masks)
        return walk_tubings(classes, masks, grow)

    def spy(host, a, b):
        tested.append((a, b))
        return class_nested_or_disjoint(host, a, b)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(affine, "walk_tubings", walk)
        monkeypatch.setattr(affine, "class_nested_or_disjoint", spy)
        _class_walk.__wrapped__(A)
    classes = enumerate_affine_tubes(A, proper_only=True)
    assert compat == [sum(1 << y for y, b in enumerate(classes) if class_nested_or_disjoint(A, a, b))
                      for a in classes]
    assert len(tested) == len(set(map(frozenset, tested))) == len(classes) * (len(classes) + 1) // 2
    index = tube_index.__wrapped__(A)
    assert index.sub == tuple(sum(1 << j for j, s in enumerate(index.tubes)
                                  if oracles.class_contains(A, t, s)) for t in index.tubes)


@pytest.mark.parametrize("name", sorted(corpus.DESK_AFFINE) + ["bowtie"])
def test_class_relations_match_the_ordered_scans(name):
    check_class_relations(periodic_bowtie() if name == "bowtie" else corpus.DESK_AFFINE[name])


@SETTINGS
@given(affine_posets())
def test_random_class_relations_match_the_ordered_scans(A):
    check_class_relations(A)


def test_affine_walk_never_calls_is_affine_tubing(monkeypatch):
    calls = []

    def spy(A, classes):
        calls.append(classes)
        return is_affine_tubing(A, classes)

    monkeypatch.setattr(affine, "is_affine_tubing", spy)
    for cache in (_class_walk, enumerate_affine_tubings):
        cache.cache_clear()
    for A in corpus.DESK_AFFINE.values():
        assert enumerate_affine_tubings(A) == old_affine_walk(A, False)
    assert calls == []
    AffineTubing.of(corpus.circular_chain(3), [(1, 2)])  # the spy does see a caller
    assert len(calls) == 1


@pytest.mark.parametrize("first", ["flag", "lattice", "maximal"])
def test_each_complex_is_walked_once(monkeypatch, first):
    """The flag check, the face lattice and the maximal tubings of a host
    share one walk of its complex, whichever is asked for first."""
    walks = []

    def counted(tubes_, compat, grow):
        walks.append(tubes_)
        return walk_tubings(tubes_, compat, grow)

    monkeypatch.setattr(tubes, "walk_tubings", counted)
    readers = {"flag": lambda P: is_flag_dual(P).witness,
               "lattice": associahedron_face_lattice,
               "maximal": lambda P: enumerate_proper_tubings(P, max_only=True)}
    order = [first, *(name for name in readers if name != first)]
    for cache in (tubing_walk, associahedron_face_lattice, enumerate_proper_tubings):
        cache.cache_clear()
    for name in sorted(HOSTS):
        P = HOSTS[name]
        witnesses = []
        for reader in order:
            readers[reader](P)
            witnesses.append(is_flag_dual(P).witness)
        assert len(walks) == 1, (name, walks)
        assert set(witnesses) == {oracles.is_flag_dual(P, Tube)[1]}, name
        walks.clear()


@pytest.mark.parametrize("first", ["lattice", "maximal"])
def test_each_affine_complex_is_walked_once(monkeypatch, first):
    """The face lattice and the maximal tubings of an affine host share one
    walk of its classes, whichever is asked for first."""
    walks = []

    def counted(classes, compat, grow):
        walks.append(classes)
        return walk_tubings(classes, compat, grow)

    monkeypatch.setattr(affine, "walk_tubings", counted)
    readers = {"lattice": cyclohedron_face_lattice,
               "maximal": lambda A: enumerate_affine_tubings(A, max_only=True)}
    order = [first, *(name for name in readers if name != first)]
    for cache in (_class_walk, cyclohedron_face_lattice, enumerate_affine_tubings):
        cache.cache_clear()
    for name in sorted(AFFINE_HOSTS):
        A = AFFINE_HOSTS[name]
        for reader in order:
            readers[reader](A)
        assert len(walks) == 1, (name, walks)
        assert enumerate_affine_tubings(A, max_only=True) == old_affine_walk(A, True), name
        walks.clear()


def test_h6_is_the_non_flag_host():
    assert [name for name in sorted(HOSTS) if not is_flag_dual(HOSTS[name])] == ["h6"]


# -- invariants of random posets ---------------------------------------------


@SETTINGS
@given(connected_posets(max_size=7))
def test_h_vector_is_a_palindrome(P):
    h = h_vector(associahedron_face_lattice(P))
    assert h == h[::-1]


@SETTINGS
@given(connected_posets(max_size=7))
def test_euler_sums_vanish(P):
    assert associahedron_face_lattice(P).euler_sum() == 0
    assert order_polytope_face_lattice(P).euler_sum() == 0


@SETTINGS
@given(connected_posets(max_size=7))
def test_vertices_are_maximal_tubings(P):
    f0 = f_vector(associahedron_face_lattice(P))[0]
    assert f0 == len(enumerate_proper_tubings(P, max_only=True))

import collections
import itertools

import pytest
from hypothesis import given

import oracles
from posetahedra import corpus
from posetahedra.errors import (
    ElementBudgetError,
    MalformedTreeError,
    NotAPartitionError,
    NotATubeError,
    NotATubingError,
)
from posetahedra.poset import build_poset
from posetahedra.tubes import (
    MAX_ELEMENTS,
    Tube,
    Tubing,
    d_graph,
    enumerate_proper_tubings,
    enumerate_tubes,
    full_tube,
    is_tubing,
    make_tube,
    tubing_from_ordered_set_partition,
    tubing_from_plane_tree,
    tubing_tree,
)
from strategies import SETTINGS, connected_posets

SMALL = ["chain4", "chain5", "claw3", "diamond4", "n4", "w5"]


def members(tubes):
    return sorted(t.members for t in tubes)


class TestEnumerateTubes:
    def test_w5_eleven_tubes(self, w5):
        got = members(enumerate_tubes(w5, proper_only=True))
        assert got == sorted([
            (1, 2), (1, 3), (2, 4), (3, 4), (4, 5),
            (1, 2, 3), (2, 3, 4), (2, 4, 5), (3, 4, 5),
            (1, 2, 3, 4), (2, 3, 4, 5),
        ])

    def test_chain_intervals(self, c4):
        got = members(enumerate_tubes(c4, proper_only=True))
        assert got == [(1, 2), (1, 2, 3), (2, 3), (2, 3, 4), (3, 4)]

    def test_two_elements_no_proper(self):
        assert enumerate_tubes(corpus.chain(2), proper_only=True) == ()

    def test_element_budget(self):
        """A chain of MAX_ELEMENTS is enumerated, one element more is refused."""
        n = MAX_ELEMENTS
        assert len(enumerate_tubes(corpus.chain(n))) == n * (n + 1) // 2  # the intervals
        for proper_only in (False, True):
            with pytest.raises(ElementBudgetError):
                enumerate_tubes(corpus.chain(MAX_ELEMENTS + 1), proper_only=proper_only)

    def test_brute_force_agreement(self):
        for name in SMALL + ["h6", "chain6", "claw4"]:
            P = corpus.DESK_POSETS[name]
            assert members(enumerate_tubes(P)) == sorted(oracles.tubes(P.covers)), name

    @SETTINGS
    @given(connected_posets(max_size=7))
    def test_growth_meets_every_tube_once(self, P):
        """The list is the brute-force one over every subset, in Tube.key
        order and with no tube twice."""
        expected = tuple(sorted(map(Tube, oracles.tubes(P.covers)), key=Tube.key))
        assert enumerate_tubes(P) == expected

    def test_make_tube_validation(self, w5):
        assert make_tube(w5, [2, 4]).members == (2, 4)
        with pytest.raises(NotATubeError):
            make_tube(w5, [1, 4])  # not connected (and not convex)
        with pytest.raises(NotATubeError):
            make_tube(w5, [])
        with pytest.raises(NotATubeError):
            make_tube(w5, [1, 9])


class TestDGraphAndTubing:
    def test_chain_edge(self, c4):
        g = d_graph(c4, [Tube.of((1, 2)), Tube.of((3, 4))])
        assert g[Tube.of((1, 2))] == (Tube.of((3, 4)),)
        assert g[Tube.of((3, 4))] == ()

    def test_nested_no_edge(self, c4):
        g = d_graph(c4, [Tube.of((1, 2)), Tube.of((1, 2, 3))])
        assert g[Tube.of((1, 2))] == ()
        assert g[Tube.of((1, 2, 3))] == ()

    def test_h6_three_cycle(self, h6):
        trio = [Tube.of((1, 2)), Tube.of((3, 4)), Tube.of((5, 6))]
        g = d_graph(h6, trio)
        assert all(len(v) == 1 for v in g.values())
        check = is_tubing(h6, trio)
        assert not check.ok and check.crossing is None
        assert set(check.cycle) == set(trio)
        assert is_tubing(h6, trio[:2]).ok

    def test_crossing_certificate(self, c4):
        check = is_tubing(c4, [Tube.of((1, 2)), Tube.of((2, 3))])
        assert not check.ok
        assert check.crossing == (Tube.of((1, 2)), Tube.of((2, 3)))

    def test_empty_is_tubing(self, c4):
        assert is_tubing(c4, []).ok

    def test_tubing_of_validates(self, h6):
        with pytest.raises(NotATubingError):
            Tubing.of(h6, [(1, 2), (3, 4), (5, 6)])


def check_cycle_certificates(P, max_size=5):
    """Every tubing of fewer than max_size proper tubes, plus each later
    compatible tube in enumerate_tubes order: is_tubing's verdict is the
    oracle's, and a cycle is a closed walk of d_graph arcs through distinct
    tubes that starts at its lowest tube in Tube.key order.  Returns the
    number of cycles of each length."""
    rel = oracles.closure(P.covers)
    tubes = enumerate_tubes(P, proper_only=True)
    lengths = collections.Counter()

    def grow(family, start):
        for k in range(start, len(tubes)):
            t = tubes[k]
            if not all(oracles._nested_or_disjoint(t, s) for s in family):
                continue
            check = is_tubing(P, family + [t])
            assert check.ok == oracles._is_tubing(rel, family + [t], Tube)
            if check.ok:
                if len(family) + 1 < max_size:
                    grow(family + [t], k + 1)
                continue
            cycle, arcs = check.cycle, d_graph(P, family + [t])
            assert len(set(cycle)) == len(cycle) > 1
            assert cycle[0] == min(cycle, key=Tube.key)
            assert all(b in arcs[a] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            lengths[len(cycle)] += 1

    grow([], 0)
    return lengths


# the crown on eight elements has dependency cycles of two, three and four tubes
CROWN8 = [(1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (7, 6), (7, 8), (1, 8)]


@pytest.mark.parametrize("name", sorted(corpus.DESK_POSETS) + ["crown8"])
def test_cycle_certificates_are_closed_walks(name):
    if name == "crown8":
        assert set(check_cycle_certificates(build_poset(CROWN8), 4)) == {2, 3, 4}
    else:
        lengths = check_cycle_certificates(corpus.DESK_POSETS[name])
        if name == "h6":  # the flagness counterexample: three pairwise compatible tubes in a cycle
            assert set(lengths) == {2, 3}


@SETTINGS
@given(connected_posets())
def test_cycle_certificates_on_random_posets(P):
    check_cycle_certificates(P)


class TestEnumerateTubings:
    def test_pentagon_vertices(self, c4):
        assert len(enumerate_proper_tubings(c4, max_only=True)) == 5

    def test_hexagon_vertices(self, claw3):
        assert len(enumerate_proper_tubings(claw3, max_only=True)) == 6

    def test_n4_pentagon(self, n4):
        assert len(enumerate_proper_tubings(n4, max_only=True)) == 5

    def test_brute_force_agreement(self):
        for name in SMALL:
            P = corpus.DESK_POSETS[name]
            expected = set(oracles.tubings(P.covers, oracles.tubes(P.covers, proper=True)))
            got = {frozenset(t.as_set for t in T.tubes) for T in enumerate_proper_tubings(P)}
            assert got == expected, name

    def test_closed_under_subsets(self):
        # every corpus poset plus two seven-element ones
        posets = dict(corpus.DESK_POSETS)
        posets["chain7"] = corpus.chain(7)
        posets["claw6"] = corpus.claw(6)
        for name, P in posets.items():
            all_tubings = {frozenset(T.tubes) for T in enumerate_proper_tubings(P)}
            for T in all_tubings:
                for t in T:
                    assert T - {t} in all_tubings, (name, T, t)

    def test_size_bound(self):
        for name, P in corpus.DESK_POSETS.items():
            bound = len(P.elements) - 2
            tubings = enumerate_proper_tubings(P)
            assert max((len(T) for T in tubings), default=0) <= bound
            maxes = {frozenset(T.tubes) for T in enumerate_proper_tubings(P, max_only=True)}
            assert maxes == {frozenset(T.tubes) for T in tubings if len(T) == bound}, name


class TestTubingTree:
    def test_nested_chain_tree(self, c4):
        T = Tubing.of(c4, [(1, 2), (1, 2, 3)])
        tree = tubing_tree(T)
        P = full_tube(c4)
        assert tree.children[P] == (Tube.of((4,)), Tube.of((1, 2, 3)))
        assert tree.children[Tube.of((1, 2, 3))] == (Tube.of((3,)), Tube.of((1, 2)))
        assert tree.children[Tube.of((1, 2))] == (Tube.of((1,)), Tube.of((2,)))

    def test_empty_tubing_star(self, c4):
        tree = tubing_tree(Tubing.of(c4, []))
        assert tree.children[full_tube(c4)] == tuple(Tube.of((e,)) for e in c4.elements)

    def test_w5_partition_children(self, w5):
        T = Tubing.of(w5, [(1, 2, 3), (4, 5)])
        tree = tubing_tree(T)
        assert set(tree.children[full_tube(w5)]) == {Tube.of((1, 2, 3)), Tube.of((4, 5))}

    @staticmethod
    def check_against_search(P):
        for T in enumerate_proper_tubings(P):
            tree = tubing_tree(T)
            parent, children = oracles.tubing_tree(T, Tube)
            assert dict(tree.parent) == parent, T
            assert dict(tree.children) == children, T

    @SETTINGS
    @given(connected_posets())
    def test_one_pass_tree_matches_search_random(self, P):
        self.check_against_search(P)

    @pytest.mark.parametrize("name", [name for name, P in corpus.DESK_POSETS.items()
                                      if len(P.elements) <= 7])
    def test_one_pass_tree_matches_search_corpus(self, name):
        self.check_against_search(corpus.DESK_POSETS[name])

    def test_minimal_containing(self, c4):
        T = Tubing.of(c4, [(1, 2), (1, 2, 3)])
        tree = tubing_tree(T)
        assert tree.minimal_containing({1, 2}) == Tube.of((1, 2))
        assert tree.minimal_containing({2, 3}) == Tube.of((1, 2, 3))
        assert tree.minimal_containing({1, 4}) == full_tube(c4)


def plane_trees(n):
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    def trees(m):
        if m == 1:
            yield "leaf"
            return
        for k in range(2, m + 1):
            for comp in compositions(m, k):
                for combo in itertools.product(*(list(trees(c)) for c in comp)):
                    yield list(combo)

    def relabel(t, counter):
        if t == "leaf":
            counter[0] += 1
            return counter[0]
        return [relabel(c, counter) for c in t]

    for t in trees(n):
        if t == "leaf":
            continue
        yield relabel(t, [0])


class TestPlaneTreeBijection:
    def test_single_internal_node(self):
        T = tubing_from_plane_tree([[1, 2], 3])
        assert members(T.tubes) == [(1, 2)]

    def test_corolla(self):
        assert tubing_from_plane_tree([1, 2, 3]).tubes == frozenset()

    def test_binary_tree(self):
        T = tubing_from_plane_tree([[[1, 2], 3], 4])
        assert members(T.tubes) == [(1, 2), (1, 2, 3)]

    def test_malformed(self):
        with pytest.raises(MalformedTreeError):
            tubing_from_plane_tree([[1], 2])
        with pytest.raises(MalformedTreeError):
            tubing_from_plane_tree([2, 1])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bijection(self, n):
        chain = corpus.chain(n)
        images = set()
        count = 0
        for tree in plane_trees(n):
            T = tubing_from_plane_tree(tree)
            images.add(frozenset(T.tubes))
            count += 1
        assert len(images) == count, "not injective"
        assert images == {frozenset(T.tubes) for T in enumerate_proper_tubings(chain)}


def ordered_set_partitions(n):
    def go(rest):
        if not rest:
            yield ()
            return
        for size in range(1, len(rest) + 1):
            for block in itertools.combinations(rest, size):
                for tail in go([x for x in rest if x not in set(block)]):
                    yield (block,) + tail

    yield from go(list(range(1, n + 1)))


def merge_coarsenings(osp):
    """All ordered set partitions obtained by unioning consecutive runs."""
    k = len(osp)

    def splits(i):
        if i == k:
            yield ()
            return
        for j in range(i + 1, k + 1):
            merged = tuple(sorted(x for b in osp[i:j] for x in b))
            for rest in splits(j):
                yield (merged,) + rest

    return set(splits(0))


class TestOrderedSetPartitionBijection:
    def test_examples(self):
        T = tubing_from_ordered_set_partition([(1,), (2,), (3,)])
        assert members(T.tubes) == [(0, 1), (0, 1, 2)]
        assert tubing_from_ordered_set_partition([(1, 2, 3)]).tubes == frozenset()
        T = tubing_from_ordered_set_partition([(2,), (1, 3)])
        assert members(T.tubes) == [(0, 2)]

    def test_not_a_partition(self):
        with pytest.raises(NotAPartitionError):
            tubing_from_ordered_set_partition([(1,), (1, 2)])
        with pytest.raises(NotAPartitionError):
            tubing_from_ordered_set_partition([(1,), ()])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bijection(self, n):
        claw = corpus.claw(n)
        images = {}
        for osp in ordered_set_partitions(n):
            images[osp] = frozenset(tubing_from_ordered_set_partition(osp).tubes)
        assert len(set(images.values())) == len(images)
        assert set(images.values()) == {
            frozenset(T.tubes) for T in enumerate_proper_tubings(claw)
        }

    def test_order_preserving(self):
        # tubing inclusion corresponds to merging consecutive blocks
        osps = list(ordered_set_partitions(3))
        images = {osp: frozenset(tubing_from_ordered_set_partition(osp).tubes) for osp in osps}
        for a, b in itertools.product(osps, repeat=2):
            assert (images[a] <= images[b]) == (a in merge_coarsenings(b)), (a, b)

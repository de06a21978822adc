import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import posetahedra
from posetahedra import corpus
from posetahedra.errors import (
    CycleError,
    DegenerateError,
    DisconnectedError,
    ElementBudgetError,
    NotAPartitionError,
    NotATubingError,
    TooSmallError,
)
from posetahedra.poset import (
    MAX_ELEMENTS,
    alpha,
    build_poset,
    dependency_order,
    ideal_filter_splits,
    is_connected,
    is_convex,
    proj_sigma0,
    quotient_poset,
    res,
)
from strategies import SETTINGS, connected_posets

W5_COVERS = [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]


class TestBuildPoset:
    def test_chain(self):
        P = build_poset([(1, 2), (2, 3), (3, 4)])
        assert P.elements == (1, 2, 3, 4)
        assert P.covers == ((1, 2), (2, 3), (3, 4))

    def test_antisymmetry_violation(self):
        with pytest.raises(CycleError):
            build_poset([(1, 2), (2, 1)])

    def test_self_loop(self):
        with pytest.raises(CycleError):
            build_poset([(1, 1), (1, 2)])

    def test_w5_figure_poset(self):
        P = build_poset(W5_COVERS)
        assert len(P.covers) == 5
        assert P.lt(1, 5) and P.lt(2, 5) and not P.lt(2, 3)

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            build_poset([(1, 2), (3, 4)])

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            build_poset([])

    def test_redundant_covers_reduced(self):
        # full closure as input must reduce back to the Hasse diagram
        P = build_poset(W5_COVERS)
        closure_pairs = sorted(oracles.closure(W5_COVERS))
        again = build_poset(closure_pairs)
        assert again == P

    def test_rebuild_idempotent_on_corpus(self):
        for P in corpus.DESK_POSETS.values():
            assert build_poset(P.covers) == P


relation_lists = st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=10)
upward_lists = relation_lists.map(lambda pairs: [(min(p), max(p)) for p in pairs if p[0] != p[1]])


@SETTINGS
@given(st.one_of(relation_lists, upward_lists))
@example([])
@example([(1, 1), (1, 2)])
@example([(1, 2), (2, 3), (3, 1)])
@example([(1, 2), (3, 4)])
@example([(1, 2), (2, 3), (1, 3), (1, 3)])
def test_build_poset_matches_oracle(pairs):
    """Closure, reduction and the first failing check, against brute force."""
    rel = oracles.closure(pairs)
    elements = oracles.elements_of(pairs)
    if any(a == b for a, b in rel):
        expected = CycleError
    elif len(elements) < 2:
        expected = TooSmallError
    elif not oracles.connected(oracles.hasse(pairs), elements):
        expected = DisconnectedError
    else:
        P = build_poset(pairs)
        assert P.elements == tuple(elements)
        assert list(P.covers) == oracles.hasse(pairs)
        assert P._strict == rel
        return
    with pytest.raises(expected):
        build_poset(pairs)


@st.composite
def digraphs(draw):
    """A digraph on 0..n-1 as its arc set, self-loops included, and a
    random set of waiting vertices as a bitset."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.sets(st.tuples(vertex, vertex), max_size=2 * n))
    return n, arcs, draw(st.integers(0, (1 << n) - 1))


@settings(SETTINGS, max_examples=300)
@given(digraphs())
@example((3, {(0, 1), (1, 2), (2, 0)}, 7))
@example((2, {(1, 1), (0, 1)}, 3))
@example((3, {(0, 1), (1, 0)}, 5))
def test_dependency_order_matches_the_dfs(graph):
    """Against the old depth-first cycle search on the waiting vertices:
    the same verdict, the placed vertices in an order every arc among the
    waiting ones respects, each the lowest ready vertex at its step, and
    every vertex left with a predecessor left."""
    n, arcs, waiting = graph
    inside = [v for v in range(n) if waiting >> v & 1]
    into = [sum(1 << j for j, k in arcs if k == i) for i in range(n)]
    order, blocked = dependency_order(into, waiting)
    dfs = oracles._find_cycle({v: [k for j, k in arcs if j == v and k in inside] for v in inside})
    assert (blocked == 0) == (dfs is None)
    assert sorted(order + [v for v in inside if blocked >> v & 1]) == inside
    assert not blocked & ~waiting
    left = waiting
    for v in order:
        assert not into[v] & left
        assert all(into[u] & left for u in inside if u < v and left >> u & 1)
        left ^= 1 << v
    assert left == blocked
    assert all(into[v] & blocked for v in inside if blocked >> v & 1)


def test_import_leaves_networkx_out():
    src = str(Path(posetahedra.__file__).resolve().parents[1])
    code = ("import sys, posetahedra, posetahedra.serialize, posetahedra.cli; "
            "print(sorted({'networkx', 'jsonschema'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class TestConvexConnected:
    def test_w5_examples(self, w5):
        assert not is_convex(w5, {1, 2, 4})
        assert is_convex(w5, {2, 4, 5})
        assert is_convex(w5, w5.elements)
        assert not is_connected(w5, {2, 3})
        assert is_connected(w5, {2, 3, 4})
        assert is_connected(w5, {3})

    def test_brute_force_agreement(self):
        # every subset of every poset with up to 8 elements
        posets = dict(corpus.DESK_POSETS)
        posets["chain8"] = corpus.chain(8)
        posets["claw7"] = corpus.claw(7)
        posets["cube8"] = build_poset(
            [(1, 2), (1, 3), (1, 5), (2, 4), (3, 4), (2, 6), (5, 6),
             (3, 7), (5, 7), (4, 8), (6, 8), (7, 8)]
        )
        for name, P in posets.items():
            rel = oracles.closure(P.covers)
            hp = oracles.hasse(P.covers)
            n = len(P.elements)
            for mask in range(1, 1 << n):
                S = [P.elements[k] for k in range(n) if mask >> k & 1]
                assert is_convex(P, S) == oracles.convex(rel, S, P.elements), (name, S)
                assert is_connected(P, S) == oracles.connected(hp, S), (name, S)


class TestIdealFilterSplits:
    def test_chain3(self, c3):
        assert ideal_filter_splits(c3) == [((1,), (2, 3)), ((1, 2), (3,))]

    def test_w5(self, w5):
        splits = ideal_filter_splits(w5)
        ideals = [set(i) for i, _ in splits]
        assert ideals == [{1}, {1, 2}, {1, 3}, {1, 2, 3}, {1, 2, 3, 4}]

    def test_claw3_filters_connected(self, claw3):
        splits = ideal_filter_splits(claw3)
        assert sorted(f for _, f in splits) == [(1,), (2,), (3,)]

    def test_brute_force_count(self):
        for P in corpus.DESK_POSETS.values():
            rel = oracles.closure(P.covers)
            hp = oracles.hasse(P.covers)
            n = len(P.elements)
            expected = 0
            for mask in range(1, (1 << n) - 1):
                I = {P.elements[k] for k in range(n) if mask >> k & 1}
                Fc = set(P.elements) - I
                is_ideal = all(
                    a in I for (a, b) in rel if b in I
                )
                if is_ideal and oracles.connected(hp, I) and oracles.connected(hp, Fc):
                    expected += 1
            assert len(ideal_filter_splits(P)) == expected

    @pytest.mark.parametrize("name", sorted(corpus.DESK_POSETS))
    def test_matches_old_subset_loop_on_the_corpus(self, name):
        P = corpus.DESK_POSETS[name]
        assert ideal_filter_splits(P) == oracles.ideal_filter_splits(P, oracles.is_ideal,
                                                                     is_connected)

    @SETTINGS
    @given(connected_posets(max_size=8))
    def test_matches_old_subset_loop(self, P):
        assert ideal_filter_splits(P) == oracles.ideal_filter_splits(P, oracles.is_ideal,
                                                                     is_connected)


    def test_element_budget(self):
        """Splits are found on MAX_ELEMENTS elements; a chain of 17 is
        refused before any subset is tried."""
        assert len(ideal_filter_splits(corpus.chain(MAX_ELEMENTS))) == MAX_ELEMENTS - 1
        P = corpus.chain(17)
        start = time.perf_counter()
        with pytest.raises(ElementBudgetError):
            ideal_filter_splits(P)
        assert time.perf_counter() - start < 0.1


class TestQuotient:
    def test_chain_merge(self, c4):
        Q = quotient_poset(c4, [{1, 2}, {3}, {4}])
        assert Q.covers == ((1, 3), (3, 4))

    def test_w5_merge_top(self, w5):
        Q = quotient_poset(w5, [{1}, {2}, {3}, {4, 5}])
        assert Q.covers == ((1, 2), (1, 3), (2, 4), (3, 4))

    def test_not_convex_block(self, w5):
        with pytest.raises(NotATubingError):
            quotient_poset(w5, [{1, 4}, {2}, {3}, {5}])

    def test_not_a_partition(self, w5):
        with pytest.raises(NotAPartitionError):
            quotient_poset(w5, [{1, 2}, {2, 3}, {4, 5}])
        with pytest.raises(NotAPartitionError):
            quotient_poset(w5, [{1, 2, 3, 4, 5}])


class TestFunctionals:
    X = {1: F(-1, 2), 2: F(0), 3: F(1, 2)}

    def test_alpha_examples(self, c3):
        assert alpha(c3, (1, 2, 3), self.X) == 1
        assert alpha(c3, (1, 2), self.X) == F(1, 2)
        assert alpha(c3, (1, 2, 3), {1: F(7), 2: F(7), 3: F(7)}) == 0

    def test_alpha_missing_coordinate(self, c3):
        with pytest.raises(KeyError):
            alpha(c3, (1, 2, 3), {1: F(0), 2: F(1)})

    def test_proj_examples(self):
        out = proj_sigma0((1, 2), self.X)
        assert out == {1: F(-1, 4), 2: F(1, 4)}
        assert sum(out.values()) == 0
        assert proj_sigma0((1, 2), {1: F(3), 2: F(3)}) == {1: 0, 2: 0}

    def test_proj_idempotent_and_linear(self):
        rng = random.Random(7)
        members = (1, 2, 4)
        for _ in range(50):
            x = {i: F(rng.randrange(-20, 20), rng.randrange(1, 9)) for i in (1, 2, 3, 4)}
            y = {i: F(rng.randrange(-20, 20), rng.randrange(1, 9)) for i in (1, 2, 3, 4)}
            px = proj_sigma0(members, x)
            assert proj_sigma0(members, px) == px
            lin = proj_sigma0(members, {i: x[i] + 3 * y[i] for i in x})
            assert lin == {i: px[i] + 3 * proj_sigma0(members, y)[i] for i in members}

    def test_res_examples(self, c3):
        assert res(c3, (1, 2), self.X) == {1: F(-1, 2), 2: F(1, 2)}
        normalized = res(c3, (1, 2, 3), self.X)
        assert normalized == self.X  # already alpha = 1 and sum 0
        with pytest.raises(DegenerateError):
            res(c3, (1, 2), {1: F(5), 2: F(5), 3: F(0)})

    def test_res_normalizes_alpha(self):
        rng = random.Random(11)
        for P in (corpus.chain(4), corpus.w5(), corpus.claw(3)):
            for _ in range(20):
                x = {e: F(rng.randrange(-30, 30), rng.randrange(1, 7)) for e in P.elements}
                if alpha(P, P.elements, x) == 0:
                    continue
                r = res(P, P.elements, x)
                assert alpha(P, P.elements, r) == 1
                assert sum(r.values()) == 0

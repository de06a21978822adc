"""Deeper structural cross-checks between independent code paths."""

import itertools
import random
from fractions import Fraction as F

import pytest

from posetahedra import corpus
from posetahedra.affine import (
    AffineTube,
    enumerate_affine_tubes,
    is_affine_tubing,
    realize_affine_cyclohedron,
)
from posetahedra.errors import PosetahedraError
from posetahedra.geometry import realize_poset_associahedron
from posetahedra.lattice import (
    EMPTY,
    associahedron_face_lattice,
    f_vector,
    face_product_decomposition,
)
from posetahedra.poset import build_poset
from posetahedra.tubes import Tubing, enumerate_proper_tubings
from strategies import periodic_bowtie


def face_counts_of_interval(L, key):
    """Face counts (by dimension) of the lower interval under a lattice face."""
    idx = L.index(key)
    below = [i for i, other in enumerate(L.faces)
             if other is not EMPTY and frozenset(other) >= frozenset(key)]
    counts = {}
    for i in below:
        counts[L.dims[i]] = counts.get(L.dims[i], 0) + 1
    return counts


def polynomial_product(vectors):
    """Convolve f-polynomials: coefficient k counts dim-k faces of a product."""
    poly = {0: 1}
    for vec in vectors:
        new = {}
        for d1, c1 in poly.items():
            for d2, c2 in enumerate(vec):
                new[d1 + d2] = new.get(d1 + d2, 0) + c1 * c2
        poly = new
    return poly


class TestFaceProductMultiplicativity:
    """Each face of the polytope is the product of its factor polytopes, so
    the face counts of its lower interval are the convolution of factor
    f-vectors."""

    @pytest.mark.parametrize("name", ["chain5", "w5", "n4", "claw4", "diamond4"])
    def test_interval_counts(self, name):
        P = corpus.DESK_POSETS[name]
        L = associahedron_face_lattice(P)
        for T in enumerate_proper_tubings(P):
            if not T.tubes:
                continue
            factors = face_product_decomposition(P, T)
            expected = polynomial_product(
                [f_vector(associahedron_face_lattice(Q)) for Q in factors]
            )
            assert face_counts_of_interval(L, frozenset(T.tubes)) == expected, (name, T)


def windowed_affine_cycle_check(A, classes, shifts=6):
    """Brute-force: build the instance digraph over a generous shift window
    and look for directed cycles.  Sound only for cycles inside the window,
    which covers the small periods used here."""
    instances = []
    for cls in classes:
        for d in range(-shifts, shifts + 1):
            instances.append(tuple(sorted(cls.instance(d, A.n))))
    instances = sorted(set(instances))
    sets = [frozenset(t) for t in instances]
    succ = {
        x: [
            y for y in range(len(sets))
            if x != y and sets[x].isdisjoint(sets[y])
            and any(A.lt(i, j) for i in sets[x] for j in sets[y])
        ]
        for x in range(len(sets))
    }
    color = {v: 0 for v in succ}

    def dfs(v):
        color[v] = 1
        for w in succ[v]:
            if color[w] == 1 or (color[w] == 0 and dfs(w)):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and dfs(v) for v in succ)


def windowed_laminar(A, classes, shifts=6):
    pairs = itertools.combinations_with_replacement(classes, 2)
    for a, b in pairs:
        for d in range(-shifts, shifts + 1):
            if a == b and d == 0:
                continue
            inst = b.instance(d, A.n)
            if a.as_set & inst and not (a.as_set <= inst or inst <= a.as_set):
                return False
    return True


class TestAffineTubingOracle:
    """The weighted-class acyclicity decision against a brute-force windowed
    instance digraph, over every subset of proper classes."""

    @pytest.mark.parametrize("name", ["cchain2", "cchain3", "cclaw3", "cchain4", "cclaw4",
                                      "bowtie"])
    def test_exhaustive_subsets(self, name):
        A = periodic_bowtie() if name == "bowtie" else corpus.DESK_AFFINE[name]
        classes = enumerate_affine_tubes(A)
        for r in range(1, min(len(classes), A.n - 1) + 1):
            for combo in itertools.combinations(classes, r):
                expected = windowed_laminar(A, combo) and not windowed_affine_cycle_check(A, combo)
                assert is_affine_tubing(A, combo) == expected, combo

    def test_cchain4_sampled(self):
        A = corpus.DESK_AFFINE["cchain4"]
        classes = enumerate_affine_tubes(A)
        rng = random.Random(20)
        for _ in range(120):
            combo = rng.sample(classes, rng.randrange(1, 4))
            expected = windowed_laminar(A, combo) and not windowed_affine_cycle_check(A, combo)
            assert is_affine_tubing(A, combo) == expected, combo


class TestBigAffineRealizations:
    def test_three_dimensional_cyclohedron(self):
        R = realize_affine_cyclohedron(corpus.circular_chain(4))
        assert R.primal.n_vertices == 20 and R.primal.n_facets == 12

    def test_type_b_permutohedron(self):
        R = realize_affine_cyclohedron(corpus.circular_claw(4))
        assert R.primal.n_vertices == 48 and R.primal.n_facets == 26


def random_connected_posets(max_elements, count, seed):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.randrange(3, max_elements + 1)
        pairs = set()
        for _ in range(rng.randrange(n - 1, 2 * n)):
            i, j = rng.sample(range(1, n + 1), 2)
            pairs.add((min(i, j), max(i, j)))
        try:
            P = build_poset(sorted(pairs))
        except PosetahedraError:
            continue
        if len(P.elements) == n:
            found.append(P)
    return found


class TestRandomRealizations:
    def test_random_posets_certify(self):
        # every random poset must realize with certified incidence
        for P in random_connected_posets(5, 12, seed=2026):
            R = realize_poset_associahedron(P)
            fv = f_vector(associahedron_face_lattice(P))
            assert R.primal.n_vertices == fv[0]
            if len(fv) >= 2:
                assert R.primal.n_facets == fv[-2]

"""Acceptance suite: every criterion as a timed, independently checkable run.

Each criterion returns a short detail string and raises MismatchError (or
any library error) on failure.  The CLI's verify-all and the test module
both drive this registry, printing one pass/fail line per criterion.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import corpus
from .affine import cyclohedron_face_lattice, enumerate_affine_tubings
from .compact import (
    UNBOUNDED,
    collapse,
    expand,
    ratio_counterexample_demo,
    stratum_point,
    t_max,
    tubing_of,
)
from .errors import MismatchError
from .geometry import realize_poset_associahedron
from .lattice import associahedron_face_lattice, f_vector, order_polytope_face_lattice
from .poset import res
from .tubes import (
    Tube,
    enumerate_proper_tubings,
    enumerate_tubes,
    full_tube,
    is_tubing,
    tubing_from_ordered_set_partition,
    tubing_from_plane_tree,
    tubing_tree,
)


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    seconds: float
    limit_seconds: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] C{self.cid:02d} {self.name} "
                f"({self.seconds:.2f}s / limit {self.limit_seconds:.0f}s): {self.detail}")


def _require(cid: int, ok: bool, what: str, context=None) -> None:
    """Fail criterion ``cid`` with a MismatchError unless ``ok``.

    An explicit raise, unlike ``assert``, also runs under ``python -O``.
    """
    if not ok:
        got = "" if context is None else f", got {context!r}"
        raise MismatchError(f"C{cid:02d}: expected {what}{got}")


def _plane_trees(n: int):
    """Plane rooted trees with n leaves; internal nodes have >= 2 children."""

    def subtrees(m: int):
        if m == 1:
            yield 0  # placeholder leaf, relabeled later
            return
        yield from trees(m)

    def trees(m: int):
        for k in range(2, m + 1):
            for comp in _compositions(m, k):
                for combo in itertools.product(*(list(subtrees(c)) for c in comp)):
                    yield list(combo)

    def relabel(tree, counter):
        if tree == 0:
            counter[0] += 1
            return counter[0]
        return [relabel(c, counter) for c in tree]

    for t in trees(n):
        yield relabel(t, [0])


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _ordered_set_partitions(n: int):
    elements = list(range(1, n + 1))

    def go(rest):
        if not rest:
            yield ()
            return
        for size in range(1, len(rest) + 1):
            for block in itertools.combinations(rest, size):
                for tail in go([x for x in rest if x not in set(block)]):
                    yield (block,) + tail

    yield from go(elements)


def c1_pentagon() -> str:
    P = corpus.chain(4)
    fv = f_vector(associahedron_face_lattice(P))
    _require(1, fv == (5, 5, 1), "f-vector (5, 5, 1)", fv)
    R = realize_poset_associahedron(P)
    _require(1, R.primal.n_vertices == 5 and R.primal.n_facets == 5, "5 vertices and 5 facets",
             (R.primal.n_vertices, R.primal.n_facets))
    return "f=(5,5,1); realized pentagon certified against the tubing complex"


def c2_hexagon() -> str:
    P = corpus.claw(3)
    fv = f_vector(associahedron_face_lattice(P))
    _require(2, fv == (6, 6, 1), "f-vector (6, 6, 1)", fv)
    R = realize_poset_associahedron(P)
    _require(2, R.primal.n_vertices == 6, "6 vertices", R.primal.n_vertices)
    return "f=(6,6,1); realized hexagon with 3! vertices"


def c3_n_poset_pentagon() -> str:
    P = corpus.n4()
    tubes = enumerate_tubes(P, proper_only=True)
    maxt = enumerate_proper_tubings(P, max_only=True)
    _require(3, len(tubes) == 5, "5 proper tubes", tubes)
    _require(3, len(maxt) == 5, "5 maximal tubings", len(maxt))
    return "5 proper tubes and 5 maximal tubings"


def c4_w5_pipeline() -> str:
    P = corpus.w5()
    R = realize_poset_associahedron(P)
    _require(4, R.primal.n_facets == 11, "11 facets", R.primal.n_facets)
    _require(4, R.lattice.dim == 3, "dimension 3", R.lattice.dim)
    big_melts = [t.members for t in R.melt_sequence if len(t) >= 3]
    _require(4, big_melts == [
        (1, 2, 3, 4), (2, 3, 4, 5), (1, 2, 3), (2, 3, 4), (2, 4, 5), (3, 4, 5),
    ], "the melt order of the tubes with at least 3 elements", big_melts)
    return "3-dimensional, 11 facets; melt order (sizes >= 3) matches; certification clean"


def c5_associahedron_ladder() -> str:
    catalan = {4: 5, 5: 14, 6: 42}
    for n in (4, 5, 6):
        P = corpus.chain(n)
        lattice_f = f_vector(associahedron_face_lattice(P))
        sizes: dict[int, int] = {}
        seen = set()
        for tree in _plane_trees(n):
            T = tubing_from_plane_tree(tree)
            key = frozenset(T.tubes)
            _require(5, key not in seen, "an injective plane-tree map", key)
            seen.add(key)
            sizes[len(key)] = sizes.get(len(key), 0) + 1
        tree_f = tuple(
            sizes.get(n - 2 - d, 0) for d in range(n - 2)
        ) + (1,)
        _require(5, lattice_f == tree_f,
                 "lattice f-vector equal to the plane-tree f-vector",
                 (n, lattice_f, tree_f))
        _require(5, lattice_f[0] == catalan[n], "a Catalan vertex count",
                 (n, lattice_f[0]))
    return "f-vectors for n=4,5,6 match the plane-tree complex; vertices 5, 14, 42"


def c6_permutohedron_ladder() -> str:
    for n in (3, 4, 5):
        P = corpus.claw(n)
        images = set()
        for osp in _ordered_set_partitions(n):
            T = tubing_from_ordered_set_partition(osp)
            images.add(frozenset(T.tubes))
        all_tubings = {frozenset(T.tubes) for T in enumerate_proper_tubings(P)}
        _require(6, images == all_tubings, "ordered set partitions biject with tubings", n)
        vertices = enumerate_proper_tubings(P, max_only=True)
        _require(6, len(vertices) == math.factorial(n),
                 "n! vertices", (n, len(vertices)))
    return "ordered set partitions biject with tubings; vertex counts 3!, 4!, 5!"


def c7_flagness_counterexample() -> str:
    P = corpus.h6()
    pair_tubes = [Tube.of((1, 2)), Tube.of((3, 4)), Tube.of((5, 6))]
    for a, b in itertools.combinations(pair_tubes, 2):
        _require(7, is_tubing(P, (a, b)).ok, "a pairwise compatible tube pair", (a, b))
    check = is_tubing(P, pair_tubes)
    _require(7, not check.ok and check.cycle is not None,
             "the triple rejected with a cycle", check)
    _require(7, set(check.cycle) == set(pair_tubes), "the cycle through the three tubes",
             check.cycle)
    return f"pairwise compatible; triple rejected with 3-cycle {list(check.cycle)}"


def c8_affine_oracles() -> str:
    f_cc3 = f_vector(cyclohedron_face_lattice(corpus.circular_chain(3)))
    _require(8, f_cc3 == (6, 6, 1), "cchain3 f-vector (6, 6, 1)", f_cc3)
    f_ck3 = f_vector(cyclohedron_face_lattice(corpus.circular_claw(3)))
    _require(8, f_ck3 == (8, 8, 1), "cclaw3 f-vector (8, 8, 1)", f_ck3)
    for n in (2, 3, 4):
        A = corpus.circular_claw(n)
        verts = enumerate_affine_tubings(A, max_only=True)
        expected = 2 ** (n - 1) * math.factorial(n - 1)
        _require(8, len(verts) == expected, "2^(n-1) (n-1)! vertices",
                 (n, len(verts), expected))
    return "hexagon and octagon f-vectors; circular-claw vertices 2, 8, 48"


def _compact_posets():
    return [(name, P) for name, P in corpus.DESK_POSETS.items() if len(P.elements) <= 6]


def c9_compactification_suite() -> str:
    checked = 0
    for name, P in _compact_posets():
        n = len(P.elements)
        root = full_tube(P)
        for T in enumerate_proper_tubings(P):
            tree_dims = 0
            tree = None
            point = stratum_point(P, T)
            # (a) stratum round-trip
            _require(9, tubing_of(point).tubes == T.tubes,
                     "the stratum point in its stratum", (name, T))
            tree = tubing_tree(T)
            # (b) reconstruction identities
            for tube in enumerate_tubes(P):
                if len(tube) < 2:
                    continue
                parent = tree.minimal_containing(tube.members)
                _require(9, point[tube] == res(P, tube.members, point[parent]),
                         "the reconstruction identity", (name, T, tube))
            # (e) dimension identity
            for node in tree.non_singleton_nodes():
                tree_dims += len(tree.children[node]) - 2
            _require(9, tree_dims == n - len(T.tubes) - 2,
                     "the dimension identity", (name, T))
            # (c), (d) expansion round-trips
            for tau, parent in tree.adjacent_pairs():
                tm = t_max(point, tau, parent)
                _require(9, tm > 0, "t_max > 0", (name, T, tau))
                if tm is UNBOUNDED:
                    samples = (Fraction(1, 3), Fraction(1), Fraction(3))
                else:
                    samples = (tm / 4, tm / 2, 3 * tm / 4)
                for t in samples:
                    moved = expand(point, tau, parent, t)
                    _require(9, tubing_of(moved).tubes == T.tubes - {tau},
                             "the expanded point in the stratum without tau",
                             (name, T, tau, t))
                    back, t_back = collapse(moved, tau, parent)
                    _require(9, back == point and t_back == t,
                             "collapse to restore the point and t",
                             (name, T, tau, t))
            checked += 1
    return f"{checked} strata over {len(_compact_posets())} posets, all identities exact"


def c10_ratio_demo() -> str:
    report = ratio_counterexample_demo()
    ts = [t for t, _ in report.ratio_gap]
    _require(10, ts == [Fraction(1, 10 ** k) for k in range(2, 7)],
             "samples at t = 10^-2 .. 10^-6", ts)
    for t, gap in report.ratio_gap:
        _require(10, gap >= Fraction(1, 2), "a ratio gap of at least 1/2", (t, gap))
    final_t, final_dev = report.pair_deviation[-1]
    _require(10, final_t == Fraction(1, 10 ** 6), "the last sample at t = 10^-6",
             final_t)
    _require(10, final_dev <= Fraction(1, 10 ** 9), "embeddings within 10^-9",
             final_dev)
    return "curves differ by >= 1/2 in ratio while embeddings agree within 1e-9 at t=1e-6"


def _require_simple(L, degree: int, name: str) -> None:
    """Every vertex of L has ``degree`` upper covers; only the key of a
    vertex that fails is read."""
    for i, d in enumerate(L.dims):
        if d == 0 and len(L.upper_covers(i)) != degree:
            _require(11, False, "a simple vertex", (name, L.faces[i]))


def c11_euler_and_simplicity() -> str:
    lattices = 0
    for name, P in corpus.DESK_POSETS.items():
        L = associahedron_face_lattice(P)
        _require(11, L.euler_sum() == 0, "Euler sum 0", name)
        _require_simple(L, len(P.elements) - 2, name)
        lattices += 1
        LO = order_polytope_face_lattice(P)
        _require(11, LO.euler_sum() == 0, "Euler sum 0 on the order polytope", name)
        lattices += 1
    for name, A in corpus.DESK_AFFINE.items():
        L = cyclohedron_face_lattice(A)
        _require(11, L.euler_sum() == 0, "Euler sum 0", name)
        _require_simple(L, A.n - 1, name)
        lattices += 1
    return f"Euler and vertex-degree checks clean on {lattices} lattices"


CRITERIA: tuple[tuple[int, str, float, Callable[[], str]], ...] = (
    (1, "pentagon-oracle", 1.0, c1_pentagon),
    (2, "hexagon-oracle", 1.0, c2_hexagon),
    (3, "n-poset-pentagon", 1.0, c3_n_poset_pentagon),
    (4, "w5-pipeline", 10.0, c4_w5_pipeline),
    (5, "associahedron-ladder", 60.0, c5_associahedron_ladder),
    (6, "permutohedron-ladder", 60.0, c6_permutohedron_ladder),
    (7, "flagness-counterexample", 1.0, c7_flagness_counterexample),
    (8, "affine-oracles", 60.0, c8_affine_oracles),
    (9, "compactification-suite", 300.0, c9_compactification_suite),
    (10, "ratio-demo", 1.0, c10_ratio_demo),
    (11, "euler-simplicity", 60.0, c11_euler_and_simplicity),
)


def run_criterion(cid: int, name: str, limit: float, fn: Callable[[], str]) -> CriterionResult:
    start = time.perf_counter()
    try:
        detail = fn()
        elapsed = time.perf_counter() - start
        passed = elapsed <= limit
        if not passed:
            detail = f"correct but took {elapsed:.2f}s (limit {limit:.0f}s); {detail}"
        return CriterionResult(cid, name, passed, elapsed, limit, detail)
    except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
        elapsed = time.perf_counter() - start
        return CriterionResult(cid, name, False, elapsed, limit, f"{type(exc).__name__}: {exc}")


def run_all(echo: Callable[[str], None] = print) -> list[CriterionResult]:
    results = []
    for cid, name, limit, fn in CRITERIA:
        result = run_criterion(cid, name, limit, fn)
        echo(result.line())
        results.append(result)
    return results

"""Periodic posets on the integers and their cyclohedra.

An affine poset of order n is determined by finitely many generating
relations together with i < i+n and period equivariance.  Internally it is
a residue digraph with shift weights: i precedes j+dn exactly when the
minimal shift from i's residue to j's is at most d plus the shift gap.
Antisymmetry is a no-nonpositive-cycle condition on that digraph and
strong connectivity is finiteness of all entries.

Tubes are taken up to shift; the proper tube classes are the facets of the
cyclohedron and proper periodic tubings its faces.  Acyclicity of the
dependency digraph of a periodic family is decided exactly: the nesting
tree localizes cycles either inside one finite node (finite check) or
among the root blocks, where a cycle exists iff the class-level digraph
weighted by minimal shifts has a cycle of total weight <= 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import (
    CycleError,
    EmptyError,
    NotATubeError,
    NotATubingError,
    NotStronglyConnectedError,
    OverlapError,
)
from . import geometry
from .lattice import EMPTY, FaceLattice, _build, tubing_partitions
from .linalg import nullspace
from .polytope import Chart, Facet, RationalPolytope, polytope_from_data
from .poset import Poset, build_poset, find_cycle, quotient_poset

INF = float("inf")


@dataclass(frozen=True)
class AffinePoset:
    """Period-n poset on the integers, stored as a residue shift matrix."""

    n: int
    gen_covers: tuple[tuple[int, int], ...]
    minshift: tuple[tuple[int, ...], ...]  # minshift[r-1][s-1], entries int

    def residue(self, i: int) -> int:
        return (i - 1) % self.n + 1

    def shift(self, i: int) -> int:
        return (i - self.residue(i)) // self.n

    def le(self, i: int, j: int) -> bool:
        if i == j:
            return True
        ri, rj = self.residue(i), self.residue(j)
        return self.minshift[ri - 1][rj - 1] <= self.shift(j) - self.shift(i)

    def lt(self, i: int, j: int) -> bool:
        return i != j and self.le(i, j)

    @cached_property
    def max_descent(self) -> int:
        """Relations i < j satisfy j >= i - max_descent."""
        worst = min(min(row) for row in self.minshift)
        return max(0, -worst) * self.n + (self.n - 1)

    @cached_property
    def atom_spans(self) -> tuple[int, ...]:
        """Signed spans of single relation steps (cover candidates)."""
        spans = {self.n}
        for i, j in self.gen_covers:
            spans.add(j - i)
        return tuple(sorted(spans))

    @cached_property
    def max_edge_span(self) -> int:
        return max(self.n, max(abs(s) for s in self.atom_spans))

    def between(self, i: int, j: int) -> list[int]:
        """All m with i < m < j strictly (finite by the descent bound)."""
        out = []
        for r in range(1, self.n + 1):
            lo = self.shift(i) + self.minshift[self.residue(i) - 1][r - 1]
            hi = self.shift(j) - self.minshift[r - 1][self.residue(j) - 1]
            for d in range(lo, hi + 1):
                m = r + d * self.n
                if m != i and m != j:
                    out.append(m)
        return sorted(out)

    def is_cover(self, i: int, j: int) -> bool:
        return self.lt(i, j) and not self.between(i, j)

    def cover_successors(self, i: int) -> tuple[int, ...]:
        out = []
        for span in self.atom_spans:
            j = i + span
            if self.lt(i, j) and self.is_cover(i, j):
                out.append(j)
        return tuple(sorted(set(out)))

    @cached_property
    def cover_classes(self) -> tuple[tuple[int, int], ...]:
        pairs = []
        for i in range(1, self.n + 1):
            pairs.extend((i, j) for j in self.cover_successors(i))
        return tuple(sorted(pairs))

    def hasse_neighbors(self, i: int) -> tuple[int, ...]:
        ups = self.cover_successors(i)
        downs = []
        for span in self.atom_spans:
            j = i - span
            if self.lt(j, i) and self.is_cover(j, i):
                downs.append(j)
        return tuple(sorted(set(ups) | set(downs)))

    def finite_subposet(self, members) -> Poset:
        members = sorted(set(members))
        pairs = [(i, j) for i in members for j in members if self.lt(i, j)]
        return build_poset(pairs)

    def __repr__(self) -> str:
        return f"AffinePoset(n={self.n}, gen_covers={list(self.gen_covers)})"


def build_affine_poset(n: int, gen_covers) -> AffinePoset:
    """Validate the axioms and precompute the residue shift matrix."""
    if n < 1:
        raise ValueError("period must be at least 1")
    pairs = [(int(i), int(j)) for i, j in gen_covers]
    for i, j in pairs:
        if i == j:
            raise CycleError(f"relation {i} < {j} is reflexive")
        if not 1 <= i <= n:
            raise ValueError(f"generator sources must lie in 1..{n}")

    def residue(v):
        return (v - 1) % n + 1

    dist = [[INF] * n for _ in range(n)]
    for r in range(n):
        dist[r][r] = 0
    arcs = [(r, r, 1) for r in range(1, n + 1)]
    for i, j in pairs:
        arcs.append((i, residue(j), (j - residue(j)) // n))
    for a, b, w in arcs:
        dist[a - 1][b - 1] = min(dist[a - 1][b - 1], w)
    for k in range(n):
        for a in range(n):
            if dist[a][k] == INF:
                continue
            for b in range(n):
                if dist[k][b] != INF and dist[a][k] + dist[k][b] < dist[a][b]:
                    dist[a][b] = dist[a][k] + dist[k][b]
    for a in range(n):
        if dist[a][a] < 0:
            raise CycleError("relations force i < i (negative cycle)")
        for b in range(n):
            if a != b and dist[a][b] != INF and dist[b][a] != INF \
                    and dist[a][b] + dist[b][a] <= 0:
                raise CycleError(f"residues {a + 1} and {b + 1} are mutually below each other")
    for a in range(n):
        for b in range(n):
            if dist[a][b] == INF:
                raise NotStronglyConnectedError(
                    f"residue {b + 1} is unreachable from residue {a + 1}"
                )
    matrix = tuple(tuple(int(x) for x in row) for row in dist)
    return AffinePoset(n=n, gen_covers=tuple(sorted(set(pairs))), minshift=matrix)


# -- tubes up to shift --------------------------------------------------------


@dataclass(frozen=True, order=True)
class AffineTube:
    """Canonical tube class representative (minimum element in 1..n)."""

    members: tuple[int, ...]
    is_full: bool = False

    @staticmethod
    def full() -> "AffineTube":
        return AffineTube(members=(), is_full=True)

    @staticmethod
    def of(A: AffinePoset, members) -> "AffineTube":
        members = tuple(sorted(set(int(m) for m in members)))
        if not members:
            raise NotATubeError("a tube is nonempty")
        d = (members[0] - 1) // A.n
        return AffineTube(tuple(m - d * A.n for m in members))

    @cached_property
    def as_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def instance(self, d: int, n: int) -> frozenset[int]:
        return frozenset(m + d * n for m in self.members)

    def key(self):
        return (len(self.members), self.members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __repr__(self):
        if self.is_full:
            return "{Z}"
        return "{" + ",".join(map(str, self.members)) + "}"


FULL = AffineTube.full()


def residues_of(A: AffinePoset, tube: AffineTube) -> frozenset[int]:
    return frozenset(A.residue(m) for m in tube.members)


def make_affine_tube(A: AffinePoset, members) -> AffineTube:
    """Validated canonical tube: convex, connected, one element per residue."""
    tube = AffineTube.of(A, members)
    if len(residues_of(A, tube)) != len(tube.members):
        raise NotATubeError(f"{tube} repeats a residue class")
    for i, j in itertools.permutations(tube.members, 2):
        if A.lt(i, j) and any(m not in tube.as_set for m in A.between(i, j)):
            raise NotATubeError(f"{tube} is not convex")
    seen = {tube.members[0]}
    stack = [tube.members[0]]
    while stack:
        v = stack.pop()
        for w in A.hasse_neighbors(v):
            if w in tube.as_set and w not in seen:
                seen.add(w)
                stack.append(w)
    if seen != tube.as_set:
        raise NotATubeError(f"{tube} is not connected")
    return tube


@lru_cache(maxsize=None)
def enumerate_affine_tubes(A: AffinePoset, proper_only: bool = True) -> tuple[AffineTube, ...]:
    """Canonical representatives of tube classes.

    Members of a connected tube on <= n vertices span at most (n-1) times
    the largest Hasse edge span, so the search window [1, n + (n-1)s] with
    the minimum pinned to 1..n sees every class exactly once.
    """
    n, s = A.n, A.max_edge_span
    window = range(1, n + max(0, (n - 1)) * s + 1)
    found = []
    sizes = range(2 if proper_only else 1, n + 1)
    for size in sizes:
        for combo in itertools.combinations(window, size):
            if combo[0] > n:
                continue
            try:
                tube = make_affine_tube(A, combo)
            except NotATubeError:
                continue
            if tube.members == combo:
                found.append(tube)
    found = sorted(set(found), key=AffineTube.key)
    if not proper_only:
        found.append(FULL)
    return tuple(found)


def class_nested_or_disjoint(A: AffinePoset, a: AffineTube, b: AffineTube) -> bool:
    """Every instance pair of the two classes must be nested or disjoint."""
    if a.is_full or b.is_full:
        return True
    lo = -((max(b.members) - min(a.members)) // A.n + 1)
    hi = (max(a.members) - min(b.members)) // A.n + 1
    for d in range(lo, hi + 1):
        inst = b.instance(d, A.n)
        if a == b and d == 0:
            continue
        if a.as_set & inst and not (a.as_set <= inst or inst <= a.as_set):
            return False
    return True


def class_contains(A: AffinePoset, outer: AffineTube, inner: AffineTube) -> bool:
    """Some instance of outer contains the canonical instance of inner.

    The instance shifted by d can only contain inner when it starts at or
    below min(inner) and ends at or above max(inner), which bounds d on
    both sides.
    """
    if outer.is_full:
        return True
    if inner.is_full:
        return False
    lo = (max(inner.members) - max(outer.members)) // A.n
    hi = (min(inner.members) - min(outer.members)) // A.n
    return any(inner.as_set <= outer.instance(d, A.n) for d in range(lo, hi + 1))


def _min_relation_shift(A: AffinePoset, a: AffineTube, b: AffineTube) -> int:
    """Minimal d with i < j + dn for some i in a, j in b (an edge weight)."""
    best = None
    for i in a.members:
        for j in b.members:
            d = A.minshift[A.residue(i) - 1][A.residue(j) - 1] + A.shift(i) - A.shift(j)
            if j + d * A.n == i:
                d += 1
            best = d if best is None else min(best, d)
    return best


def _root_blocks_acyclic(A: AffinePoset, blocks: tuple[AffineTube, ...]) -> bool:
    """Cycle test for a periodic partition of the integers.

    Blocks of a partition are never nested, so for each ordered class pair
    the valid dependency edges are exactly the shifts at or above the
    minimal relation shift (same class: shift zero excluded).  A cycle in
    the infinite digraph exists iff some class cycle has total weight <= 0.
    """
    k = len(blocks)
    weight = [[0] * k for _ in range(k)]
    for x, a in enumerate(blocks):
        for y, b in enumerate(blocks):
            d0 = _min_relation_shift(A, a, b)
            if x == y and d0 == 0:
                d0 = 1
            weight[x][y] = d0
    dist = [row[:] for row in weight]
    for m in range(k):
        for x in range(k):
            for y in range(k):
                if dist[x][m] + dist[m][y] < dist[x][y]:
                    dist[x][y] = dist[x][m] + dist[m][y]
                    if x == y and dist[x][y] <= 0:
                        return False
    return all(dist[x][x] > 0 for x in range(k))


def _instances_inside(A: AffinePoset, classes, tube: AffineTube):
    """Instances of the given classes strictly inside the tube's canonical rep."""
    out = []
    for cls in classes:
        if cls.is_full or len(cls) >= len(tube):
            continue
        lo = (min(tube.members) - max(cls.members)) // A.n - 1
        hi = (max(tube.members) - min(cls.members)) // A.n + 1
        for d in range(lo, hi + 1):
            inst = cls.instance(d, A.n)
            if inst <= tube.as_set:
                out.append((cls, tuple(sorted(inst))))
    return out


def _children_partition(A: AffinePoset, classes, tube: AffineTube):
    """Maximal member instances inside the tube, plus singleton fills."""
    inside = [set(inst) for _, inst in _instances_inside(A, classes, tube)]
    maximal = [s for s in inside if not any(s < t for t in inside)]
    blocks = []
    seen: set[int] = set()
    for s in maximal:
        if not s & seen:
            blocks.append(tuple(sorted(s)))
            seen |= s
    for m in tube.members:
        if m not in seen:
            blocks.append((m,))
    return blocks


def is_affine_tubing(A: AffinePoset, classes) -> bool:
    """Validity of the periodic family generated by the given classes.

    Pairwise laminarity over all shifts, then acyclicity localized by the
    nesting tree: finite dependency checks inside every class, and the
    weighted test on the root partition formed by the maximal classes.
    """
    classes = sorted(set(classes), key=AffineTube.key)
    if any(c.is_full for c in classes):
        return False
    for a, b in itertools.combinations_with_replacement(classes, 2):
        if not class_nested_or_disjoint(A, a, b):
            return False

    maximal = [
        c for c in classes
        if not any(o != c and class_contains(A, o, c) for o in classes)
    ]
    covered = set().union(*(residues_of(A, c) for c in maximal)) if maximal else set()
    root_blocks = tuple(sorted(
        maximal + [AffineTube((r,)) for r in range(1, A.n + 1) if r not in covered],
        key=AffineTube.key,
    ))
    if not _root_blocks_acyclic(A, root_blocks):
        return False

    for tube in classes:
        blocks = [frozenset(b) for b in _children_partition(A, classes, tube)]
        depends = {
            a: [b for b in blocks if a != b and any(A.lt(i, j) for i in a for j in b)]
            for a in blocks
        }
        if find_cycle(depends) is not None:
            return False
    return True


@dataclass(frozen=True)
class AffineTubing:
    """A validated set of tube classes generating a periodic tubing."""

    host: AffinePoset
    classes: frozenset[AffineTube]

    @staticmethod
    def of(A: AffinePoset, classes) -> "AffineTubing":
        canon = frozenset(
            c if isinstance(c, AffineTube) else make_affine_tube(A, c) for c in classes
        )
        if not is_affine_tubing(A, canon):
            raise NotATubingError(f"classes {sorted(canon, key=AffineTube.key)} cross or cycle")
        return AffineTubing(A, canon)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(sorted(self.classes, key=AffineTube.key))


@lru_cache(maxsize=None)
def enumerate_affine_tubings(A: AffinePoset, max_only: bool = False) -> tuple[frozenset[AffineTube], ...]:
    """All proper periodic tubings as sets of class representatives."""
    classes = enumerate_affine_tubes(A, proper_only=True)
    target = A.n - 1
    chosen: list[AffineTube] = []
    out: list[frozenset[AffineTube]] = []

    def extend(start: int) -> None:
        if not max_only or len(chosen) == target:
            out.append(frozenset(chosen))
        if len(chosen) == target:
            return
        for k in range(start, len(classes)):
            cand = classes[k]
            if all(class_nested_or_disjoint(A, cand, c) for c in chosen) \
                    and is_affine_tubing(A, chosen + [cand]):
                chosen.append(cand)
                extend(k + 1)
                chosen.pop()

    extend(0)
    out.sort(key=lambda T: (len(T), tuple(sorted(c.members for c in T))))
    return tuple(out)


@lru_cache(maxsize=None)
def cyclohedron_face_lattice(A: AffinePoset) -> FaceLattice:
    """Faces are proper periodic tubings under reverse inclusion.

    A tubing of k classes labels a face of dimension n - k - 1; removing a
    class is a covering step and the empty face sits under the vertices.
    """
    n = A.n
    tubings = enumerate_affine_tubings(A)
    keyed = {EMPTY: -1}
    for T in tubings:
        keyed[T] = n - len(T) - 1
    covers = []
    for T in tubings:
        for c in T:
            covers.append((T, T - {c}))
        if len(T) == n - 1:
            covers.append((EMPTY, T))
    return _build("cyclohedron", n - 1, keyed, covers)


def tube_from_signed_pair(A: AffinePoset, kplus, kminus) -> AffineTube:
    """Tube of a circular claw from disjoint leaf index sets.

    Positive indices sit above the hub, negative ones one period below:
    the tube is (K- shifted down) + hub + K+.
    """
    kplus = set(int(x) for x in kplus)
    kminus = set(int(x) for x in kminus)
    n = A.n
    if kplus & kminus:
        raise OverlapError(f"index sets overlap on {sorted(kplus & kminus)}")
    if not kplus | kminus:
        raise EmptyError("at least one index must be chosen")
    if not (kplus | kminus) <= set(range(1, n)):
        raise ValueError(f"indices must lie in 1..{n - 1}")
    members = {k - n for k in kminus} | {0} | set(kplus)
    return make_affine_tube(A, members)


# -- affine order polytope ----------------------------------------------------


def linear_extension(A: AffinePoset) -> dict[int, int]:
    """A period-equivariant strictly order-preserving relabeling.

    Built from the fundamental domain of elements whose downward period
    shift precedes zero while they do not; returns the window values
    phi(1..n), extended by phi(i + n) = phi(i) + n.
    """
    n = A.n
    bound = n * (A.max_edge_span + 3)
    S = [i for i in range(-bound, bound + 1) if A.lt(i - n, 0) and not A.lt(i, 0)]
    if len(S) != n or len({A.residue(i) for i in S}) != n:
        raise CycleError("no fundamental domain: the shift matrix is not an order")
    remaining = list(S)
    order: dict[int, int] = {}
    rank = 1
    while remaining:
        ready = [i for i in remaining if not any(A.lt(j, i) for j in remaining if j != i)]
        pick = min(ready)
        order[pick] = rank
        rank += 1
        remaining.remove(pick)
    phi = {}
    for r in range(1, n + 1):
        s = next(i for i in S if A.residue(i) == r)
        phi[r] = order[s] + (r - s)
    shift = 1 - min(phi.values())
    phi = {r: v + shift for r, v in phi.items()}
    for i in range(1, n + 1):
        for j in range(i - bound, i + bound + 1):
            if A.lt(i, j) and not _phi_value(phi, n, i) < _phi_value(phi, n, j):
                raise CycleError(f"relabeling breaks {i} < {j}: the shift matrix is not an order")
    return phi


def _phi_value(phi: dict[int, int], n: int, i: int) -> int:
    r = (i - 1) % n + 1
    return phi[r] + (i - r)


def interior_witness(A: AffinePoset, c: Fraction = Fraction(1)) -> dict[int, Fraction]:
    """Strictly feasible point of the affine order polytope."""
    phi = linear_extension(A)
    raw = {i: phi[i] * c / A.n for i in range(1, A.n + 1)}
    mean = sum(raw.values(), Fraction(0)) / A.n
    return {i: v - mean for i, v in raw.items()}


def maximal_proper_classes(A: AffinePoset) -> tuple[AffineTube, ...]:
    return tuple(t for t in enumerate_affine_tubes(A, proper_only=True) if len(t) == A.n) \
        if A.n > 1 else (AffineTube((1,)),)


def affine_order_polytope(A: AffinePoset, c: Fraction = Fraction(1)) -> RationalPolytope:
    """The (n-1)-dimensional polytope of periodic order-preserving points.

    Vertices collapse one maximal proper tube class each; facets are the
    cover classes whose endpoints lie in different residues.
    """
    n = A.n
    c = Fraction(c)
    if c <= 0:
        raise ValueError("period increment must be positive")
    ids = tuple(range(1, n + 1))
    vertices_ambient = []
    vlabels = maximal_proper_classes(A)
    for cls in vlabels:
        ks = {}
        for m in cls.members if not cls.is_full else ():
            ks[A.residue(m)] = A.shift(m)
        if A.n == 1:
            ks = {1: 0}
        v0 = sum(ks.values()) * c / n
        vertices_ambient.append({i: v0 - ks[i] * c for i in ids})
    base = {
        i: sum((v[i] for v in vertices_ambient), Fraction(0)) / len(vertices_ambient)
        for i in ids
    }
    basis = tuple(tuple(v) for v in nullspace([[Fraction(1)] * n], n))
    chart = Chart(ids=ids, base=tuple(base[i] for i in ids), basis=basis)
    verts = [chart.to_chart(v) for v in vertices_ambient]
    if n == 1:
        return polytope_from_data(0, verts[:1], (), chart, vertex_labels=vlabels)
    facets = []
    for i, j in A.cover_classes:
        rj = A.residue(j)
        if rj == i:
            continue
        normal = tuple(vec[i - 1] - vec[rj - 1] for vec in chart.basis)
        offset = A.shift(j) * c - (base[i] - base[rj])
        facets.append(Facet(normal, offset, label=(i, j)))
    return polytope_from_data(n - 1, verts, facets, chart, vertex_labels=vlabels)


# -- the tube system of the melting induction ---------------------------------


class PeriodicTubes:
    """The melting induction's view of an affine poset (see geometry.PosetTubes).

    Tubes are tube classes, the root is the line itself (FULL), frozen
    containment is ``class_contains`` and the line is partitioned by the
    periodic tubing partitions of ``_affine_root_partitions``.
    """

    stage = "melting class"
    root = FULL

    def __init__(self, A: AffinePoset):
        self.host = A
        self.size = A.n
        self.dim = A.n - 1

    def contains(self, outer: AffineTube, inner: AffineTube) -> bool:
        return class_contains(self.host, outer, inner)

    def partitions(self, cls: AffineTube):
        A = self.host
        if cls.is_full:
            return _affine_root_partitions(A)
        sub = A.finite_subposet(cls.members)
        return [
            [AffineTube.of(A, b.members) for b in blocks]
            for blocks in tubing_partitions(sub, cls.members, strict_blocks=True)
        ]

    def outside(self, cls: AffineTube) -> set[AffineTube]:
        covered = residues_of(self.host, cls)
        return {AffineTube((r,)) for r in range(1, self.host.n + 1) if r not in covered}

    def proper_tubes(self) -> tuple[AffineTube, ...]:
        return enumerate_affine_tubes(self.host, proper_only=True)

    def cover_tube(self, i: int, j: int) -> AffineTube:
        return AffineTube.of(self.host, (i, j))

    def order_polytope(self) -> RationalPolytope:
        return affine_order_polytope(self.host)

    def face_lattice(self) -> FaceLattice:
        return cyclohedron_face_lattice(self.host)


geometry.tube_system.register(AffinePoset, PeriodicTubes)


def _affine_root_partitions(A: AffinePoset) -> tuple[tuple[AffineTube, ...], ...]:
    """Periodic tubing partitions of the integers, as class sets."""
    classes = enumerate_affine_tubes(A, proper_only=False)
    finite = [c for c in classes if not c.is_full]
    by_residue: dict[int, list[AffineTube]] = {r: [] for r in range(1, A.n + 1)}
    for cls in finite:
        by_residue[min(residues_of(A, cls))].append(cls)
    out: list[tuple[AffineTube, ...]] = []
    chosen: list[AffineTube] = []

    def extend(uncovered: frozenset[int]) -> None:
        if not uncovered:
            blocks = tuple(sorted(chosen, key=AffineTube.key))
            if _root_blocks_acyclic(A, blocks) and all(
                class_nested_or_disjoint(A, a, b)
                for a, b in itertools.combinations(blocks, 2)
            ):
                out.append(blocks)
            return
        r = min(uncovered)
        for cls in by_residue[r]:
            rs = residues_of(A, cls)
            if rs <= uncovered:
                chosen.append(cls)
                extend(uncovered - rs)
                chosen.pop()

    extend(frozenset(range(1, A.n + 1)))
    return tuple(out)


def affine_admissible_tubings(A: AffinePoset, melted) -> geometry.AdmissiblePoset:
    """Admissible periodic tubings: melted classes are partitioned by their
    children, frozen classes are leaves, and the line is partitioned at the
    root."""
    return geometry.admissible_tubings(A, geometry.MeltedSet.of(A, melted))


def realize_affine_cyclohedron(A: AffinePoset) -> geometry.RealizationResult:
    """The melting induction on tube classes: the affine poset cyclohedron."""
    return geometry.realize(A)


# -- face factorization -------------------------------------------------------


def quotient_affine_poset(A: AffinePoset, classes) -> AffinePoset:
    """Contract every instance of the given disjoint classes to a point."""
    classes = sorted(set(classes), key=AffineTube.key)
    covered = set()
    for cls in classes:
        rs = residues_of(A, cls)
        if rs & covered:
            raise ValueError("classes must have disjoint residues")
        covered |= rs
    blocks = list(classes) + [
        AffineTube((r,)) for r in range(1, A.n + 1) if r not in covered
    ]
    blocks.sort(key=lambda b: min(b.members))
    n_new = len(blocks)
    gens = []
    for x, a in enumerate(blocks, start=1):
        for y, b in enumerate(blocks, start=1):
            d0 = _min_relation_shift(A, a, b)
            if x == y:
                # shift zero is the block itself; shift one is the built-in axiom
                if d0 == 0:
                    d0 = 1
                if d0 == 1:
                    continue
            gens.append((x, y + d0 * n_new))
    return build_affine_poset(n_new, gens)


def affine_face_factors(A: AffinePoset, T) -> tuple[list[Poset], AffinePoset]:
    """Finite quotient factors per class plus the contracted affine factor."""
    classes = sorted(set(T), key=AffineTube.key)
    finite_factors = []
    for cls in classes:
        blocks = _children_partition(A, classes, cls)
        sub = A.finite_subposet(cls.members)
        if all(len(b) == 1 for b in blocks):
            finite_factors.append(sub)
        else:
            finite_factors.append(quotient_poset(sub, blocks))
    maximal = [
        c for c in classes
        if not any(o != c and class_contains(A, o, c) for o in classes)
    ]
    return finite_factors, quotient_affine_poset(A, maximal)

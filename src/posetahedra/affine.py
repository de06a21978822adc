"""Periodic posets on the integers and their cyclohedra.

An affine poset of order n is determined by finitely many generating
relations together with i < i+n and period equivariance.  Internally it is
a residue digraph with shift weights: i precedes j+dn exactly when the
minimal shift from i's residue to j's is at most d plus the shift gap.
Antisymmetry is a no-nonpositive-cycle condition on that digraph and
strong connectivity is finiteness of all entries.

Tubes are taken up to shift; the proper tube classes are the facets of the
cyclohedron and proper periodic tubings its faces.  Every acyclicity
question here is answered by one rule on one min-plus closure
(``_min_plus_closure``).  For the residue digraph the arcs are the
generating shifts.  For a pairwise laminar family of classes the weight
from a to b is the least shift d at which the canonical instance of a has
a dependency arrow to b + dn (``_shift_weight``); the arrows run from that
shift upward, so the instance digraph has a cycle exactly when the closure
has a closed walk of total weight <= 0.  That closure is the cycle test of
the host's one walk of its periodic tubings (``_class_walk``), which runs
on ``tubes.walk_tubings`` as the finite walk does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import (
    CycleError,
    ElementBudgetError,
    EmptyError,
    NotATubeError,
    NotATubingError,
    NotStronglyConnectedError,
    OverlapError,
)
from . import geometry
from .lattice import FaceLattice, tubing_face_lattice, tubing_partitions
from .polytope import RationalPolytope, order_chart_polytope
from .poset import (MAX_ELEMENTS, Poset, _is_connected, build_poset, dependency_order,
                    quotient_poset)
from .tubes import CACHE_SIZE, block_partitions, connected_sets, walk_tubings


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
        """All m with i < m < j strictly."""
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

    @cached_property
    def cover_classes(self) -> tuple[tuple[int, int], ...]:
        """The covers (i, j) with i in 1..n: every cover up to shift, sorted."""
        return tuple((i, i + span) for i in range(1, self.n + 1) for span in self.atom_spans
                     if self.is_cover(i, i + span))

    def hasse_neighbors(self, i: int) -> tuple[int, ...]:
        """The cover classes that start or end at i's residue, shifted to i."""
        r = self.residue(i)
        return tuple(sorted({i + j - a for a, j in self.cover_classes if a == r}
                            | {i + a - j for a, j in self.cover_classes if self.residue(j) == r}))

    def finite_subposet(self, members) -> Poset:
        members = sorted(set(members))
        pairs = [(i, j) for i in members for j in members if self.lt(i, j)]
        return build_poset(pairs)

    def __repr__(self) -> str:
        return f"AffinePoset(n={self.n}, gen_covers={list(self.gen_covers)})"


def _min_plus_closure(dist: list[list[int | None]]) -> list[list[int | None]]:
    """Least walk weights, in place: one Floyd–Warshall pass over a square
    matrix of arc weights, with None for "no arc".  A diagonal entry that
    starts as an arc weight ends as the least weight of a closed walk through
    its vertex."""
    k = len(dist)
    for m in range(k):
        for a in range(k):
            if dist[a][m] is None:
                continue
            for b in range(k):
                if dist[m][b] is not None and (
                        dist[a][b] is None or dist[a][m] + dist[m][b] < dist[a][b]):
                    dist[a][b] = dist[a][m] + dist[m][b]
    return dist


def build_affine_poset(n: int, gen_covers) -> AffinePoset:
    """Validate the axioms and precompute the residue shift matrix; a period
    above MAX_ELEMENTS is refused (ElementBudgetError) before it is built."""
    if n < 1:
        raise ValueError("period must be at least 1")
    if n > MAX_ELEMENTS:
        raise ElementBudgetError(f"period {n}: affine posets take at most {MAX_ELEMENTS}")
    pairs = [(int(i), int(j)) for i, j in gen_covers]
    for i, j in pairs:
        if i == j:
            raise CycleError(f"relation {i} < {j} is reflexive")
        if not 1 <= i <= n:
            raise ValueError(f"generator sources must lie in 1..{n}")

    def residue(v):
        return (v - 1) % n + 1

    dist = [[0 if a == b else None for b in range(n)] for a in range(n)]
    for i, j in pairs:
        row, b, w = dist[i - 1], residue(j) - 1, (j - residue(j)) // n
        row[b] = w if row[b] is None else min(row[b], w)
    _min_plus_closure(dist)
    for a in range(n):
        if dist[a][a] < 0:
            raise CycleError("relations force i < i (negative cycle)")
        for b in range(n):
            if a != b and dist[a][b] is not None and dist[b][a] is not None \
                    and dist[a][b] + dist[b][a] <= 0:
                raise CycleError(f"residues {a + 1} and {b + 1} are mutually below each other")
    for a in range(n):
        for b in range(n):
            if dist[a][b] is None:
                raise NotStronglyConnectedError(
                    f"residue {b + 1} is unreachable from residue {a + 1}"
                )
    matrix = tuple(tuple(row) for row in dist)
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
    defect = _tube_defect(A, tube)
    if defect is not None:
        raise NotATubeError(f"{tube} {defect}")
    return tube


def _tube_defect(A: AffinePoset, tube: AffineTube) -> str | None:
    """Why the canonical members are no tube, or None."""
    if len(residues_of(A, tube)) != len(tube.members):
        return "repeats a residue class"
    for i, j in itertools.permutations(tube.members, 2):
        if A.lt(i, j) and any(m not in tube.as_set for m in A.between(i, j)):
            return "is not convex"
    return None if _is_connected(tube.as_set, A.hasse_neighbors) else "is not connected"


@lru_cache(maxsize=CACHE_SIZE)
def enumerate_affine_tubes(A: AffinePoset, proper_only: bool = True) -> tuple[AffineTube, ...]:
    """Canonical representatives of tube classes: the convex ``connected_sets``
    grown from the roots 1..n with one member per residue, since each class
    has exactly one such instance.  The search runs once per host: the proper
    classes are the cached full list less the singletons and the line."""
    if proper_only:
        return tuple(t for t in enumerate_affine_tubes(A, proper_only=False)
                     if not t.is_full and len(t) > 1)
    found = map(AffineTube, connected_sets(range(1, A.n + 1), A.hasse_neighbors, A.residue))
    return (*sorted((t for t in found if _tube_defect(A, t) is None), key=AffineTube.key), FULL)


def _meeting_shifts(A: AffinePoset, a: AffineTube, b: AffineTube) -> range:
    """The shifts d at which the span of b + dn overlaps the span of a: the
    only ones at which the two instances can meet."""
    return range(-((b.members[-1] - a.members[0]) // A.n),
                 (a.members[-1] - b.members[0]) // A.n + 1)


def class_nested_or_disjoint(A: AffinePoset, a: AffineTube, b: AffineTube) -> bool:
    """Every instance pair of the two classes must be nested or disjoint."""
    return a.is_full or b.is_full or all(
        a.as_set.isdisjoint(inst) or a.as_set <= inst or inst <= a.as_set
        for inst in (b.instance(d, A.n) for d in _meeting_shifts(A, a, b)))


def class_contains(A: AffinePoset, outer: AffineTube, inner: AffineTube) -> bool:
    """Some instance of outer contains the canonical instance of inner.

    An instance has as many members as its class, so outer contains no
    class with more members.  The instance shifted by d can only contain
    inner when it starts at or below min(inner) and ends at or above
    max(inner), which bounds d on both sides.
    """
    if outer.is_full:
        return True
    if inner.is_full or len(outer.members) < len(inner.members):
        return False
    lo = (max(inner.members) - max(outer.members)) // A.n
    hi = (min(inner.members) - min(outer.members)) // A.n
    return any(inner.as_set <= outer.instance(d, A.n) for d in range(lo, hi + 1))


def _shift_weight(A: AffinePoset, a: AffineTube, b: AffineTube) -> int:
    """Least d such that a is disjoint from b + dn and some element of a is
    below some element of b + dn: the first dependency arrow from a to b.

    Relations persist as d grows, so the arrows from a run from this shift
    upward, less the shifts where the two instances meet.  In a laminar
    family those instances are nested, and nested tubes carry no arrow, so
    a meeting shift must not count: on the circular 3-chain, {1,2} and
    {1,2,3} relate at shift 0 in both directions, but they are nested there
    and form the hexagon vertex {{1,2},{1,2,3}}.
    """
    d = min(
        A.minshift[A.residue(i) - 1][A.residue(j) - 1] + A.shift(i) - A.shift(j)
        + (A.residue(i) == A.residue(j))  # i < i + dn needs d >= 1
        for i in a.members for j in b.members
    )
    while not a.as_set.isdisjoint(b.instance(d, A.n)):
        d += 1
    return d


def _acyclic(A: AffinePoset, classes) -> bool:
    """No dependency cycle among the instances of a pairwise laminar family:
    every closed walk of the closure of the shift weights weighs > 0."""
    dist = _min_plus_closure([[_shift_weight(A, a, b) for b in classes] for a in classes])
    return all(dist[x][x] > 0 for x in range(len(classes)))


def _children_partition(A: AffinePoset, classes, tube: AffineTube):
    """Maximal instances of the smaller classes inside the tube's canonical
    instance, plus singleton fills."""
    inside = [inst for cls in classes if not cls.is_full and len(cls) < len(tube)
              for inst in (cls.instance(d, A.n) for d in _meeting_shifts(A, tube, cls))
              if inst <= tube.as_set]
    maximal = [s for s in inside if not any(s < t for t in inside)]
    blocks, seen = [], set()
    for s in maximal:
        if seen.isdisjoint(s):
            blocks.append(tuple(sorted(s)))
            seen |= s
    return blocks + [(m,) for m in tube.members if m not in seen]


def is_affine_tubing(A: AffinePoset, classes) -> bool:
    """Validity of the periodic family generated by the given tube classes:
    pairwise laminarity over all shifts, then the weighted cycle rule."""
    classes = sorted(set(classes), key=AffineTube.key)
    if any(c.is_full for c in classes):
        return False
    return all(class_nested_or_disjoint(A, a, b)
               for a, b in itertools.combinations_with_replacement(classes, 2)) \
        and _acyclic(A, classes)


@dataclass(frozen=True)
class AffineTubing:
    """A validated set of tube classes generating a periodic tubing."""

    host: AffinePoset
    classes: frozenset[AffineTube]

    @staticmethod
    def of(A: AffinePoset, classes) -> "AffineTubing":
        canon = frozenset(
            make_affine_tube(A, c.members if isinstance(c, AffineTube) else c) for c in classes
        )
        if not is_affine_tubing(A, canon):
            raise NotATubingError(f"classes {sorted(canon, key=AffineTube.key)} cross or cycle")
        return AffineTubing(A, canon)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(sorted(self.classes, key=AffineTube.key))


@lru_cache(maxsize=CACHE_SIZE)
def _class_walk(A: AffinePoset) -> tuple[tuple[AffineTube, ...], tuple[int, ...]]:
    """One walk of the proper periodic tubings of A (``walk_tubings``) for
    every face structure built from them.

    The state is the min-plus closure of the chosen classes' shift weights;
    a candidate must keep it free of closed walks of weight <= 0, and grows
    it in O(k^2) for k chosen classes.  The walk reads weights only between
    laminar classes, the diagonal included, so only those are filled.  No
    family grows past n - 1 classes, the most a periodic tubing has.
    """
    classes = enumerate_affine_tubes(A, proper_only=True)
    compat = [0] * len(classes)  # the relation is symmetric: each pair is tested once
    for (x, a), (y, b) in itertools.combinations_with_replacement(enumerate(classes), 2):
        if class_nested_or_disjoint(A, a, b):
            compat[x] |= 1 << y
            compat[y] |= 1 << x
    weight = [[_shift_weight(A, a, b) if mask >> y & 1 else None for y, b in enumerate(classes)]
              for a, mask in zip(classes, compat)]

    def grow(chosen: list[int], dist: list[list[int]], v: int) -> list[list[int]] | None:
        """The closure over chosen + [v], or None if v closes a walk of weight <= 0."""
        if len(chosen) == A.n - 1:
            return None
        to_v = [min([weight[x][v]] + [row[z] + weight[y][v] for z, y in enumerate(chosen)])
                for x, row in zip(chosen, dist)]
        from_v = [min([weight[v][y]] + [weight[v][x] + dist[z][j] for z, x in enumerate(chosen)])
                  for j, y in enumerate(chosen)]
        loop = min([weight[v][v]] + [f + t for f, t in zip(from_v, to_v)])
        if loop <= 0:
            return None
        return [[min(d, t + f) for d, f in zip(row, from_v)] + [t]
                for row, t in zip(dist, to_v)] + [from_v + [loop]]

    return walk_tubings(classes, compat, grow)


@lru_cache(maxsize=CACHE_SIZE)
def enumerate_affine_tubings(A: AffinePoset, max_only: bool = False) -> tuple[frozenset, ...]:
    """All proper periodic tubings as sets of class representatives: the
    keys of the host's face lattice, from the empty tubing (the top face)
    down, so they are shared with it; with max_only, the maximal ones (n - 1
    classes, the vertices).  They are sorted by size, then by the members
    of their classes in members order (not ``AffineTube.key`` order).
    """
    L = cyclohedron_face_lattice(A)
    return L.faces_of_dim(0) if max_only else tuple(
        itertools.chain.from_iterable(map(L.faces_of_dim, range(L.dim, -1, -1))))


@lru_cache(maxsize=CACHE_SIZE)
def cyclohedron_face_lattice(A: AffinePoset) -> FaceLattice:
    """The face lattice of the affine poset cyclohedron, of dimension n - 1,
    from the host's one walk (``_class_walk``)."""
    return tubing_face_lattice("cyclohedron", *_class_walk(A), A.n - 1)


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
    into = [sum(1 << a for a, j in enumerate(S) if j != i and A.lt(j, i)) for i in S]
    placed, blocked = dependency_order(into, (1 << n) - 1)  # S ascends: the least ready first
    if blocked:
        raise CycleError("the fundamental domain has a cycle: the shift matrix is not an order")
    order = {S[k]: rank for rank, k in enumerate(placed, 1)}
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
    vertices_ambient = []
    vlabels = maximal_proper_classes(A)
    for cls in vlabels:
        ks = {A.residue(m): A.shift(m) for m in cls.members}
        v0 = sum(ks.values()) * c / n
        vertices_ambient.append({i: v0 - ks[i] * c for i in range(1, n + 1)})
    covers = [(i, A.residue(j), A.shift(j) * c, (i, j))
              for i, j in A.cover_classes if A.residue(j) != i]
    return order_chart_polytope(n - 1, vertices_ambient, [[1] * n], covers, vlabels)


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

    def tubes(self) -> tuple[AffineTube, ...]:
        return enumerate_affine_tubes(self.host, proper_only=False)

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
    """Periodic tubing partitions of the integers, as class sets, found by
    ``block_partitions`` on residue masks."""
    classes = enumerate_affine_tubes(A, proper_only=False)[:-1]  # less the line
    residues = [sum(1 << A.residue(m) - 1 for m in cls) for cls in classes]
    out = []
    for found in block_partitions((1 << A.n) - 1, residues):
        # blocks on disjoint residues are laminar, so only cycles can fail
        blocks = tuple(classes[k] for k in sorted(found))
        if _acyclic(A, blocks):
            out.append(blocks)
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
            d = _shift_weight(A, a, b)
            if x != y or d != 1:  # shift one of a block is the built-in axiom
                gens.append((x, y + d * n_new))
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

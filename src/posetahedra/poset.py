"""Finite connected posets and the linear maps used on their order cones.

A poset is stored as its element list plus the transitive reduction of the
input cover relations; the full strict order is derived once and cached.
All arithmetic on coordinate vectors is exact (``fractions.Fraction``),
with vectors represented as ``{element_id: Fraction}`` mappings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    CycleError,
    DegenerateError,
    DisconnectedError,
    ElementBudgetError,
    NotAPartitionError,
    NotATubingError,
    TooSmallError,
)
from .linalg import homogeneous
from .rational import frac

Vector = dict[int, Fraction]

# Most elements that tube enumeration and the ideal-filter splits take: each
# lists its sets once, but they can number 2^(|P| - 1) (a claw on 16
# elements has 2^15 + 15 tubes), doubling with each element more.
MAX_ELEMENTS = 16


@dataclass(frozen=True)
class Poset:
    """Immutable finite connected poset over integer element ids.

    ``covers`` is always the transitive reduction of the order; redundant
    input covers are silently dropped by :func:`build_poset`.
    """

    elements: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]

    @cached_property
    def _strict(self) -> frozenset[tuple[int, int]]:
        up: dict[int, set[int]] = {e: set() for e in self.elements}
        for i, j in self.covers:
            up[i].add(j)
        return frozenset((i, j) for i, above in _strictly_above(up).items() for j in above)

    @cached_property
    def hasse_adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, set[int]] = {e: set() for e in self.elements}
        for i, j in self.covers:
            adj[i].add(j)
            adj[j].add(i)
        return {e: tuple(sorted(nbrs)) for e, nbrs in adj.items()}

    def lt(self, i: int, j: int) -> bool:
        return (i, j) in self._strict

    def le(self, i: int, j: int) -> bool:
        return i == j or (i, j) in self._strict

    def covers_within(self, members: Iterable[int]) -> list[tuple[int, int]]:
        """Cover pairs of the host poset with both endpoints in ``members``."""
        inside = set(members)
        return [(i, j) for i, j in self.covers if i in inside and j in inside]

    def subposet(self, members: Iterable[int]) -> "Poset":
        """Induced subposet; for convex subsets this keeps the Hasse edges."""
        inside = set(members)
        pairs = [(i, j) for i, j in self._strict if i in inside and j in inside]
        return build_poset(pairs)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, covers={list(self.covers)})"


def _members(subset) -> tuple[int, ...]:
    return tuple(sorted(set(subset)))


def bit_positions(x: int) -> list[int]:
    """Positions of the set bits of x >= 0, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def dependency_order(into: Sequence[int], waiting: int) -> tuple[list[int], int]:
    """Place the vertices of the bitset ``waiting`` in dependency order.

    Bit j of ``into[i]`` is an arc j -> i.  Each step places the lowest
    waiting vertex none of whose predecessors still waits.  Returns the
    vertices in the order placed and the bitset of those never placed,
    which is 0 exactly when the digraph on ``waiting`` is acyclic (a
    self-loop is a cycle); every vertex left has a predecessor left.
    """
    order: list[int] = []
    rest = waiting
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        if into[i] & waiting:
            rest ^= low
            continue
        order.append(i)
        waiting ^= low
        rest = waiting
    return order, waiting


def _strictly_above(up: dict[int, set[int]]) -> dict[int, set[int]]:
    """Everything reachable from each vertex, by one search per vertex."""
    reach: dict[int, set[int]] = {}
    for v in up:
        seen: set[int] = set()
        stack = list(up[v])
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(up[w])
        reach[v] = seen
    return reach


def build_poset(covers: Iterable[tuple[int, int]]) -> Poset:
    """Build a poset from cover pairs (redundant pairs are reduced away).

    Raises CycleError / TooSmallError / DisconnectedError, in that order,
    when the input is not a finite connected poset on at least two elements.
    """
    pairs = [(int(i), int(j)) for i, j in covers]
    up: dict[int, set[int]] = {}
    for i, j in pairs:
        up.setdefault(i, set()).add(j)
        up.setdefault(j, set())
    reach = _strictly_above(up)
    if any(v in reach[v] for v in up):  # a self-loop is a cycle of length one
        raise CycleError("cover relations contain a directed cycle")
    if len(up) < 2:
        raise TooSmallError("a poset needs at least two elements")
    # i <. j when j is above i but above none of i's other successors
    redges = tuple(sorted(
        (i, j) for i, succ in up.items()
        for j in succ.difference(*(reach[k] for k in succ))
    ))
    P = Poset(elements=tuple(sorted(up)), covers=redges)
    if not is_connected(P, P.elements):
        raise DisconnectedError("Hasse diagram is not connected")
    return P


def is_convex(P: Poset, subset) -> bool:
    """True iff no element outside the subset sits between two members."""
    inside = set(_members(subset))
    for j in P.elements:
        if j in inside:
            continue
        if any(P.lt(i, j) for i in inside) and any(P.lt(j, k) for k in inside):
            return False
    return True


def is_connected(P: Poset, subset) -> bool:
    """True iff the induced subgraph of the Hasse diagram is connected."""
    return _is_connected(set(subset), P.hasse_adjacency.__getitem__)


def _is_connected(inside: set[int] | frozenset[int],
                  neighbours: Callable[[int], Iterable[int]]) -> bool:
    """True iff the set ``inside`` is nonempty and connected along ``neighbours``."""
    if not inside:
        return False
    start = next(iter(inside))
    seen = {start}
    stack = [start]
    while stack:
        for w in neighbours(stack.pop()):
            if w in inside and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == inside


def ideal_filter_splits(P: Poset) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All splits P = I ⊔ F into a connected ideal and a connected filter.

    These index the vertices of the order polytope.  Ideals are element
    masks, grown along a linear extension: each next element joins the
    ideals holding its down-set mask.  They can number 2^(|P| - 1), so it
    raises ElementBudgetError when |P| is above MAX_ELEMENTS.
    """
    n = len(P.elements)
    if n > MAX_ELEMENTS:
        raise ElementBudgetError(
            f"{n} elements: ideal-filter splits take at most {MAX_ELEMENTS}")
    at = {e: k for k, e in enumerate(P.elements)}
    down = [0] * n  # the strict down-set of each element, as a mask of positions
    for i, j in P._strict:
        down[at[j]] |= 1 << at[i]
    ideals = [0]
    for k in sorted(range(n), key=lambda k: down[k].bit_count()):  # a linear extension
        ideals += [ideal | 1 << k for ideal in ideals if not down[k] & ~ideal]
    splits = []
    for mask in ideals:
        ideal = tuple(P.elements[k] for k in range(n) if mask >> k & 1)
        filt = tuple(P.elements[k] for k in range(n) if not mask >> k & 1)
        if ideal and filt and is_connected(P, ideal) and is_connected(P, filt):
            splits.append((ideal, filt))
    splits.sort(key=lambda s: (len(s[0]), s[0]))
    return splits


def _partition_blocks(P: Poset, partition) -> list[tuple[int, ...]]:
    blocks = [tuple(sorted(set(b))) for b in partition]
    if len(blocks) < 2:
        raise NotAPartitionError("a quotient needs at least two blocks")
    covered: set[int] = set()
    for b in blocks:
        if not b:
            raise NotAPartitionError("empty block")
        if covered & set(b):
            raise NotAPartitionError("blocks overlap")
        covered |= set(b)
    if covered != set(P.elements):
        raise NotAPartitionError("blocks do not cover the poset")
    return blocks


def quotient_poset(P: Poset, partition) -> Poset:
    """Contract every block of a tubing partition to a single element.

    Each block keeps its minimum element as the representative id.  The
    blocks must be tubes and the partition's dependency digraph acyclic,
    otherwise NotATubingError is raised.
    """
    blocks = _partition_blocks(P, partition)
    for b in blocks:
        if not (is_convex(P, b) and is_connected(P, b)):
            raise NotATubingError(f"block {list(b)} is not a tube")
    rep = {}
    for b in blocks:
        for e in b:
            rep[e] = min(b)
    edges = {(rep[i], rep[j]) for i, j in P._strict if rep[i] != rep[j]}
    try:
        return build_poset(sorted(edges))
    except CycleError:
        raise NotATubingError("partition dependency digraph has a cycle") from None


# -- linear functionals on R^A ------------------------------------------------


def avg(subset, x: Mapping[int, Fraction]) -> Fraction:
    members = _members(subset)
    _require_coords(members, x)
    return sum((frac(x[i]) for i in members), Fraction(0)) / len(members)


def alpha(P: Poset, subset, x: Mapping[int, Fraction]) -> Fraction:
    """Sum of x_j - x_i over cover pairs i <. j inside the subset."""
    members = _members(subset)
    _require_coords(members, x)
    total = Fraction(0)
    for i, j in P.covers_within(members):
        total += frac(x[j]) - frac(x[i])
    return total


def proj_sigma0(subset, x: Mapping[int, Fraction]) -> Vector:
    """Restrict to the subset and translate so coordinates sum to zero."""
    members = _members(subset)
    mean = avg(members, x)
    return {i: frac(x[i]) - mean for i in members}


def res(P: Poset, subset, x: Mapping[int, Fraction]) -> Vector:
    """Normalized restriction: proj_sigma0 scaled to make alpha equal 1.

    The result does not change when x is scaled by a positive number, so x
    is cleared to integer numerators over one common denominator and handed
    to :func:`res_cleared`; the Fractions are built from the row it returns.
    """
    members = _members(subset)
    _require_coords(members, x)
    num = homogeneous([frac(x[i]) for i in members])[:-1]  # less the denominator
    try:
        return from_row(members, res_cleared(cover_indices(P, members), num))
    except DegenerateError:
        raise DegenerateError(
            f"alpha vanishes on {list(members)}; coordinates are constant there") from None


def cover_indices(P: Poset, members: Sequence[int]) -> list[tuple[int, int]]:
    """The host's cover pairs inside ``members``, as positions in ``members``."""
    at = {e: a for a, e in enumerate(members)}
    return [(at[i], at[j]) for i, j in P.covers_within(members)]


def res_cleared(pairs: Iterable[tuple[int, int]], num: Sequence[int]) -> tuple[int, ...]:
    """The core of res on a point already cleared to integer numerators.

    ``num`` lists the numerators n of x over one positive common
    denominator (any positive multiple of x will do) in the order of the
    sorted subset, and ``pairs`` the host's cover pairs inside the subset as
    positions in ``num`` (``cover_indices``).  With k the subset size, s the
    sum of the n and a their alpha, coordinate i of the restriction is
    (k*n_i - s) / (k*a).  Returns the restriction's homogeneous row: the
    numerators and the denominator k*a divided by their gcd g, where g takes
    the sign of k*a so that the denominator is positive.  That row is
    primitive with a positive last entry, the same canonical form
    ``linalg.homogeneous`` gives, so equal rows mean equal restrictions.
    """
    scale = sum(num[b] - num[a] for a, b in pairs)
    if scale == 0:
        raise DegenerateError("alpha vanishes on the subset; coordinates are constant there")
    k = len(num)
    total = sum(num)
    den = k * scale
    tops = [k * n - total for n in num]
    g = math.gcd(den, *tops)
    if den < 0:
        g = -g
    return (*(top // g for top in tops), den // g)


def from_row(members: Iterable[int], row: tuple[int, ...]) -> Vector:
    """The point whose homogeneous row is ``row``, its numerators in the
    order of ``members`` followed by the common denominator."""
    den = row[-1]
    return {i: Fraction(n, den) for i, n in zip(members, row)}


def _require_coords(members, x) -> None:
    missing = [i for i in members if i not in x]
    if missing:
        raise KeyError(f"vector lacks coordinates for {missing}")

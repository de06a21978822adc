"""Finite connected posets and the linear maps used on their order cones.

A poset is stored as its element list plus the transitive reduction of the
input cover relations; the full strict order is derived once and cached.
All arithmetic on coordinate vectors is exact (``fractions.Fraction``),
with vectors represented as ``{element_id: Fraction}`` mappings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

import networkx as nx

from .errors import (
    CycleError,
    DegenerateError,
    DisconnectedError,
    NotAPartitionError,
    NotATubingError,
    TooSmallError,
)
from .linalg import homogeneous
from .rational import frac

Vector = dict[int, Fraction]


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
        g = nx.DiGraph(self.covers)
        g.add_nodes_from(self.elements)
        closure = nx.transitive_closure_dag(g)
        return frozenset(closure.edges())

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
        inside = sorted(set(members))
        pairs = [(i, j) for i, j in self._strict if i in set(inside) and j in set(inside)]
        return build_poset(pairs)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, covers={list(self.covers)})"


@dataclass(frozen=True)
class SubsetView:
    """A nonempty subset of a poset's elements, kept in sorted order."""

    parent: Poset
    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("SubsetView must be nonempty")
        missing = set(self.members) - set(self.parent.elements)
        if missing:
            raise ValueError(f"members {sorted(missing)} not in the poset")
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))


def _members(subset) -> tuple[int, ...]:
    if isinstance(subset, SubsetView):
        return subset.members
    return tuple(sorted(set(subset)))


def build_poset(covers: Iterable[tuple[int, int]]) -> Poset:
    """Build a poset from cover pairs (redundant pairs are reduced away).

    Raises CycleError / DisconnectedError / TooSmallError when the input is
    not a finite connected poset on at least two elements.
    """
    pairs = [(int(i), int(j)) for i, j in covers]
    g = nx.DiGraph()
    g.add_edges_from(pairs)
    if any(i == j for i, j in pairs) or not nx.is_directed_acyclic_graph(g):
        raise CycleError("cover relations contain a directed cycle")
    if g.number_of_nodes() < 2:
        raise TooSmallError("a poset needs at least two elements")
    reduction = nx.transitive_reduction(g)
    if not nx.is_connected(reduction.to_undirected()):
        raise DisconnectedError("Hasse diagram is not connected")
    elements = tuple(sorted(g.nodes))
    redges = tuple(sorted(reduction.edges()))
    return Poset(elements=elements, covers=redges)


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
    inside = set(_members(subset))
    if not inside:
        return False
    start = next(iter(inside))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in P.hasse_adjacency[v]:
            if w in inside and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == inside


def is_ideal(P: Poset, subset) -> bool:
    inside = set(_members(subset))
    return all(i in inside for j in inside for i in P.elements if P.lt(i, j))


def ideal_filter_splits(P: Poset) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All splits P = I ⊔ F into a connected ideal and a connected filter.

    These index the vertices of the order polytope.  Enumeration is by
    subsets, which is fine at desk scale (|P| <= ~16).
    """
    n = len(P.elements)
    splits = []
    for mask in range(1, (1 << n) - 1):
        ideal = tuple(P.elements[k] for k in range(n) if mask >> k & 1)
        if not is_ideal(P, ideal):
            continue
        filt = tuple(e for e in P.elements if e not in set(ideal))
        if is_connected(P, ideal) and is_connected(P, filt):
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
    g = nx.DiGraph(edges)
    g.add_nodes_from(rep.values())
    if not nx.is_directed_acyclic_graph(g):
        raise NotATubingError("partition dependency digraph has a cycle")
    return build_poset(sorted(edges))


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
    is cleared to integer numerators n over one common denominator first.
    With k the subset size, s the sum of the n and a their alpha, each
    coordinate is then the single fraction (k*n_i - s) / (k*a).
    """
    members = _members(subset)
    _require_coords(members, x)
    # zip drops the common denominator that ends the homogeneous row
    num = dict(zip(members, homogeneous([frac(x[i]) for i in members])))
    scale = sum(num[j] - num[i] for i, j in P.covers_within(members))
    if scale == 0:
        raise DegenerateError(
            f"alpha vanishes on {list(members)}; coordinates are constant there"
        )
    k = len(members)
    total = sum(num.values())
    return {i: Fraction(k * n - total, k * scale) for i, n in num.items()}


def _require_coords(members, x) -> None:
    missing = [i for i in members if i not in x]
    if missing:
        raise KeyError(f"vector lacks coordinates for {missing}")


@dataclass(frozen=True)
class OrderFunctional:
    """A named linear functional: alpha_P, alpha_tau(t) or avg_tau(t)."""

    poset: Poset
    kind: str
    tube: tuple[int, ...] | None = None

    _KINDS = ("alpha_P", "alpha_tau", "avg_tau")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}")
        if self.kind != "alpha_P" and self.tube is None:
            raise ValueError(f"{self.kind} needs a tube")

    def __call__(self, x: Mapping[int, Fraction]) -> Fraction:
        if self.kind == "alpha_P":
            return alpha(self.poset, self.poset.elements, x)
        if self.kind == "alpha_tau":
            return alpha(self.poset, self.tube, x)
        return avg(self.tube, x)

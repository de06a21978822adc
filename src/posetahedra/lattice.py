"""Graded face lattices: tubings for the main polytope, tubing partitions
for the order polytope, plus f/h-vectors, flagness and face factorizations.

Face keys are frozensets of tubes (or of partition blocks); the empty face
is the ``EMPTY`` sentinel so Euler checks run uniformly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import NotGradedError
from .poset import Poset, find_cycle, quotient_poset
from .tubes import (
    CACHE_SIZE,
    Tube,
    Tubing,
    d_graph,
    enumerate_proper_tubings,
    enumerate_tubes,
    full_tube,
    is_tubing,
    tube_complex,
    tubing_tree,
    walk_tubings,
)


class _EmptyFace:
    def __repr__(self):
        return "EMPTY"


EMPTY = _EmptyFace()

FaceKey = object  # frozenset[Tube] | _EmptyFace


def _face_sort_key(item):
    key, dim = item
    return (dim, tuple(sorted(t.members for t in key)))


class _CoverIndex(NamedTuple):
    upper: tuple[tuple[int, ...], ...]  # upper[i]: faces covering face i
    lower: tuple[tuple[int, ...], ...]  # lower[i]: faces covered by face i
    index: dict  # face key -> position in ``faces``


@dataclass(frozen=True)
class FaceLattice:
    """A graded face poset with explicit covering edges.

    ``faces[i]`` has dimension ``dims[i]``; ``covers`` holds index pairs
    (lower, upper) with a dimension gap of exactly one.  The top face (the
    polytope itself) is included; so is the empty face at dimension -1.
    """

    kind: str
    dim: int
    faces: tuple[FaceKey, ...]
    dims: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]

    @cached_property
    def _cover_index(self) -> _CoverIndex:
        """Per-face upper and lower cover tuples and the key -> index dict.

        Built on first use, so lattices whose covers are never read (the
        realization builds many) do not pay for it.
        """
        upper: list[list[int]] = [[] for _ in self.faces]
        lower: list[list[int]] = [[] for _ in self.faces]
        for a, b in self.covers:
            upper[a].append(b)
            lower[b].append(a)
        index = {key: i for i, key in enumerate(self.faces)}
        return _CoverIndex(tuple(map(tuple, upper)), tuple(map(tuple, lower)), index)

    def index(self, key: FaceKey) -> int:
        try:
            return self._cover_index.index[key]
        except KeyError:
            raise ValueError(f"{key} is not a face of this lattice") from None

    def faces_of_dim(self, d: int) -> tuple[FaceKey, ...]:
        return tuple(f for f, fd in zip(self.faces, self.dims) if fd == d)

    def upper_covers(self, i: int) -> tuple[int, ...]:
        return self._cover_index.upper[i]

    def check_graded(self) -> None:
        """Raise NotGradedError unless the lattice is graded by its dims.

        A lattice that passes is not checked again: it is frozen.
        """
        self._graded

    @cached_property
    def _graded(self) -> bool:
        """check_graded's work; a failure raises, so it caches nothing."""
        if self.dim not in self.dims:
            raise NotGradedError("missing top face")
        for a, b in self.covers:
            if self.dims[b] - self.dims[a] != 1:
                raise NotGradedError("cover with dimension gap != 1")
        cover_index = self._cover_index
        for i, d in enumerate(self.dims):
            if d < self.dim and not cover_index.upper[i]:
                raise NotGradedError(f"face {self.faces[i]} has no upper cover")
            if d > -1 and not cover_index.lower[i]:
                raise NotGradedError(f"face {self.faces[i]} has no lower cover")
        return True

    def euler_sum(self) -> int:
        """Alternating sum over all faces including the empty one."""
        return sum(-1 if d % 2 else 1 for d in self.dims)


def tubing_face_lattice(kind: str, tubes: Sequence, tubings: Iterable[frozenset],
                        dim: int) -> FaceLattice:
    """Faces are proper tubings under reverse inclusion.

    ``tubes`` lists every proper tube and ``tubings`` every proper tubing,
    as a frozenset of those tubes; a tubing of k tubes is a face of
    dimension dim - k.  Removing one tube is a covering step, and the empty
    face sits below the vertices (the tubings of dim tubes).  Each tubing
    is a bitmask over ``tubes``; the faces covering it are its mask with
    one bit cleared.
    """
    items = sorted(((T, dim - len(T)) for T in tubings), key=_face_sort_key)
    bit = {t: 1 << k for k, t in enumerate(tubes)}
    masks = [sum(bit[t] for t in key) for key, _ in items]
    position = {mask: p for p, mask in enumerate(masks, 1)}  # EMPTY is face 0
    covers = [(0, p) for p, (_, d) in enumerate(items, 1) if d == 0]
    for p, mask in enumerate(masks, 1):
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            covers.append((p, position[mask ^ low]))
    covers.sort()
    return FaceLattice(kind=kind, dim=dim, faces=(EMPTY, *(key for key, _ in items)),
                       dims=(-1, *(d for _, d in items)), covers=tuple(covers))


@lru_cache(maxsize=CACHE_SIZE)
def associahedron_face_lattice(P: Poset) -> FaceLattice:
    """The face lattice of the poset associahedron, of dimension |P| - 2."""
    return tubing_face_lattice("associahedron", tube_complex(P).tubes,
                               (T.tubes for T in enumerate_proper_tubings(P)),
                               len(P.elements) - 2)


@lru_cache(maxsize=CACHE_SIZE)
def tubing_partitions(P: Poset, members: tuple[int, ...] | None = None,
                      strict_blocks: bool = False) -> tuple[frozenset[Tube], ...]:
    """All partitions of ``members`` into tubes with acyclic dependencies.

    strict_blocks drops the one-block partition {members}.  Blocks are found
    by always covering the smallest remaining element, so each partition is
    produced exactly once.
    """
    ground = tuple(P.elements) if members is None else members
    inside = [t for t in enumerate_tubes(P) if t.as_set <= set(ground)]
    results: list[frozenset[Tube]] = []
    chosen: list[Tube] = []

    def extend(remaining: frozenset[int]) -> None:
        if not remaining:
            blocks = frozenset(chosen)
            if strict_blocks and len(blocks) == 1:
                return
            if len(blocks) > 1 and find_cycle(d_graph(P, blocks)) is not None:
                return
            results.append(blocks)
            return
        smallest = min(remaining)
        for t in inside:
            if smallest in t and t.as_set <= remaining:
                chosen.append(t)
                extend(remaining - t.as_set)
                chosen.pop()

    extend(frozenset(ground))
    results.sort(key=lambda bs: (len(bs), tuple(sorted(t.members for t in bs))))
    return tuple(results)


@lru_cache(maxsize=CACHE_SIZE)
def order_polytope_face_lattice(P: Poset) -> FaceLattice:
    """Faces are tubing partitions ordered by refinement.

    The one-block partition is the empty face; a face of partition T has
    dimension |T| - 2.  A face covers another when its partition is the
    other's with two blocks merged, so the covers below a partition are
    read off its block pairs.
    """
    items = sorted(((T, len(T) - 2) for T in tubing_partitions(P)), key=_face_sort_key)
    position = {T: p for p, (T, _) in enumerate(items)}
    covers = []
    for p, (T, _) in enumerate(items):
        for a, b in itertools.combinations(T, 2):
            merged = T - {a, b} | {Tube.of(a.members + b.members)}
            if merged in position:
                covers.append((position[merged], p))
    covers.sort()
    return FaceLattice(kind="order_polytope", dim=len(P.elements) - 2,
                       faces=tuple(EMPTY if len(T) == 1 else T for T, _ in items),
                       dims=tuple(d for _, d in items), covers=tuple(covers))


def f_vector(L: FaceLattice) -> tuple[int, ...]:
    """(f_0, ..., f_dim): face counts by dimension, top face included."""
    L.check_graded()
    counts = [0] * (L.dim + 1)
    for d in L.dims:
        if d >= 0:
            counts[d] += 1
    return tuple(counts)


def h_vector(L: FaceLattice) -> tuple[int, ...]:
    """h-vector via the binomial transform of the dual simplicial complex.

    The dual's (i-1)-face numbers are read off the f-vector from the top:
    f*_{i-1} = f_{dim-i}.  Combinatorial only; meaningful when the lattice
    comes from a simple polytope.
    """
    f = f_vector(L)
    d = L.dim
    fstar = [f[d - i] for i in range(d + 1)]  # fstar[i] == f*_{i-1}
    h = []
    for k in range(d + 1):
        total = 0
        for i in range(k + 1):
            total += (-1) ** (k - i) * math.comb(d - i, k - i) * fstar[i]
        h.append(total)
    return tuple(h)


class FlagCheck(NamedTuple):
    ok: bool
    witness: tuple[Tube, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_flag_dual(P: Poset) -> FlagCheck:
    """Whether every pairwise-compatible set of proper tubes is a tubing.

    On failure returns a minimal non-tubing whose proper subsets are all
    tubings (found by extending tubings one tube at a time, so the first
    hit in canonical order is minimal).  The walk is the tubing walk of
    ``tube_complex(P)``: the candidates it rejects for closing a cycle are
    the only families to test, and ``is_tubing`` checks each witness.
    """
    cx = tube_complex(P)

    def witness(chosen: list[int], i: int) -> FlagCheck | None:
        two_cycles = cx.arrow[i] & cx.arrow_in[i]
        if any(two_cycles >> j & 1 for j in chosen):
            return None  # a pair of the candidate is no tubing
        family = [cx.tubes[k] for k in chosen] + [cx.tubes[i]]
        if len(family) >= 3 and all(
            is_tubing(P, family[:d] + family[d + 1:]) for d in range(len(family))
        ):
            return FlagCheck(False, tuple(family))
        return None

    found = walk_tubings(cx, lambda chosen: None, witness)
    return FlagCheck(True) if found is None else found


def face_product_decomposition(P: Poset, T: Tubing) -> list[Poset]:
    """Quotient posets whose polytopes multiply to the face of T.

    For every tube of T (and the whole poset) the maximal tubes of T
    strictly inside it are contracted; ambient dimensions of the factors
    add up to |P| - |T| - 2.
    """
    tree = tubing_tree(T)
    factors = []
    for node in sorted(T.tubes | {full_tube(P)}, key=Tube.key):
        blocks = [c for c in tree.children[node] if c in T.tubes]
        loose = set(node.members) - set(itertools.chain.from_iterable(b.members for b in blocks))
        partition = [b.members for b in blocks] + [(e,) for e in sorted(loose)]
        sub = P.subposet(node.members) if len(node) > 1 else None
        if len(partition) == len(node):
            factors.append(sub)
        else:
            factors.append(quotient_poset(sub, partition))
    return factors

"""Graded face lattices: tubings for the main polytope, finite or affine,
from the host's one tubing walk by one builder (``tubing_face_lattice``),
tubing partitions for the order polytope, plus f/h-vectors, flagness and
face factorizations.

Face keys are frozensets of tubes (or of partition blocks); the empty face
is the ``EMPTY`` sentinel so Euler checks run uniformly.  A tubing lattice
holds its faces as the walk's masks and builds a key only when it is read
(``TubingFaces``): f/h-vectors, gradedness and Euler sums read none.  Its
cover pairs are read off the same masks whenever they are iterated
(``TubingCovers``), and none is stored; its gradedness is checked on the
masks too, with no pair built (``TubingCovers.grade``).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

from .errors import NotGradedError
from .poset import Poset, dependency_order, quotient_poset
from .tubes import (
    CACHE_SIZE,
    Tube,
    Tubing,
    _TupleView,
    _tubing_key,
    block_partitions,
    enumerate_tubes,
    full_tube,
    tube_table,
    tubing_tree,
    tubing_walk,
)


class _EmptyFace:
    def __repr__(self):
        return "EMPTY"


EMPTY = _EmptyFace()

FaceKey = object  # frozenset[Tube] | _EmptyFace


class TubingFaces(_TupleView):
    """The face keys of a tubing lattice, read-only: ``EMPTY``, then the
    frozenset of tubes of each mask (``_tubing_key``), built on first read
    and kept.  Counting builds no key; a slice (a tuple) builds only its own.
    """

    __slots__ = ("tubes", "masks", "_key")

    def __init__(self, tubes: Sequence, masks: Sequence[int]):
        self.tubes, self.masks = tubes, masks
        built: list = []  # filled with keys as they are read

        def key(p: int):
            if not built:
                built.extend([None] * len(masks))
            face = built[p]
            if face is None:
                face = built[p] = _tubing_key(tubes, masks[p])
            return face

        self._key = key

    def __len__(self) -> int:
        return len(self.masks) + 1

    def _item(self, p: int):
        return EMPTY if p == 0 else self._key(p - 1)

    def __reduce__(self):
        return TubingFaces, (self.tubes, self.masks)  # the kept keys are rebuilt when read


class TubingCovers(_TupleView):
    """The covering pairs (lower, upper) of a tubing lattice, read off its
    faces' masks and never stored: (0, p) for each vertex p, then each face
    p's mask with one bit cleared, lowest bit first.  The faces come by
    dimension, as ``tubing_face_lattice`` lists them, and a face's covers
    lie in the next dimension, so iterating maps mask to position for one
    dimension at a time and keeps no map when it ends.  Counting the pairs
    builds none; an index or a slice (a tuple) iterates up to its last pair.
    A face whose mask with a bit cleared is no face raises ``NotGradedError``.
    """

    __slots__ = ("faces", "dims")

    def __init__(self, faces: TubingFaces, dims: Sequence[int]):
        self.faces, self.dims = faces, dims

    def __len__(self) -> int:
        return self.dims.count(0) + sum(map(int.bit_count, self.faces.masks))

    def __getitem__(self, i: int | slice):
        picked = range(len(self))[i]  # negative indices, slices, and IndexError past the end
        if isinstance(i, slice):
            head = tuple(itertools.islice(self, max(picked, default=-1) + 1))
            return tuple(map(head.__getitem__, picked))
        return next(itertools.islice(self, picked, None))

    def _dimensions(self):
        """Per dimension of faces, their positions and the map from mask to
        position of the next dimension's faces; EMPTY (face 0) is left out."""
        masks, dims = self.faces.masks, self.dims
        start = 1
        while start < len(dims):
            stop = bisect_right(dims, dims[start])
            end = bisect_right(dims, dims[start] + 1)
            yield range(start, stop), dict(zip(masks[stop - 1:end - 1], range(stop, end)))
            start = stop

    def __iter__(self):
        masks = self.faces.masks
        yield from ((0, p) for p in range(1, bisect_right(self.dims, 0)))
        for faces, position in self._dimensions():
            for p in faces:
                mask = rest = masks[p - 1]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    upper = position.get(mask ^ low)
                    if upper is None:
                        raise NotGradedError(f"face {self.faces[p]} has no upper cover without "
                                             f"{self.faces.tubes[low.bit_length() - 1]}")
                    yield p, upper

    def grade(self) -> None:
        """Check on the masks, with no pair built, that each face has all its
        upper covers and a lower cover: per dimension, each mask with one bit
        cleared is looked up in the next dimension's map and marks the face
        it finds as reached from below.  Raise ``NotGradedError`` on the face
        that ``FaceLattice``'s loop over the pairs names first: a missing
        upper cover (as iterating raises), then EMPTY without a vertex, then
        the first face without a lower cover.
        """
        masks, vertices = self.faces.masks, bisect_right(self.dims, 0)
        reached = bytearray(len(self.dims))  # reached[0]: a mask with a bit cleared is no face
        reached[1:vertices] = b"\1" * (vertices - 1)  # EMPTY covers the vertices
        for faces, position in self._dimensions():
            get = position.get
            for mask in masks[faces.start - 1:faces.stop - 1]:
                rest = mask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    reached[get(mask ^ low, 0)] = 1
            if reached[0]:
                for _ in self:  # raises on the first pair missing, as the pair loop does
                    pass
        if vertices == 1:
            raise NotGradedError(f"face {EMPTY} has no upper cover")
        missing = reached.find(0, 1)
        if missing != -1:
            raise NotGradedError(f"face {self.faces[missing]} has no lower cover")

    def __reduce__(self):
        return TubingCovers, (self.faces, self.dims)


@dataclass(frozen=True)
class FaceLattice:
    """A graded face poset with explicit covering edges.

    ``faces[i]`` has dimension ``dims[i]``; ``covers`` holds index pairs
    (lower, upper) with a dimension gap of exactly one.  The top face (the
    polytope itself) is included; so is the empty face at dimension -1.
    ``faces`` and ``covers`` are tuples, or for a tubing lattice a
    ``TubingFaces`` and a ``TubingCovers``.
    """

    kind: str
    dim: int
    faces: Sequence[FaceKey]
    dims: tuple[int, ...]
    covers: Sequence[tuple[int, int]]

    @cached_property
    def _upper(self) -> tuple[tuple[int, ...], ...]:
        """Per face, the faces covering it; built on first use, so lattices
        whose covers are never read (the realization builds many) do not pay
        for it."""
        upper: list[list[int]] = [[] for _ in self.dims]
        for a, b in self.covers:
            upper[a].append(b)
        return tuple(map(tuple, upper))

    @cached_property
    def _index(self) -> dict:
        """Face key -> position in ``faces``; reads every key."""
        return {key: i for i, key in enumerate(self.faces)}

    def index(self, key: FaceKey) -> int:
        try:
            return self._index[key]
        except KeyError:
            raise ValueError(f"{key} is not a face of this lattice") from None

    def faces_of_dim(self, d: int) -> tuple[FaceKey, ...]:
        """The keys of dimension d; no other key is read."""
        return tuple(self.faces[i] for i, fd in enumerate(self.dims) if fd == d)

    def upper_covers(self, i: int) -> tuple[int, ...]:
        return self._upper[i]

    def check_graded(self) -> None:
        """Raise NotGradedError unless the lattice is graded by its dims.

        A lattice that passes is not checked again: it is frozen.
        """
        self._graded

    @cached_property
    def _graded(self) -> bool:
        """check_graded's work: a tubing lattice grades itself on its masks
        (``TubingCovers.grade``); explicit cover pairs are checked one by
        one, with one flag per face for an upper and a lower cover.  A
        failure raises, so it caches nothing."""
        dims, covers = self.dims, self.covers
        if self.dim not in dims:
            raise NotGradedError("missing top face")
        if isinstance(covers, TubingCovers) and covers.faces is self.faces and covers.dims is dims:
            covers.grade()
            return True
        has_upper, has_lower = bytearray(len(dims)), bytearray(len(dims))
        for a, b in covers:
            if dims[b] - dims[a] != 1:
                raise NotGradedError("cover with dimension gap != 1")
            has_upper[a] = has_lower[b] = 1
        for i, d in enumerate(dims):
            if d < self.dim and not has_upper[i]:
                raise NotGradedError(f"face {self.faces[i]} has no upper cover")
            if d > -1 and not has_lower[i]:
                raise NotGradedError(f"face {self.faces[i]} has no lower cover")
        return True

    def euler_sum(self) -> int:
        """Alternating sum over all faces including the empty one."""
        return sum(-1 if d % 2 else 1 for d in self.dims)


def tubing_face_lattice(kind: str, tubes: Sequence, tubings: Sequence[int],
                        dim: int) -> FaceLattice:
    """Faces are proper tubings under reverse inclusion, read off a host's
    one tubing walk (``walk_tubings``): tubes in descending members order,
    tubings as masks over them.

    One of k tubes is a face of dimension dim - k, and within one dimension
    the descending order of the masks is the ascending members order of the
    faces.  The faces covering a tubing are its mask with one bit cleared,
    lowest bit first, so in face order; the empty face sits below the
    vertices (the tubings of dim tubes).  Face keys are built when read
    (``TubingFaces``) and cover pairs when iterated (``TubingCovers``).
    """
    masks = sorted(tubings, reverse=True)
    masks.sort(key=int.bit_count, reverse=True)  # stable: by size, each size as above
    dims = (-1, *(dim - mask.bit_count() for mask in masks))
    faces = TubingFaces(tuple(tubes), tuple(masks))
    return FaceLattice(kind=kind, dim=dim, faces=faces, dims=dims, covers=TubingCovers(faces, dims))


@lru_cache(maxsize=CACHE_SIZE)
def associahedron_face_lattice(P: Poset) -> FaceLattice:
    """The face lattice of the poset associahedron, of dimension |P| - 2,
    from the host's one tubing walk."""
    return tubing_face_lattice("associahedron", *tubing_walk(P)[:2], len(P.elements) - 2)


@lru_cache(maxsize=CACHE_SIZE)
def tubing_partitions(P: Poset, members: tuple[int, ...] | None = None,
                      strict_blocks: bool = False) -> tuple[frozenset[Tube], ...]:
    """All partitions of ``members`` into tubes with acyclic dependencies.

    strict_blocks drops the one-block partition {members}.  The blocks are
    element masks, of the singletons and of ``tube_table``, and
    ``block_partitions`` finds each partition once.  It is acyclic when
    ``dependency_order`` places every block.
    """
    table = tube_table(P)
    tubes = enumerate_tubes(P)  # the singletons, in element order, then the table's tubes
    masks = (*(1 << k for k in range(len(P.elements))), *table.mask)
    out = [up & ~mask for mask, up in zip(masks, (*table.above, *table.up))]  # arrow heads
    ground = sum(1 << P.elements.index(e) for e in (P.elements if members is None else members))

    def acyclic(blocks: Sequence[int]) -> bool:
        into = [sum(1 << a for a, s in enumerate(blocks) if out[s] & masks[t]) for t in blocks]
        return not dependency_order(into, (1 << len(blocks)) - 1)[1]

    results = [blocks for blocks in block_partitions(ground, masks)
               if not (strict_blocks and len(blocks) == 1) and acyclic(blocks)]
    results.sort(key=lambda blocks: (len(blocks), tuple(tubes[k].members for k in blocks)))
    return tuple(frozenset(map(tubes.__getitem__, blocks)) for blocks in results)


@lru_cache(maxsize=CACHE_SIZE)
def order_polytope_face_lattice(P: Poset) -> FaceLattice:
    """Faces are tubing partitions ordered by refinement.

    The one-block partition is the empty face; a face of partition T has
    dimension |T| - 2, and ``tubing_partitions`` lists them in face order.
    A face covers another when its partition is the other's with two blocks
    merged, so the covers below a partition are read off its block pairs:
    two blocks merge to the tube whose element mask is their union.
    """
    parts = tubing_partitions(P)
    table = tube_table(P)
    mask_of = dict(zip(enumerate_tubes(P), (*(1 << k for k in range(len(P.elements))),
                                            *table.mask)))
    tube_at = dict(zip(table.mask, table.tubes))  # a union of two blocks is no singleton
    position = {T: p for p, T in enumerate(parts)}
    covers = []
    for p, T in enumerate(parts):
        for a, b in itertools.combinations(T, 2):
            # a union that is no tube merges to a key with None: no partition
            q = position.get(T - {a, b} | {tube_at.get(mask_of[a] | mask_of[b])})
            if q is not None:
                covers.append((q, p))
    covers.sort()
    return FaceLattice(kind="order_polytope", dim=len(P.elements) - 2,
                       faces=tuple(EMPTY if len(T) == 1 else T for T in parts),
                       dims=tuple(len(T) - 2 for T in parts), covers=tuple(covers))


def f_vector(L: FaceLattice) -> tuple[int, ...]:
    """(f_0, ..., f_dim): face counts by dimension, top face included."""
    L.check_graded()
    return tuple(map(L.dims.count, range(L.dim + 1)))


def h_vector(L: FaceLattice) -> tuple[int, ...]:
    """h-vector via the binomial transform of the dual simplicial complex.

    The dual's (i-1)-face numbers are read off the f-vector from the top:
    f*_{i-1} = f_{dim-i}.  Combinatorial only; meaningful when the lattice
    comes from a simple polytope.
    """
    f = f_vector(L)
    d = L.dim
    fstar = [f[d - i] for i in range(d + 1)]  # fstar[i] == f*_{i-1}
    return tuple(sum((-1) ** (k - i) * math.comb(d - i, k - i) * fstar[i] for i in range(k + 1))
                 for k in range(d + 1))


class FlagCheck(NamedTuple):
    ok: bool
    witness: tuple[Tube, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_flag_dual(P: Poset) -> FlagCheck:
    """Whether every pairwise-compatible set of proper tubes is a tubing.

    On failure returns a minimal non-tubing whose proper subsets are all
    tubings: the first the host's one tubing walk (``tubing_walk``) meets
    among the candidates it rejects, each checked with ``is_tubing``.
    """
    witness = tubing_walk(P)[2]
    return FlagCheck(True) if witness is None else FlagCheck(False, witness)


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

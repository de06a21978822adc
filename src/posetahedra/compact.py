"""Compactified configuration spaces of order-preserving maps.

A point of the compactification is a tuple of order-polytope points, one
per non-singleton tube (the whole poset included), linked by the coherence
condition: projecting a bigger tube's point to a nested tube must give a
nonnegative multiple of the nested tube's point.  All operations here are
exact; convergence statements are exercised through explicit rational
curves, never approximate limits.

The kernel works on tube positions (``_host_index``): a point holds one
integer row per position, and a stratum is the mask of the positions of its
tubes and the root, the nodes of its tubing tree.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from numbers import Rational
from types import MappingProxyType
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    IncoherentError,
    NotAdjacentError,
    NotAPartitionError,
    NotATubeError,
    NotATubingError,
    NotCollapsibleError,
    NotExpandableError,
    NotInCollError,
    NotStrictError,
    RangeError,
    RegimeError,
    WrongFaceError,
)
from .linalg import homogeneous
from .polytope import bit_positions
from .poset import Poset, Vector, cover_indices, dependency_order, from_row, res_cleared
from .rational import frac
from .tubes import (
    CACHE_SIZE,
    Tube,
    Tubing,
    TubingTree,
    TubeTable,
    full_tube,
    tube_table,
    tubing_tree,
)

SCALE_GUARD = Fraction(1, 10)

Row = tuple[int, ...]


class _Unbounded:
    """The type of ``UNBOUNDED``: above every rational number."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNBOUNDED"

    def __gt__(self, other):
        return True if isinstance(other, Rational) else NotImplemented

    def __lt__(self, other):
        return False if isinstance(other, Rational) else NotImplemented

    __ge__ = __gt__
    __le__ = __lt__


# t_max of a pair that no boundary relation bounds
UNBOUNDED = _Unbounded()


def nonsingleton_tubes(P: Poset) -> tuple[Tube, ...]:
    return tube_table(P).tubes


@dataclass(frozen=True)
class ConfigPoint:
    """One order-polytope point per non-singleton tube of the host poset.

    The components are copied on construction, in element order, and
    frozen: the outer mapping and every component are read-only views, so
    the cached rows, ``nodes``, ``tubing`` and ``tree`` cannot go stale.  A
    point built by the kernel holds only its rows, by tube position; its
    components are read-only ``Fraction`` views of them, each built the
    first time it is read.
    """

    host: Poset
    components: Mapping[Tube, Mapping[int, Fraction]] = field(hash=False)
    # True on points made by _trusted, whose rows are normalized
    # restrictions by construction; tubing_of validates the others.
    _filled = False

    def __post_init__(self):
        frozen = {tube: _frozen(vec) for tube, vec in self.components.items()}
        object.__setattr__(self, "components", MappingProxyType(frozen))

    @classmethod
    def _trusted(cls, index: "_HostIndex", rows: tuple[Row, ...]) -> "ConfigPoint":
        """A point of the index's host on the canonical rows of its
        components, one per tube position; they are not copied or checked."""
        point = object.__new__(cls)
        point.__dict__.update(host=index.host, components=_RowComponents(index, rows),
                              _index=index, _rows=rows, _filled=True)
        return point

    def __getitem__(self, tube: Tube) -> Mapping[int, Fraction]:
        return self.components[tube]

    def validate(self) -> None:
        self._check_cover()
        for tube, vec in self.components.items():
            _check_polytope_point(self.host, tube, vec)

    def _check_cover(self) -> None:
        """One component per non-singleton tube, each on the tube's elements."""
        if set(self.components) != set(nonsingleton_tubes(self.host)):
            raise ValueError("components must cover every non-singleton tube")
        for tube, vec in self.components.items():
            if set(vec) != tube.as_set:
                raise ValueError(f"component {tube} has wrong index set")

    @cached_property
    def _index(self) -> "_HostIndex":
        return _host_index(self.host)

    @cached_property
    def _rows(self) -> tuple[Row, ...]:
        """Each component cleared once, by tube position: its homogeneous
        row, numerators in the order of the tube's members, then the common
        denominator."""
        return tuple(_row(tube, self.components[tube]) for tube in self._index.tubes)

    @cached_property
    def rows(self) -> Mapping[Tube, Row]:
        """The rows keyed by tube."""
        return MappingProxyType(dict(zip(self._index.tubes, self._rows)))

    @cached_property
    def nodes(self) -> int:
        """The stratum as a mask of tube positions: its tubes and the root.
        It is recomputed from the rows, after the checks of ``tubing_of``."""
        return _stratum_nodes(self)

    @cached_property
    def tubing(self) -> Tubing:
        index = self._index
        return Tubing(self.host, frozenset(map(index.tubes.__getitem__,
                                               bit_positions(self.nodes & index.proper))))

    @cached_property
    def tree(self) -> TubingTree:
        return tubing_tree(self.tubing)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConfigPoint) or self.host != other.host:
            return False
        if self._filled and other._filled:
            # kernel rows are canonical, so equal rows mean equal values
            return self._rows == other._rows
        # a point from the public constructor is compared by the components
        # it was given, which need not clear to rows
        return self.components == other.components


class _RowComponents(Mapping):
    """The read-only components of a kernel-built point.

    Each component is a read-only ``Fraction`` view of its row, built the
    first time it is read and then kept in ``_views``.
    """

    __slots__ = ("_index", "_rows", "_views")

    def __init__(self, index: "_HostIndex", rows: tuple[Row, ...]):
        self._index = index
        self._rows = rows
        self._views: dict[Tube, Mapping[int, Fraction]] = {}

    def __getitem__(self, tube: Tube) -> Mapping[int, Fraction]:
        view = self._views.get(tube)
        if view is None:
            row = self._rows[self._index.position[tube]]
            view = self._views[tube] = MappingProxyType(from_row(tube.members, row))
        return view

    def __contains__(self, tube) -> bool:
        return tube in self._index.position

    def __iter__(self):
        return iter(self._index.tubes)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _frozen(vec: Mapping[int, Fraction]) -> Mapping[int, Fraction]:
    return MappingProxyType(dict(sorted(vec.items())))


def _row(tube: Tube, vec: Mapping[int, Fraction]) -> Row:
    return homogeneous([vec[i] for i in tube.members])


def _check_polytope_point(P: Poset, tube: Tube, vec: Mapping[int, Fraction]) -> Row:
    """Check that the component is a point of Ord(tube) and return its row."""
    if set(vec) != tube.as_set:
        raise ValueError(f"component {tube} has wrong index set")
    index = _host_index(P)
    row = _row(tube, vec)
    _check_row(tube, index.covers[index.position[tube]], row)
    return row


def _check_row(tube: Tube, pairs: Sequence[tuple[int, int]], row: Row) -> None:
    """Check that the row is a point of Ord(tube), ``pairs`` being the
    tube's cover pairs as member positions.

    The checks run on the numerators n over the row's denominator D: the
    point sums to zero when the n do, and alpha is 1 when alpha(n) = D.
    """
    if sum(row[:-1]) != 0:
        raise ValueError(f"component {tube} does not sum to zero")
    if sum(row[b] - row[a] for a, b in pairs) != row[-1]:
        raise ValueError(f"component {tube} is not normalized")
    if any(row[a] > row[b] for a, b in pairs):
        raise ValueError(f"component {tube} is not order-preserving")


# -- the position index -------------------------------------------------------


class _HostIndex(NamedTuple):
    """Per-host tables of the non-singleton tubes at their ``tube_table``
    positions, the root last; elements are bits in ``P.elements`` order."""

    host: Poset
    table: TubeTable
    tubes: tuple[Tube, ...]
    position: Mapping[Tube, int]
    root: int
    proper: int  # the mask of the proper tubes
    at_mask: Mapping[int, int]  # the position of each element mask
    bits: tuple[tuple[int, ...], ...]  # the bits of each tube's members
    inside: tuple[tuple[int, ...], ...]  # the positions strictly inside each tube
    # the host's cover pairs inside each tube, as positions in its members
    covers: tuple[tuple[tuple[int, int], ...], ...]
    # covering pairs (inner, outer) of inclusion, their positions, and the
    # positions of inner's members among outer's
    pairs: tuple[tuple[Tube, Tube, int, int, tuple[int, ...]], ...]
    # filled on demand: gathers[m][x] holds the positions of tube x's
    # members among tube m's, and boundary[x, y] the boundary relations
    # of tube x inside tube y (see _boundary)
    gathers: tuple[dict[int, tuple[int, ...]], ...]
    boundary: dict[tuple[int, int], tuple[list, list]]


@lru_cache(maxsize=CACHE_SIZE)
def _host_index(P: Poset) -> _HostIndex:
    """The index, with the covering pairs of inclusion in position order.

    Coherence is transitive along chains: projection is linear, so if mid's
    projection of outer is a*mid and inner's projection of mid is b*inner,
    inner's projection of outer is ab*inner.  Covering pairs therefore
    decide coherence, and every non-root tube is the inner tube of one.
    The tubes covering x are those of ``sup[x]`` that contain no other
    tube of ``sup[x]``.
    """
    table = tube_table(P)
    tubes, sup = table.tubes, table.sup
    bit = {e: 1 << k for k, e in enumerate(P.elements)}
    pairs = []
    for x, inner in enumerate(tubes):
        over = sup[x]
        for o in bit_positions(over):
            over &= ~sup[o]
        pairs.extend((inner, tubes[o], x, o, tuple(map(tubes[o].members.index, inner.members)))
                     for o in bit_positions(over))
    root = len(tubes) - 1
    return _HostIndex(
        host=P, table=table, tubes=tubes,
        position=MappingProxyType({tube: k for k, tube in enumerate(tubes)}), root=root,
        proper=(1 << root) - 1, at_mask=MappingProxyType({m: k for k, m in enumerate(table.mask)}),
        bits=tuple(tuple(bit[e] for e in t.members) for t in tubes),
        inside=tuple(tuple(x for x in range(len(tubes)) if sup[x] >> k & 1)
                     for k in range(len(tubes))),
        covers=tuple(tuple(cover_indices(P, t.members)) for t in tubes), pairs=tuple(pairs),
        gathers=tuple({} for _ in tubes), boundary={})


def _gather(index: _HostIndex, x: int, m: int) -> tuple[int, ...]:
    """The positions of tube x's members among those of tube m, x inside m."""
    at = index.gathers[m].get(x)
    if at is None:
        outer = index.tubes[m].members
        at = index.gathers[m][x] = tuple(map(outer.index, index.tubes[x].members))
    return at


def _parent(index: _HostIndex, nodes: int, x: int) -> int | None:
    """The smallest node strictly containing tube x, if any."""
    low = index.table.sup[x] & nodes
    return (low & -low).bit_length() - 1 if low else None


def _nodes_of(index: _HostIndex, T: Tubing) -> int:
    """The node mask of a tubing: its non-singleton tubes and the root."""
    nodes = 1 << index.root
    for tube in T.tubes:
        k = index.position.get(tube)
        if k is not None:
            nodes |= 1 << k
    return nodes


def _children(index: _HostIndex, nodes: int, k: int) -> list[int]:
    """The element masks of node k's children, in ``Tube.key`` order: a
    singleton for each element of k in no node below it, then the largest
    nodes below it."""
    mask = index.table.mask
    below = [mask[x] for x in index.inside[k] if nodes >> x & 1 and _parent(index, nodes, x) == k]
    rest = mask[k]
    for m in below:
        rest &= ~m
    return [1 << e for e in bit_positions(rest)] + below


# -- restriction embedding ----------------------------------------------------


def embed(P: Poset, x: Mapping[int, Fraction]) -> ConfigPoint:
    """Restrict a strict configuration to every non-singleton tube.

    The input lives in the open order cone: coordinates sum to zero and
    increase strictly along every relation.  Restriction is transitive,
    res(X, res(P, x)) = res(X, x), so this is the point filled in from the
    root component alone.
    """
    x = {i: frac(v) for i, v in x.items()}
    if set(x) != set(P.elements):
        raise ValueError("configuration must assign every element")
    if sum(x.values()) != 0:
        raise ValueError("configuration coordinates must sum to zero")
    for i, j in P.covers:
        if x[i] >= x[j]:
            raise NotStrictError(f"need x[{i}] < x[{j}]")
    index = _host_index(P)
    root = index.root
    rows: list = [None] * len(index.tubes)
    num = homogeneous([x[i] for i in P.elements])[:-1]  # less the denominator
    rows[root] = res_cleared(index.covers[root], num)
    return ConfigPoint._trusted(index, _fill(index, 1 << root, rows, root))


def is_coherent(c: ConfigPoint) -> tuple[bool, tuple[Tube, Tube] | None]:
    """Check the nested-projection condition on every covering tube pair.

    It reads the point's rows, each component cleared to integer numerators
    once; a positive common factor per component changes neither
    proportionality nor its sign.  With k = |inner| and S the sum of the
    outer numerators B over inner, the outer point projects to
    (k*B[i] - S) / k, so proportionality to the inner numerators Z with a
    nonnegative factor is a cross-product test against a pivot coordinate p
    plus one sign comparison; zero vectors need no special case.  On failure
    the offending (inner, outer) pair is the witness.
    """
    rows = c._rows
    for inner, outer, i, o, at in c._index.pairs:
        big, z = rows[o], rows[i]  # z ends with its denominator, which k leaves out
        k = len(at)
        y = [big[p] for p in at]
        total = sum(y)
        for pivot in range(k):
            zp = z[pivot]
            if zp:
                break
        else:  # zero component: not an order-polytope point
            return False, (inner, outer)
        yp = k * y[pivot] - total
        if yp * zp < 0:
            return False, (inner, outer)
        for q in range(k):
            if (k * y[q] - total) * zp != yp * z[q]:
                return False, (inner, outer)
    return True, None


def b_partition(P: Poset, tube_members: Iterable[int],
                x: Mapping[int, Fraction]) -> frozenset[Tube]:
    """Connected components of the level sets of x on the tube."""
    members = tuple(sorted(set(tube_members)))
    blocks = _level_masks([1 << a for a in range(len(members))], cover_indices(P, members),
                          [frac(x[i]) for i in members])
    return frozenset(Tube(tuple(members[a] for a in bit_positions(m))) for m in blocks)


def _level_masks(bits: Sequence[int], pairs: Iterable[tuple[int, int]],
                 values: Sequence) -> list[int]:
    """The level-set components of ``values`` on a tube, as masks of the
    members' ``bits``: members are joined along each cover pair (positions
    in the members) on which the values agree."""
    owner = list(range(len(bits)))  # each member's component, named by one member
    masks = list(bits)
    for a, b in pairs:
        if values[a] == values[b]:
            keep, drop = owner[a], owner[b]
            if keep != drop:
                masks[keep] |= masks[drop]
                masks[drop] = 0
                owner = [keep if r == drop else r for r in owner]
    return [m for m in masks if m]


def tubing_of(c: ConfigPoint) -> Tubing:
    """The stratum tubing: recursive level-set blocks starting at the root.

    The result is cached on the point, so repeated queries are free.  An
    incoherent point raises IncoherentError.  A point built by the public
    constructor is validated, raising ValueError: that it has a component
    on each non-singleton tube before the coherence check, and that each
    component is a point of its order polytope after it.
    """
    return c.tubing


def _stratum_nodes(c: ConfigPoint) -> int:
    """The node mask of the stratum, recomputed from the rows once the
    point is checked: each node's level-set blocks with more than one
    element are nodes, starting at the root."""
    if not c._filled:
        c._check_cover()  # is_coherent reads a row per tube
    ok, witness = is_coherent(c)
    if not ok:
        raise IncoherentError(f"incoherent at nested pair {witness}")
    if not c._filled:
        for tube, vec in c.components.items():
            _check_polytope_point(c.host, tube, vec)
    index = c._index
    rows = c._rows
    nodes = 1 << index.root
    stack = [index.root]
    while stack:
        k = stack.pop()
        for block in _level_masks(index.bits[k], index.covers[k], rows[k]):
            if block & (block - 1):  # more than one element
                x = index.at_mask[block]
                nodes |= 1 << x
                stack.append(x)
    return nodes


# -- stratum synthesis --------------------------------------------------------


def _fill(index: _HostIndex, nodes: int, rows: list, top: int) -> tuple[Row, ...]:
    """Complete the rows of the nodes to a point by normalized restriction.

    ``rows`` holds a row, or None, per tube position, the row of every node
    included, and is filled in place.  Only the tubes strictly inside
    ``top`` (the root for a whole point) are visited.  A tube X that is no
    node gets the row of res(X, y), y the component of its minimal node
    (the lowest bit of the nodes above it), computed on the node's row,
    when that node is ``top`` or when X has no row yet; otherwise X keeps
    the row it has.

    ``expand`` and ``collapse`` pass every row of their input, with the new
    one on the parent tube ``top``, and trust the kept ones.  A tube whose
    minimal node is another node keeps its row: that node's component is
    unchanged, so the restriction would come out the same.  In ``collapse``
    this includes the tubes whose minimal node is the tube tau put back,
    whose row is carried too: for X inside tau, res(X, res(tau, y)) =
    res(X, y), so they already hold their restriction of tau's component.
    """
    sup, covers, gathers = index.table.sup, index.covers, index.gathers
    top_bit = 1 << top
    for x in index.inside[top]:
        if nodes >> x & 1:
            continue
        low = sup[x] & nodes
        low &= -low
        if low != top_bit and rows[x] is not None:
            continue
        m = low.bit_length() - 1
        at = gathers[m].get(x)
        if at is None:
            at = _gather(index, x, m)
        row = rows[m]
        rows[x] = res_cleared(covers[x], [row[a] for a in at])
    return tuple(rows)


def synthesize(P: Poset, T: Tubing, interior: Mapping[Tube, Mapping[int, Fraction]]) -> ConfigPoint:
    """Assemble the stratum point with the given per-tree-tube interior data.

    For each tube of the tubing (and the full poset) the supplied point
    must lie in the open face whose blocks are exactly that tube's children
    in the nesting tree; everything else is reconstructed by restriction.
    """
    index = _host_index(P)
    nodes = _nodes_of(index, T)
    rows: list = [None] * len(index.tubes)
    for k in bit_positions(nodes):
        tube = index.tubes[k]
        if tube not in interior:
            raise WrongFaceError(f"missing interior point for {tube}")
        rows[k] = _check_polytope_point(P, tube, {i: frac(v) for i, v in interior[tube].items()})
        _check_blocks(index, k, rows[k], _children(index, nodes, k))
    return ConfigPoint._trusted(index, _fill(index, nodes, rows, index.root))


def _check_blocks(index: _HostIndex, k: int, row: Row, blocks: list[int]) -> None:
    """Check that the row of node k is constant on exactly the given blocks."""
    if set(_level_masks(index.bits[k], index.covers[k], row)) != set(blocks):
        raise WrongFaceError(f"point for {index.tubes[k]} is constant on the wrong blocks")


def _interior_row(above: Sequence[int], blocks: Sequence[int], bits: Sequence[int],
                  pairs: Sequence[tuple[int, int]]) -> Row:
    """The row of the canonical point of a tube's open face with the given
    blocks (element masks in ``Tube.key`` order); ``bits`` are the tube's
    member bits and ``pairs`` its cover pairs as member positions.

    Blocks get distinct integer heights along a linear extension of the
    quotient, the first ready block in ``blocks`` order lowest, so the
    level-set components are exactly the blocks; the point is the
    restriction of the heights.
    """
    ups = []
    for block in blocks:
        up = 0
        for e in bit_positions(block):
            up |= above[e]
        ups.append(up)
    # into[b]: the blocks other than b with a relation into b
    into = [sum(1 << a for a, up in enumerate(ups) if a != b and up & block)
            for b, block in enumerate(blocks)]
    order, blocked = dependency_order(into, (1 << len(blocks)) - 1)
    if blocked:
        raise NotATubingError("the blocks' dependency digraph has a cycle")
    height: dict[int, int] = {}
    for level, b in enumerate(order):
        height.update(dict.fromkeys((1 << e for e in bit_positions(blocks[b])), level))
    return res_cleared(pairs, [height[e] for e in bits])


def face_interior_point(P: Poset, tube: Tube, blocks: Iterable[Tube]) -> Vector:
    """Canonical point of the open face of Ord(tube) with the given blocks.

    Blocks get distinct integer heights along a linear extension of the
    quotient, the smallest ready block first, so the level-set components
    are exactly the blocks; the point is the restriction of the heights.
    A tube that is no non-singleton tube of P raises NotATubeError, blocks
    that do not partition the tube NotAPartitionError, then a block that
    is no tube NotATubeError, and blocks whose dependency digraph has a
    cycle NotATubingError.
    """
    index = _host_index(P)
    k = index.position.get(tube)
    if k is None:
        raise NotATubeError(f"{tube} is not a non-singleton tube of the host")
    bit = dict(zip(tube.members, index.bits[k]))
    blocks = sorted(blocks, key=Tube.key)
    masks, union = [], 0
    for block in blocks:
        if not block.as_set <= bit.keys():
            raise NotAPartitionError(f"blocks do not cover exactly {tube}")
        m = sum(map(bit.__getitem__, block.members))
        if union & m:
            raise NotAPartitionError("blocks overlap")
        union |= m
        masks.append(m)
    if union != index.table.mask[k]:
        raise NotAPartitionError(f"blocks do not cover exactly {tube}")
    if stray := [b for b in blocks if len(b) > 1 and b not in index.position]:
        raise NotATubeError(f"block {stray[0]} is not a tube of the host")
    return from_row(tube.members, _interior_row(index.table.above, masks, index.bits[k],
                                                index.covers[k]))


def _canonical_rows(index: _HostIndex, nodes: int) -> list:
    """The canonical interior row of every node, each checked to be a point
    of its order polytope constant on exactly its children; None elsewhere."""
    rows: list = [None] * len(index.tubes)
    for k in bit_positions(nodes):
        blocks = _children(index, nodes, k)
        row = rows[k] = _interior_row(index.table.above, blocks, index.bits[k], index.covers[k])
        _check_row(index.tubes[k], index.covers[k], row)
        _check_blocks(index, k, row, blocks)
    return rows


def stratum_point(P: Poset, T: Tubing) -> ConfigPoint:
    """Canonical exact point of the stratum labeled by the tubing."""
    index = _host_index(P)
    nodes = _nodes_of(index, T)
    return ConfigPoint._trusted(index, _fill(index, nodes, _canonical_rows(index, nodes), index.root))


@dataclass(frozen=True)
class Stratum:
    """A proper tubing together with interior data for each tree tube.

    The product of the open faces has dimension |P| - |T| - 2; ``point()``
    assembles the corresponding element of the compactification.  The
    interior is copied on construction and frozen, as ConfigPoint's
    components are.
    """

    tubing: Tubing
    interior: Mapping[Tube, Mapping[int, Fraction]] = field(hash=False)

    def __post_init__(self):
        frozen = {tube: MappingProxyType(dict(vec)) for tube, vec in self.interior.items()}
        object.__setattr__(self, "interior", MappingProxyType(frozen))

    @staticmethod
    def canonical(P: Poset, T: Tubing) -> "Stratum":
        index = _host_index(P)
        rows = _canonical_rows(index, _nodes_of(index, T))
        return Stratum(T, {tube: from_row(tube.members, row)
                           for tube, row in zip(index.tubes, rows) if row is not None})

    @cached_property
    def tree(self) -> TubingTree:
        return tubing_tree(self.tubing)

    @property
    def dim(self) -> int:
        tree = self.tree
        return sum(len(tree.children[t]) - 2 for t in tree.non_singleton_nodes())

    def point(self) -> ConfigPoint:
        return synthesize(self.tubing.host, self.tubing, self.interior)


# -- approach curves ----------------------------------------------------------


def limit_sample(c: ConfigPoint, t: Mapping[Tube, Fraction],
                 scale_guard: Fraction = SCALE_GUARD) -> Vector:
    """A strict configuration approaching the stratum point as t -> 0.

    Each coordinate is the root component plus the scaled tube components
    containing it.  The guard requires every nested tube's scale to be at
    most scale_guard times its parent's; strictness of the result is then
    re-checked exactly.
    """
    P = c.host
    T = c.tubing
    t = {tube: frac(v) for tube, v in t.items()}
    if set(t) != set(T.tubes):
        raise RegimeError("need one positive scale per tube of the stratum")
    if any(v <= 0 for v in t.values()):
        raise RegimeError("scales must be strictly positive")
    for small, big in itertools.permutations(T.tubes, 2):
        if small.issubset(big) and small != big and t[small] > t[big] * scale_guard:
            raise RegimeError(f"scale for {small} must be <= {scale_guard} * scale for {big}")
    y = {i: c[full_tube(P)][i] for i in P.elements}
    for tube in T.tubes:
        for i in tube:
            y[i] += t[tube] * c[tube][i]
    for i, j in P.covers:
        if y[i] >= y[j]:
            raise RegimeError("guard too weak: sampled configuration is not strict")
    return y


# -- expansion / collapse -----------------------------------------------------


def _boundary(index: _HostIndex, x: int, y: int) -> tuple[list, list]:
    """The relations crossing the boundary of tube x inside tube y, cached.

    ``up`` holds (a, i, j) for each p < q and ``down`` for each q < p, p in
    x and q in y outside it: a is the position of p among x's members, i
    and j those of p and q among y's.
    """
    found = index.boundary.get((x, y))
    if found is None:
        above, inner = index.table.above, index.table.mask[x]
        outside = [(j, q) for j, q in enumerate(index.bits[y]) if not q & inner]
        up, down = [], []
        for a, (i, p) in enumerate(zip(_gather(index, x, y), index.bits[x])):
            for j, q in outside:
                if above[p.bit_length() - 1] & q:
                    up.append((a, i, j))
                if above[q.bit_length() - 1] & p:
                    down.append((a, i, j))
        found = index.boundary[x, y] = (up, down)
    return found


def _adjacent(c: ConfigPoint, tau: Tube, tau_plus: Tube) -> tuple[int, int]:
    """The positions of tau and its parent tau_plus in the point's stratum."""
    index = c._index
    x = index.position.get(tau)
    if x is None or not c.nodes >> x & 1:
        raise NotAdjacentError(f"{tau} is not a non-singleton stratum tube")
    y = _parent(index, c.nodes, x)
    if y is None or index.position.get(tau_plus) != y:
        raise NotAdjacentError(f"{tau_plus} is not the parent of {tau}")
    return x, y


def _t_max_core(v: Row, u: Row, up: list, down: list):
    """1 / max(0, x[p] / gap) over the boundary relations, on the rows v of
    tau and u of tau_plus.

    With x = v/E on tau and y = u/D on tau_plus, each ratio x[p] / gap is
    (D/E) * v[a] / g, g the gap of the numerators u, so the largest v[a] / g
    is found by cross products and only the result is a Fraction.
    """
    top, gap = 0, 1  # the largest ratio so far, top / gap with gap > 0
    for a, i, j in up:
        n, g = v[a], u[j] - u[i]
        if n * gap > top * g:
            top, gap = n, g
    for a, i, j in down:
        n, g = -v[a], u[i] - u[j]
        if n * gap > top * g:
            top, gap = n, g
    if top == 0:
        return UNBOUNDED
    return Fraction(v[-1] * gap, u[-1] * top)


def t_max(c: ConfigPoint, tau: Tube, tau_plus: Tube):
    """Largest admissible expansion scale: a Fraction, or UNBOUNDED.

    The bound is the reciprocal of the largest clamped ratio over boundary
    relations; inactive constraints clamp to zero and never bind, so the
    result is always strictly positive.
    """
    x, y = _adjacent(c, tau, tau_plus)
    rows = c._rows
    return _t_max_core(rows[x], rows[y], *_boundary(c._index, x, y))


def expand(c: ConfigPoint, tau: Tube, tau_plus: Tube, t) -> ConfigPoint:
    """Separate tau from its parent by scale t, landing in stratum T - {tau}."""
    t = frac(t)
    x, y = _adjacent(c, tau, tau_plus)
    index = c._index
    rows = list(c._rows)
    v, u = rows[x], rows[y]
    if t < 0 or t >= _t_max_core(v, u, *_boundary(index, x, y)):
        raise RangeError(f"need 0 <= t < t_max, got {t}")
    if t == 0:
        return c
    # The new parent point is y + t*x on tau over its alpha, which is its
    # restriction to tau_plus, as y + t*x sums to zero.  With y = u/D,
    # x = v/E and t = p/q, y + t*x is cleared by D*E*q.
    num = [n * v[-1] * t.denominator for n in u[:-1]]
    for i, n in zip(_gather(index, x, y), v):
        num[i] += n * u[-1] * t.numerator
    rows[y] = res_cleared(index.covers[y], num)
    return ConfigPoint._trusted(index, _fill(index, c.nodes & ~(1 << x), rows, y))


def _tubing_defect(index: _HostIndex, nodes: int, x: int) -> str | None:
    """Why the stratum's tubes plus the proper tube x are no tubing, or None.

    These are the two conditions of ``is_tubing``, on ``tube_table``'s
    bitsets.  The stratum's tubes form a tubing, so a crossing or a cycle
    of the dependency digraph in the larger family involves x: x crosses a
    stratum tube outside ``compat[x]``, or ``dependency_order`` cannot
    place the larger family along ``arrow_in``.
    """
    family = nodes & index.proper
    crossing = family & ~index.table.compat[x]
    if crossing:
        return f"it crosses {index.tubes[(crossing & -crossing).bit_length() - 1]}"
    if dependency_order(index.table.arrow_in, family | 1 << x)[1]:
        return "it closes a cycle of the dependency digraph"
    return None


def collapse(c: ConfigPoint, tau: Tube, tau_plus: Tube) -> tuple[ConfigPoint, Fraction]:
    """Inverse of expand: merge tau back into its parent, recovering t.

    If tau is already a stratum tube the point is returned with t = 0.
    Otherwise the collapse-domain inequalities (the tube's average against
    every related outside coordinate) must hold strictly.
    """
    index = c._index
    x = index.position.get(tau)
    if x is None or x == index.root:
        raise NotAdjacentError(f"{tau} is not a proper non-singleton tube")
    nodes = c.nodes
    if nodes >> x & 1:
        _adjacent(c, tau, tau_plus)
        return c, Fraction(0)
    defect = _tubing_defect(index, nodes, x)
    if defect is not None:
        raise NotInCollError(f"adding {tau} is not a tubing: {defect}")
    nodes |= 1 << x
    y = _parent(index, nodes, x)
    if index.position.get(tau_plus) != y:
        raise NotAdjacentError(f"{tau_plus} would not be the parent of {tau}")

    # The collapsed parent point is z over alpha(z), z being y with its
    # average on tau; as z sums to zero, that is its restriction to
    # tau_plus.  With y = u/D, |tau|*D*z has the integer numerators |tau|*u
    # off tau and the sum of u over tau on it, which the domain inequalities
    # compare.
    rows = list(c._rows)
    u = rows[y]
    at = _gather(index, x, y)
    k = len(at)
    mean = sum(u[i] for i in at)
    num = [k * n for n in u[:-1]]
    for i in at:
        num[i] = mean
    up, down = _boundary(index, x, y)
    for _, _, j in up:
        if not mean < num[j]:
            raise NotInCollError(f"need avg < x[{tau_plus.members[j]}] on {tau_plus}")
    for _, _, j in down:
        if not num[j] < mean:
            raise NotInCollError(f"need x[{tau_plus.members[j]}] < avg on {tau_plus}")
    covers = index.covers[y]
    rows[y] = res_cleared(covers, num)
    rows = _fill(index, nodes, rows, y)

    # t = (y[i] / alpha(z) - w[i]) / x[i] for i in tau, w the collapsed
    # parent point and x the point on tau.  With w = m/W, x = v/E and
    # alpha(z) = S / (|tau|*D), S the alpha of the numerators of z,
    # t = E*d[i] / (S*W*v[i]) with d[i] = |tau|*u[i]*W - m[i]*S, which must
    # come out the same for every i with v[i] != 0.
    scale = sum(num[b] - num[a] for a, b in covers)
    m, v = rows[y], rows[x]
    W, E = m[-1], v[-1]
    ratios = [(k * u[i] * W - m[i] * scale, n) for i, n in zip(at, v) if n]
    if not ratios or any(d * ratios[0][1] != ratios[0][0] * n for d, n in ratios):
        raise NotInCollError("recovered expansion scale is inconsistent")
    d, n = ratios[0]
    t = Fraction(E * d, scale * W * n)
    if not 0 < t < _t_max_core(v, m, up, down):
        raise NotInCollError(f"recovered expansion scale {t} is outside (0, t_max)")
    return ConfigPoint._trusted(index, rows), t


def composite_expand(c: ConfigPoint, T: Tubing, T_sub: Tubing,
                     t: Mapping[Tube, Fraction],
                     order: Sequence[Tube] | None = None) -> ConfigPoint:
    """Expand away the tubes of T - T_sub, smallest first.

    The supplied order (if any) must be a linear extension of inclusion;
    parents are taken in the tree of the starting tubing T.
    """
    if c.tubing.tubes != T.tubes:
        raise ValueError("point does not lie in the stratum of T")
    if not T_sub.tubes <= T.tubes:
        raise ValueError("target tubing must be contained in the source")
    removed = _check_order(T.tubes - T_sub.tubes, order)
    tree = tubing_tree(Tubing(c.host, T.tubes))
    point = c
    for k, tau in enumerate(removed):
        try:
            point = expand(point, tau, tree.parent[tau], frac(t[tau]))
        except (RangeError, NotAdjacentError, KeyError) as exc:
            raise NotExpandableError(f"step {k} at {tau}: {exc}") from exc
    return point


def composite_collapse(c: ConfigPoint, T: Tubing, T_sub: Tubing,
                       order: Sequence[Tube] | None = None
                       ) -> tuple[ConfigPoint, dict[Tube, Fraction]]:
    """Collapse the tubes of T - T_sub back in, biggest first."""
    if not T_sub.tubes <= T.tubes:
        raise ValueError("target tubing must be contained in the source")
    if not (T_sub.tubes <= c.tubing.tubes <= T.tubes):
        raise ValueError("point must lie between the two strata")
    removed = _check_order(T.tubes - T_sub.tubes, order)
    tree = tubing_tree(Tubing(c.host, T.tubes))
    point = c
    ts: dict[Tube, Fraction] = {}
    for k, tau in zip(reversed(range(len(removed))), reversed(removed)):
        try:
            point, ts[tau] = collapse(point, tau, tree.parent[tau])
        except (NotInCollError, NotAdjacentError) as exc:
            raise NotCollapsibleError(f"step {k} at {tau}: {exc}") from exc
    return point, ts


def _check_order(tubes: frozenset[Tube], order: Sequence[Tube] | None) -> list[Tube]:
    if order is None:
        return sorted(tubes, key=Tube.key)
    order = list(order)
    if set(order) != set(tubes) or len(order) != len(tubes):
        raise ValueError("order must list exactly the removed tubes")
    for a, b in itertools.combinations(range(len(order)), 2):
        if order[b].issubset(order[a]) and order[a] != order[b]:
            raise ValueError("order must refine inclusion (small tubes first)")
    return order


# -- the distance-ratio counterexample ----------------------------------------


@dataclass(frozen=True)
class RatioCurve:
    target: Fraction | None  # None encodes an infinite target ratio
    samples: tuple[tuple[Fraction, dict[int, Fraction], Fraction], ...]
    # entries: (t, configuration, ratio d_{1,2,4})


@dataclass(frozen=True)
class RatioDemoReport:
    host: Poset
    curves: tuple[RatioCurve, RatioCurve]
    limit: ConfigPoint
    pair_deviation: tuple[tuple[Fraction, Fraction], ...]  # (t, max |delta|)
    limit_deviation: tuple[tuple[Fraction, Fraction], ...]
    ratio_gap: tuple[tuple[Fraction, Fraction], ...]


def _n_poset() -> Poset:
    from .poset import build_poset

    return build_poset([(1, 3), (2, 3), (2, 4)])


def _ratio_curve_config(target, t: Fraction) -> dict[int, Fraction]:
    """Four points collapsing at different speeds with a prescribed ratio.

    x1 = -t^2 and x4 = t^2 while x2 interpolates; the middle element x3
    stays at 1.  For finite targets r in [0,1] the ratio equals r(1-t); the
    infinite target sends x2 to -t so the ratio grows like 1/(2t).
    """
    t2 = t * t
    if target is None:
        x2 = -t
    else:
        x2 = -t2 + 2 * target * (1 - t) * t2
    x = {1: -t2, 2: x2, 3: Fraction(1), 4: t2}
    mean = sum(x.values(), Fraction(0)) / 4
    return {i: v - mean for i, v in x.items()}


def _ratio_value(x: Mapping[int, Fraction]) -> Fraction:
    return abs(x[1] - x[2]) / abs(x[1] - x[4])


def ratio_counterexample_demo(targets=(Fraction(0), Fraction(1)),
                              exponents=range(2, 7)) -> RatioDemoReport:
    """Two curves with the same compactified limit but different ratios.

    Demonstrates on the N-shaped poset that the distance ratio |x1-x2| /
    |x1-x4| cannot extend continuously to the boundary: both curves embed
    to the same limit point while their ratios approach the two targets.
    """
    P = _n_poset()
    parsed = tuple(None if str(t) in ("inf", "None") else frac(t) for t in targets)
    if len(parsed) != 2:
        raise ValueError(f"the demo takes exactly two targets, not {len(parsed)}")
    for t in parsed:
        if t is not None and not 0 <= t <= 1:
            raise ValueError("finite targets must lie in [0, 1]")

    tube24 = Tube.of((2, 4))
    # exact limit of both curves: elements 1, 2, 4 collide at the root while
    # the {2,4} component freezes at the forced two-element shape
    root = full_tube(P)
    limit_root = {1: Fraction(-1, 8), 2: Fraction(-1, 8), 3: Fraction(3, 8), 4: Fraction(-1, 8)}
    limit = synthesize(P, Tubing.of(P, [tube24]),
                       {root: limit_root, tube24: {2: Fraction(-1, 2), 4: Fraction(1, 2)}})

    curves = []
    for target in parsed:
        samples = []
        for k in exponents:
            t = Fraction(1, 10 ** k)
            x = _ratio_curve_config(target, t)
            samples.append((t, x, _ratio_value(x)))
        curves.append(RatioCurve(target=target, samples=tuple(samples)))

    pair_dev, limit_dev, gaps = [], [], []
    for (t, xa, ra), (_, xb, rb) in zip(curves[0].samples, curves[1].samples):
        ea, eb = embed(P, xa), embed(P, xb)
        pair_dev.append((t, _max_component_gap(ea, eb)))
        limit_dev.append((t, max(_max_component_gap(ea, limit), _max_component_gap(eb, limit))))
        gaps.append((t, abs(ra - rb)))
    return RatioDemoReport(
        host=P,
        curves=(curves[0], curves[1]),
        limit=limit,
        pair_deviation=tuple(pair_dev),
        limit_deviation=tuple(limit_dev),
        ratio_gap=tuple(gaps),
    )


def _max_component_gap(a: ConfigPoint, b: ConfigPoint) -> Fraction:
    worst = Fraction(0)
    for tube, vec in a.components.items():
        for i, v in vec.items():
            worst = max(worst, abs(v - b[tube][i]))
    return worst

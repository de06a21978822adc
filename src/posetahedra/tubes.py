"""Tubes and tubings of a finite poset.

A tube is a convex connected nonempty subset; a tubing is a family of tubes
that is pairwise nested-or-disjoint whose dependency digraph (edges between
disjoint tubes carrying an order relation) is acyclic.  The non-singleton
tubes of a host are indexed once as integer bitsets (``tube_table``).
``walk_tubings`` is the one tubing backtracker of finite and affine hosts:
it walks compatibility bitmasks and asks the host for the cycle test.  A
finite host's test keeps reach sets, and its complex is walked once
(``tubing_walk``); the complex is not flag, so clique-style shortcuts
would be unsound.  Its proper tubings are served from the walk's masks,
each built when read (``ProperTubings``).
"""

from __future__ import annotations

import itertools
from collections import abc
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from operator import or_
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    ElementBudgetError,
    MalformedTreeError,
    NotAPartitionError,
    NotATubeError,
    NotATubingError,
)
from .poset import (MAX_ELEMENTS, Poset, bit_positions, build_poset, dependency_order, is_connected,
                    is_convex)

# Hosts (or host and flag) kept by each per-host cache of tubes and tubings
CACHE_SIZE = 128


@dataclass(frozen=True, order=True)
class Tube:
    """Canonical form of a tube: the sorted tuple of its member ids."""

    members: tuple[int, ...]

    def __post_init__(self):
        # the generated hash, computed once: tubes key the hot dicts and sets
        object.__setattr__(self, "_hash", hash((self.members,)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(members: Iterable[int]) -> "Tube":
        return Tube(tuple(sorted(set(int(m) for m in members))))

    @cached_property
    def as_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.members), self.members)

    def issubset(self, other: "Tube") -> bool:
        return self.as_set <= other.as_set

    def isdisjoint(self, other: "Tube") -> bool:
        return self.as_set.isdisjoint(other.as_set)

    def __contains__(self, e: int) -> bool:
        return e in self.as_set

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return "{" + ",".join(str(m) for m in self.members) + "}"


def make_tube(P: Poset, members: Iterable[int]) -> Tube:
    """Validated tube constructor."""
    tube = Tube.of(members)
    if not tube.members:
        raise NotATubeError("a tube is nonempty")
    if not set(tube.members) <= set(P.elements):
        raise NotATubeError(f"{tube} has elements outside the poset")
    if not is_convex(P, tube.members):
        raise NotATubeError(f"{tube} is not convex")
    if not is_connected(P, tube.members):
        raise NotATubeError(f"{tube} is not connected")
    return tube


def full_tube(P: Poset) -> Tube:
    return Tube(tuple(P.elements))


def connected_sets(roots: Iterable[int], neighbours: Callable[[int], Iterable[int]],
                   label: Callable[[int], int] = lambda v: v) -> Iterator[tuple[int, ...]]:
    """Every connected set whose least vertex is a root and whose members have
    distinct labels, once each, as a sorted tuple.  ESU (Wernicke 2006): a set
    grows by a vertex w of its extension, and the neighbours of w above the
    root and neither in nor next to the set join the extension."""

    def extend(members: dict[int, int], near: set[int], ext: list[int], root: int):
        yield tuple(sorted(members.values()))  # members: label -> vertex
        while ext:
            w = ext.pop()
            # a set is grown through its own subsets, and every superset of a
            # set with a repeated label repeats it too
            if label(w) not in members:
                fresh = [u for u in neighbours(w) if u > root and u not in near]
                yield from extend({**members, label(w): w}, near.union(fresh), ext + fresh, root)

    for root in roots:
        ext = [u for u in neighbours(root) if u > root]
        yield from extend({label(root): root}, {root, *ext}, ext, root)


@lru_cache(maxsize=CACHE_SIZE)
def enumerate_tubes(P: Poset, proper_only: bool = False) -> tuple[Tube, ...]:
    """All tubes, sorted by (size, members); proper keeps 1 < |t| < |P|,
    filtered from the cached full list: the convex ``connected_sets`` of
    the Hasse diagram.

    Raises ElementBudgetError when |P| is above MAX_ELEMENTS.
    """
    n = len(P.elements)
    if proper_only:
        return tuple(t for t in enumerate_tubes(P) if 1 < len(t) < n)
    if n > MAX_ELEMENTS:
        raise ElementBudgetError(
            f"{n} elements: tube enumeration takes at most {MAX_ELEMENTS}")
    found = connected_sets(P.elements, P.hasse_adjacency.__getitem__)
    return tuple(sorted((Tube(members) for members in found if is_convex(P, members)),
                        key=Tube.key))


def nested_or_disjoint(a: Tube, b: Tube) -> bool:
    return a.issubset(b) or b.issubset(a) or a.isdisjoint(b)


def has_arrow(P: Poset, a: Tube, b: Tube) -> bool:
    """True iff some i in a is strictly below some j in b."""
    return any(P.lt(i, j) for i in a for j in b)


def d_graph(P: Poset, tubes: Iterable[Tube]) -> dict[Tube, tuple[Tube, ...]]:
    """Dependency digraph: edges between disjoint tubes with a relation."""
    tubes = sorted(set(tubes), key=Tube.key)
    out: dict[Tube, tuple[Tube, ...]] = {}
    for a in tubes:
        targets = [b for b in tubes if a != b and a.isdisjoint(b) and has_arrow(P, a, b)]
        out[a] = tuple(targets)
    return out


class TubingCheck(NamedTuple):
    ok: bool
    crossing: tuple[Tube, Tube] | None = None
    cycle: tuple[Tube, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_tubing(P: Poset, tubes: Iterable[Tube]) -> TubingCheck:
    """Check the tubing conditions, returning a certificate on failure.

    A cycle is found by walking back from a tube ``dependency_order`` left
    waiting, through predecessors also left waiting, until one repeats; it
    is returned along its arcs, from its first tube in ``Tube.key`` order.
    """
    tubes = sorted(set(tubes), key=Tube.key)
    for a, b in itertools.combinations(tubes, 2):
        if not nested_or_disjoint(a, b):
            return TubingCheck(False, crossing=(a, b))
    arcs = d_graph(P, tubes).values()  # keyed in the order of ``tubes``
    into = [sum(1 << a for a, out in enumerate(arcs) if t in out) for t in tubes]
    _, blocked = dependency_order(into, (1 << len(tubes)) - 1)
    if not blocked:
        return TubingCheck(True)
    back = [(blocked & -blocked).bit_length() - 1]  # each a predecessor of the one before
    while back.count(back[-1]) < 2:
        pred = into[back[-1]] & blocked
        back.append((pred & -pred).bit_length() - 1)
    cycle = back[back.index(back[-1]) + 1:][::-1]  # the repeated tube first, along the arcs
    first = cycle.index(min(cycle))
    return TubingCheck(False, cycle=tuple(tubes[i] for i in cycle[first:] + cycle[:first]))


@dataclass(frozen=True)
class Tubing:
    """A validated set of tubes of a host poset."""

    host: Poset
    tubes: frozenset[Tube]

    @staticmethod
    def of(P: Poset, tubes: Iterable) -> "Tubing":
        tset = frozenset(make_tube(P, t.members if isinstance(t, Tube) else t) for t in tubes)
        check = is_tubing(P, tset)
        if not check:
            detail = f"crossing {check.crossing}" if check.crossing else f"cycle {check.cycle}"
            raise NotATubingError(detail)
        return Tubing(P, tset)

    @cached_property
    def sorted_tubes(self) -> tuple[Tube, ...]:
        return tuple(sorted(self.tubes, key=Tube.key))

    def key(self):
        return (len(self.tubes), tuple(t.members for t in self.sorted_tubes))

    def __len__(self) -> int:
        return len(self.tubes)

    def __iter__(self):
        return iter(self.sorted_tubes)

    def __contains__(self, tube: Tube) -> bool:
        return tube in self.tubes

    def __repr__(self) -> str:
        return "Tubing[" + " ".join(map(repr, self.sorted_tubes)) + "]"


class TubeTable(NamedTuple):
    """The non-singleton tubes of a host by position, with bitset relations.

    Position k is ``tubes[k]``, in ``enumerate_tubes`` order: smaller tubes
    first, so the proper tubes are the positions below the root, which is
    last, and the smallest tube of a chain in a mask is its lowest set bit.
    Bit e of an element mask stands for ``P.elements[e]``.  Over the proper
    positions, ``compat[i]`` holds the tubes nested with or disjoint from
    tube i (tube i included), ``arrow[i]`` the tubes b disjoint from tube i
    with some member of i strictly below some member of b, and
    ``arrow_in[i]`` the tubes with an arrow into tube i.
    """

    tubes: tuple[Tube, ...]
    mask: tuple[int, ...]  # the element mask of each tube
    up: tuple[int, ...]  # the strict up-set of each tube's members
    sup: tuple[int, ...]  # the positions of the tubes strictly containing each
    above: tuple[int, ...]  # the strict up-set of each element
    compat: tuple[int, ...]
    arrow: tuple[int, ...]
    arrow_in: tuple[int, ...]


@lru_cache(maxsize=CACHE_SIZE)
def tube_table(P: Poset) -> TubeTable:
    """Index the non-singleton tubes of P once, on element bitmasks and up-sets."""
    bit = {e: 1 << k for k, e in enumerate(P.elements)}
    above = {i: sum(bit[j] for j in P.elements if P.lt(i, j)) for i in P.elements}
    tubes = enumerate_tubes(P)[len(P.elements):]  # the singletons come first
    masks = tuple(sum(map(bit.__getitem__, t.members)) for t in tubes)
    ups = tuple(reduce(or_, map(above.__getitem__, t.members)) for t in tubes)
    sup = tuple(sum(1 << o for o, outer in enumerate(masks) if outer != m and outer & m == m)
                for m in masks)
    proper = masks[:-1]
    compat = tuple(sum(1 << k for k, b in enumerate(proper) if a & b in (0, a, b)) for a in proper)
    arrow = tuple(sum(1 << k for k, b in enumerate(proper) if not a & b and up & b)
                  for a, up in zip(proper, ups))
    arrow_in = tuple(sum(1 << k for k in range(len(proper)) if arrow[k] >> i & 1)
                     for i in range(len(proper)))
    return TubeTable(tubes, masks, ups, sup, tuple(above.values()), compat, arrow, arrow_in)


def walk_tubings(tubes: Sequence, compat: Sequence[int], grow) -> tuple[tuple, tuple[int, ...]]:
    """The one tubing backtracker of finite and affine hosts: depth-first,
    each tubing before its extensions.

    ``compat[k]`` holds the positions nested with or disjoint from
    ``tubes[k]``.  For each compatible candidate i, ``grow(chosen, state,
    i)`` returns the cycle-test state of ``chosen + [i]``, or None when i
    closes a cycle; the empty family's state is ``[]``.  Returns (tubes in
    descending members order, tubings in walk order), each tubing a mask
    whose bit b stands for the b-th of those tubes.  Within one size, the
    masks in descending order list the tubings in ascending members order.
    """
    order = sorted(range(len(tubes)), key=lambda k: tubes[k].members, reverse=True)
    bit = [0] * len(order)
    for b, k in enumerate(order):
        bit[k] = 1 << b
    found: list[int] = []
    chosen: list[int] = []

    def extend(start: int, allowed: int, state: list, mask: int) -> None:
        found.append(mask)
        candidates = allowed >> start << start
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            grown = grow(chosen, state, i)
            if grown is not None:
                chosen.append(i)
                extend(i + 1, allowed & compat[i], grown, mask | bit[i])
                chosen.pop()

    extend(0, (1 << len(compat)) - 1, [], 0)
    return tuple(tubes[k] for k in order), tuple(found)


@lru_cache(maxsize=CACHE_SIZE)
def tubing_walk(P: Poset) -> tuple[tuple[Tube, ...], tuple[int, ...], tuple[Tube, ...] | None]:
    """One walk of the proper tubings of P for every face structure built
    from them: ``walk_tubings`` on ``tube_table``, plus a flag witness.

    The state is a list of reach sets: ``reach[d]`` holds the chosen
    positions reachable from ``chosen[d]``, itself included.  The prefix is
    acyclic, so candidate i closes a cycle iff a position it reaches has an
    arrow into it.  Only such a candidate can be a flag witness: ``witness``
    is the first that passes ``is_tubing`` on every subfamily, so it is
    minimal (None when the complex is flag).
    """
    table = tube_table(P)
    tubes = table.tubes[:-1]
    arrow, arrow_in = table.arrow, table.arrow_in
    witness: list[tuple[Tube, ...]] = []

    def grow(chosen: list[int], reach: list[int], i: int) -> list[int] | None:
        out, into = arrow[i], arrow_in[i]
        reached = 1 << i
        for j, r in zip(chosen, reach):
            if out >> j & 1:
                reached |= r
        if not reached & into:
            return [r | reached if r & into else r for r in reach] + [reached]
        two_cycles = out & into
        if witness or len(chosen) < 2 or any(two_cycles >> j & 1 for j in chosen):
            return None  # a witness is known, or a pair of the candidate is no tubing
        family = [tubes[k] for k in chosen] + [tubes[i]]
        if all(is_tubing(P, family[:d] + family[d + 1:]) for d in range(len(family))):
            witness.append(tuple(family))
        return None

    return (*walk_tubings(tubes, table.compat, grow), witness[0] if witness else None)


def _tubing_key(tubes: Sequence, mask: int) -> frozenset:
    """The tubes of a tubing mask: bit b stands for ``tubes[b]``."""
    return frozenset(map(tubes.__getitem__, bit_positions(mask)))


class _TupleView(abc.Sequence):
    """A read-only sequence that equals, and hashes as, the tuple of its
    items, each read by ``_item(position)``; a slice is a tuple."""

    __slots__ = ()

    def __getitem__(self, i: int | slice):
        picked = range(len(self))[i]  # negative indices, slices, and IndexError past the end
        if isinstance(i, slice):
            return tuple(map(self._item, picked))
        return self._item(picked)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _TupleView)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class ProperTubings(_TupleView):
    """Proper tubings of a host, read-only, in ``Tubing.key`` order, held as
    masks of its one walk (``tubing_walk``).  Counting decodes nothing; the
    first read sorts the masks, and each ``Tubing`` is built
    (``_tubing_key``) the first time its index is read, and kept.  A slice
    (a tuple) builds only its own.
    """

    __slots__ = ("host", "masks", "_tubes", "_built")

    def __init__(self, host: Poset, masks: Sequence[int]):
        self.host, self.masks = host, masks
        self._tubes = self._built = None

    def __len__(self) -> int:
        return len(self.masks)

    def _item(self, p: int) -> Tubing:
        if self._built is None:
            self._sort()
        tubing = self._built[p]
        if tubing is None:
            tubing = self._built[p] = Tubing(self.host, _tubing_key(self._tubes, self.masks[p]))
        return tubing

    def _sort(self) -> None:
        # Tubing.key on masks: it lists a tubing's tubes in Tube.key order (by
        # size, then members) and compares those lists by members.  A higher
        # bit is a tube earlier in members order, so a tubing's bits in
        # Tube.key order, negated, compare as the members do
        tubes = self._tubes = tubing_walk(self.host)[0]
        order = sorted(range(len(tubes)), key=lambda b: (len(tubes[b]), -b))
        rank = [0] * len(order)
        for r, b in enumerate(order):
            rank[b] = r
        neg_bit = [-b for b in order]

        def key(mask: int) -> tuple[int, tuple[int, ...]]:
            ranks = sorted(map(rank.__getitem__, bit_positions(mask)))
            return len(ranks), tuple(map(neg_bit.__getitem__, ranks))

        self.masks = tuple(sorted(self.masks, key=key))
        self._built = [None] * len(self.masks)

    def __reduce__(self):
        return ProperTubings, (self.host, self.masks)  # the kept tubings are rebuilt when read


@lru_cache(maxsize=CACHE_SIZE)
def enumerate_proper_tubings(P: Poset, max_only: bool = False) -> ProperTubings:
    """All proper tubings, in ``Tubing.key`` order, served from the masks of
    the host's one walk (``tubing_walk``) and built when read
    (``ProperTubings``).  With max_only, only tubings of size |P|-2 (the
    polytope's vertices) are served.
    """
    found = tubing_walk(P)[1]
    if max_only:
        found = tuple(mask for mask in found if mask.bit_count() == len(P.elements) - 2)
    return ProperTubings(P, found)


def block_partitions(ground: int, blocks: Sequence[int]) -> list[tuple[int, ...]]:
    """Every partition of the bitset ``ground`` into masks of ``blocks``, as
    tuples of their indices.  The next block always covers the lowest bit
    not yet covered, tried in list order, so each partition is found once,
    its blocks in the order of their lowest bits."""
    starting: dict[int, list[int]] = {}  # lowest bit -> the blocks inside the ground
    for k, mask in enumerate(blocks):
        if mask & ground == mask:
            starting.setdefault(mask & -mask, []).append(k)
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def extend(remaining: int) -> None:
        if not remaining:
            found.append(tuple(chosen))
            return
        for k in starting.get(remaining & -remaining, ()):
            if blocks[k] & remaining == blocks[k]:
                chosen.append(k)
                extend(remaining ^ blocks[k])
                chosen.pop()

    extend(ground)
    return found

@dataclass(frozen=True)
class TubingTree:
    """The rooted tree on a tubing plus the full poset and all singletons."""

    host: Poset
    root: Tube
    parent: Mapping[Tube, Tube] = field(hash=False)  # read-only views
    children: Mapping[Tube, tuple[Tube, ...]] = field(hash=False)

    def nodes(self) -> tuple[Tube, ...]:
        return tuple(sorted(self.children, key=Tube.key))

    def non_singleton_nodes(self) -> tuple[Tube, ...]:
        return tuple(t for t in self.nodes() if len(t) > 1)

    def adjacent_pairs(self) -> tuple[tuple[Tube, Tube], ...]:
        """(child, parent) pairs where the child is a non-singleton tube."""
        return tuple(
            (t, self.parent[t]) for t in self.nodes() if t != self.root and len(t) > 1
        )

    def minimal_containing(self, members: Iterable[int]) -> Tube:
        """Smallest node containing the given set (the root in the worst case)."""
        target = frozenset(members)
        best = self.root
        changed = True
        while changed:
            changed = False
            for child in self.children[best]:
                if target <= child.as_set:
                    best = child
                    changed = True
                    break
        return best


def tubing_tree(T: Tubing) -> TubingTree:
    """The nesting tree, built in one sweep over the nodes, largest first.

    ``owner[e]`` is the smallest node seen so far that contains e.  A
    tubing is laminar, so every earlier node meeting a later node t
    contains it, and those nodes form a chain: the parent of t is the
    owner of any one of its members.
    """
    P = T.host
    n = len(P.elements)
    root = full_tube(P)
    # a tube of size n is the root and one of size 1 a singleton node
    middle = sorted((t for t in T.tubes if 1 < len(t) < n), key=lambda t: (-len(t), t.members))
    ordered = [root, *middle, *(Tube((e,)) for e in P.elements)]
    owner = dict.fromkeys(root.members, 0)
    below: list[list[Tube]] = [[] for _ in ordered]
    parent: dict[Tube, Tube] = {}
    for k, t in enumerate(ordered[1:], 1):
        up = owner[t.members[0]]
        parent[t] = ordered[up]
        below[up].append(t)
        for e in t.members:
            owner[e] = k
    children = {t: tuple(sorted(c, key=Tube.key)) for t, c in zip(ordered, below)}
    return TubingTree(host=P, root=root, parent=MappingProxyType(parent),
                      children=MappingProxyType(children))


# -- bijections with classical face labels ------------------------------------


def tubing_from_plane_tree(tree) -> Tubing:
    """Tubing of a chain from a plane rooted tree given as nested sequences.

    Leaves are integers and must read 1..n left to right; internal nodes are
    sequences of at least two subtrees.  Every internal node other than the
    root contributes the tube of its descendant leaves.
    """
    leaves: list[int] = []
    tube_sets: list[tuple[int, ...]] = []

    def walk(node, is_root: bool) -> tuple[int, ...]:
        if isinstance(node, int):
            leaves.append(node)
            return (node,)
        node = list(node)
        if len(node) < 2:
            raise MalformedTreeError("internal nodes need at least two children")
        below: tuple[int, ...] = ()
        for child in node:
            below += walk(child, False)
        if not is_root:
            tube_sets.append(below)
        return below

    walk(tree, True)
    n = len(leaves)
    if leaves != list(range(1, n + 1)):
        raise MalformedTreeError("leaves must be labeled 1..n left to right")
    host = build_poset([(i, i + 1) for i in range(1, n)])
    return Tubing.of(host, [Tube.of(s) for s in tube_sets])


def tubing_from_ordered_set_partition(blocks: Sequence[Iterable[int]]) -> Tubing:
    """Tubing of a claw from an ordered set partition of its leaves.

    Block prefixes joined with the hub give the nested tubes; the last
    prefix (the whole poset) is dropped to keep the tubing proper.
    """
    blocks = [tuple(sorted(set(b))) for b in blocks]
    if not blocks or any(not b for b in blocks):
        raise NotAPartitionError("blocks must be nonempty")
    ground = sorted(itertools.chain.from_iterable(blocks))
    n = len(ground)
    if ground != list(range(1, n + 1)) or len(set(ground)) != n:
        raise NotAPartitionError("blocks must partition 1..n")
    host = build_poset([(0, i) for i in range(1, n + 1)])
    tubes = []
    prefix: set[int] = {0}
    for b in blocks[:-1]:
        prefix |= set(b)
        tubes.append(Tube.of(prefix))
    return Tubing.of(host, tubes)

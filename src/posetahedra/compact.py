"""Compactified configuration spaces of order-preserving maps.

A point of the compactification is a tuple of order-polytope points, one
per non-singleton tube (the whole poset included), linked by the coherence
condition: projecting a bigger tube's point to a nested tube must give a
nonnegative multiple of the nested tube's point.  All operations here are
exact; convergence statements are exercised through explicit rational
curves, never floating limits.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    IncoherentError,
    NotAdjacentError,
    NotCollapsibleError,
    NotExpandableError,
    NotInCollError,
    NotStrictError,
    RangeError,
    RegimeError,
    WrongFaceError,
)
from .linalg import homogeneous
from .poset import Poset, Vector, from_row, res, res_cleared
from .rational import frac
from .tubes import (
    CACHE_SIZE,
    Tube,
    Tubing,
    TubingTree,
    enumerate_tubes,
    full_tube,
    has_arrow,
    is_tubing,
    tubing_tree,
)

SCALE_GUARD = Fraction(1, 10)

Row = tuple[int, ...]


def nonsingleton_tubes(P: Poset) -> tuple[Tube, ...]:
    return tuple(t for t in enumerate_tubes(P) if len(t) > 1)


@dataclass(frozen=True)
class ConfigPoint:
    """One order-polytope point per non-singleton tube of the host poset.

    The components are copied on construction, in element order, and
    frozen: the outer mapping and every component are read-only views, so
    the cached ``rows``, ``tubing`` and ``tree`` cannot go stale.  A point
    built by the kernel holds only its rows; its components are read-only
    ``Fraction`` views of them, each built the first time it is read.
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
    def _trusted(cls, host: Poset, rows: dict[Tube, Row],
                 tree: TubingTree | None = None) -> "ConfigPoint":
        """A point on the canonical rows of its components; they are not
        copied or checked.  ``tree`` is the tubing tree the rows were filled
        from, kept as a hint for ``tree``."""
        point = object.__new__(cls)
        rows = MappingProxyType(rows)
        point.__dict__.update(host=host, components=_RowComponents(rows), rows=rows,
                              _filled=True, _tree_hint=tree)
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
    def rows(self) -> Mapping[Tube, Row]:
        """Each component cleared once: its homogeneous row, numerators in
        the order of the tube's members, then the common denominator."""
        return MappingProxyType({tube: _row(tube, vec) for tube, vec in self.components.items()})

    @cached_property
    def tree(self) -> TubingTree:
        """The tree of the stratum tubing, which is recomputed from the
        rows; the tree the point was filled from serves when it agrees."""
        tubes = self.tubing.tubes
        hint = self.__dict__.get("_tree_hint")
        # the hint's proper tubes are its parent keys less the singletons,
        # so they are the stratum's when these hold
        if hint is not None and len(hint.parent) == len(self.host.elements) + len(tubes) \
                and all(t in hint.parent for t in tubes):
            return hint
        return tubing_tree(self.tubing)

    @cached_property
    def tubing(self) -> Tubing:
        return _tubing_of_checked(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConfigPoint) or self.host != other.host:
            return False
        if self._filled and other._filled:
            # kernel rows are canonical, so equal rows mean equal values
            return self.rows == other.rows
        # a point from the public constructor is compared by the components
        # it was given, which need not clear to rows
        return self.components == other.components


class _RowComponents(Mapping):
    """The read-only components of a kernel-built point.

    Each component is a read-only ``Fraction`` view of its row, built the
    first time it is read and then kept in ``_views``.
    """

    __slots__ = ("_rows", "_views")

    def __init__(self, rows: Mapping[Tube, Row]):
        self._rows = rows
        self._views: dict[Tube, Mapping[int, Fraction]] = {}

    def __getitem__(self, tube: Tube) -> Mapping[int, Fraction]:
        view = self._views.get(tube)
        if view is None:
            view = self._views[tube] = MappingProxyType(from_row(tube.members, self._rows[tube]))
        return view

    def __contains__(self, tube) -> bool:
        return tube in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _frozen(vec: Mapping[int, Fraction]) -> Mapping[int, Fraction]:
    return MappingProxyType(dict(sorted(vec.items())))


def _row(tube: Tube, vec: Mapping[int, Fraction]) -> Row:
    return homogeneous([vec[i] for i in tube.members])


def _check_polytope_point(P: Poset, tube: Tube, vec: Mapping[int, Fraction]) -> Row:
    """Check that the component is a point of Ord(tube) and return its row.

    The checks run on the numerators n over the row's denominator D: the
    point sums to zero when the n do, and alpha is 1 when alpha(n) = D.
    """
    if set(vec) != tube.as_set:
        raise ValueError(f"component {tube} has wrong index set")
    row = _row(tube, vec)
    num = dict(zip(tube.members, row))  # zip drops D
    covers = P.covers_within(tube.members)
    if sum(num.values()) != 0:
        raise ValueError(f"component {tube} does not sum to zero")
    if sum(num[j] - num[i] for i, j in covers) != row[-1]:
        raise ValueError(f"component {tube} is not normalized")
    for i, j in covers:
        if num[i] > num[j]:
            raise ValueError(f"component {tube} is not order-preserving")
    return row


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
    root = full_tube(P)
    num = dict(zip(root.members, homogeneous([x[i] for i in root.members])))
    row = res_cleared(_host_index(P).covers[root], root.members, num)
    return _fill_from_tree(P, tubing_tree(Tubing(P, frozenset())), {root: row})


@lru_cache(maxsize=CACHE_SIZE)
def _nested_pairs(P: Poset) -> tuple[tuple[Tube, Tube], ...]:
    """Covering pairs (inner, outer) of inclusion among non-singleton tubes.

    Coherence is transitive along chains: projection is linear, so if mid's
    projection of outer is a*mid and inner's projection of mid is b*inner,
    inner's projection of outer is ab*inner.  Covering pairs therefore
    decide coherence, and every non-root tube is the inner tube of one.
    """
    tubes = nonsingleton_tubes(P)
    pairs = []
    for inner in tubes:
        above = [t for t in tubes if inner.as_set < t.as_set]
        pairs.extend((inner, outer) for outer in above
                     if not any(mid.as_set < outer.as_set for mid in above))
    return tuple(pairs)


class _HostIndex(NamedTuple):
    """Per-host tables of the non-singleton tubes."""

    tubes: tuple[Tube, ...]
    # covering pairs (inner, outer), their indices in tubes, and the
    # positions of inner's members among outer's
    pairs: tuple[tuple[Tube, Tube, int, int, tuple[int, ...]], ...]
    # every non-singleton tube strictly inside each non-singleton tube
    inside: Mapping[Tube, tuple[Tube, ...]]
    # the host's cover pairs inside each non-singleton tube
    covers: Mapping[Tube, tuple[tuple[int, int], ...]]


@lru_cache(maxsize=CACHE_SIZE)
def _host_index(P: Poset) -> _HostIndex:
    tubes = nonsingleton_tubes(P)
    index = {tube: k for k, tube in enumerate(tubes)}
    pairs = tuple((inner, outer, index[inner], index[outer],
                   tuple(outer.members.index(i) for i in inner.members))
                  for inner, outer in _nested_pairs(P))
    inside = {top: tuple(t for t in tubes if t.as_set < top.as_set) for top in tubes}
    covers = {t: tuple(P.covers_within(t.members)) for t in tubes}
    return _HostIndex(tubes, pairs, MappingProxyType(inside), MappingProxyType(covers))


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
    index = _host_index(c.host)
    rows = [c.rows[tube] for tube in index.tubes]
    for inner, outer, i, o, at in index.pairs:
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
    return _level_blocks(P, members, {i: frac(x[i]) for i in members})


def _level_blocks(P: Poset, members: tuple[int, ...], x: Mapping[int, object]) -> frozenset[Tube]:
    """b_partition on exact values that compare directly (Fractions or a row's integers)."""
    unseen = set(members)
    blocks: list[Tube] = []
    while unseen:
        start = min(unseen)
        level = x[start]
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in P.hasse_adjacency[v]:
                if w in unseen and w not in comp and x[w] == level:
                    comp.add(w)
                    stack.append(w)
        unseen -= comp
        blocks.append(Tube(tuple(sorted(comp))))
    return frozenset(blocks)


def tubing_of(c: ConfigPoint) -> Tubing:
    """The stratum tubing: recursive level-set blocks starting at the root.

    The result is cached on the point, so repeated queries are free.  An
    incoherent point raises IncoherentError.  A point built by the public
    constructor is validated, raising ValueError: that it has a component
    on each non-singleton tube before the coherence check, and that each
    component is a point of its order polytope after it.
    """
    return c.tubing


def _tubing_of_checked(c: ConfigPoint) -> Tubing:
    if not c._filled:
        c._check_cover()  # is_coherent reads a row per tube
    ok, witness = is_coherent(c)
    if not ok:
        raise IncoherentError(f"incoherent at nested pair {witness}")
    if not c._filled:
        for tube, vec in c.components.items():
            _check_polytope_point(c.host, tube, vec)
    P = c.host
    rows = c.rows
    proper: set[Tube] = set()
    stack = [full_tube(P)]
    while stack:
        tube = stack.pop()
        for block in _level_blocks(P, tube.members, dict(zip(tube.members, rows[tube]))):
            if len(block) > 1:
                if 1 < len(block) < len(P.elements):
                    proper.add(block)
                stack.append(block)
    return Tubing(P, frozenset(proper))


# -- stratum synthesis --------------------------------------------------------


def _cleared(components: Mapping[Tube, Mapping[int, Fraction]]) -> dict[Tube, Row]:
    """The rows of the components."""
    return {tube: _row(tube, vec) for tube, vec in components.items()}


def _fill_from_tree(P: Poset, tree: TubingTree, rows: dict[Tube, Row],
                    top: Tube | None = None) -> ConfigPoint:
    """Complete the rows of tree components to a point by normalized restriction.

    ``rows`` holds the row of every tree node's component and is filled in
    place.  Only the tubes strictly inside ``top`` (the root by default)
    are visited.  The minimal tree node containing such a tube X is found by
    walking down from ``top``; X gets the row of res(X, y), y that node's
    component, computed on the node's row, when the node is ``top`` or when
    X has no row yet.  Otherwise X keeps the row it has, and the walk stops
    at the first node below ``top``.

    ``expand`` and ``collapse`` pass every row of their input, with the new
    one on the parent tube ``top``, and trust the kept ones.  A tube whose
    minimal node is another tree node keeps its row: that node's component
    is unchanged, so the restriction would come out the same.  In
    ``collapse`` this includes the tubes whose minimal node is the tube tau
    put back, whose row is carried too: for X inside tau,
    res(X, res(tau, y)) = res(X, y), so they already hold their restriction
    of tau's component.
    """
    def owner_of(node: Tube) -> dict[int, Tube]:
        """Each element of the node mapped to the child holding it."""
        return {e: child for child in tree.children[node] for e in child.members}

    index = _host_index(P)
    top = tree.root if top is None else top
    owners = {top: owner_of(top)}
    nums: dict[Tube, dict[int, int]] = {}
    for tube in index.inside[top]:
        first, members = tube.members[0], tube.as_set
        node, owner = top, owners[top]
        while members <= (below := owner[first]).as_set:
            node = below
            if tube in rows:
                break
            owner = owners.get(node)
            if owner is None:
                owner = owners[node] = owner_of(node)
        if node is not top and tube in rows:  # a tree node, or carried
            continue
        num = nums.get(node)
        if num is None:
            # zip drops the common denominator that ends the row
            num = nums[node] = dict(zip(node.members, rows[node]))
        rows[tube] = res_cleared(index.covers[tube], tube.members, num)
    return ConfigPoint._trusted(P, rows, tree)


def synthesize(P: Poset, T: Tubing, interior: Mapping[Tube, Mapping[int, Fraction]]) -> ConfigPoint:
    """Assemble the stratum point with the given per-tree-tube interior data.

    For each tube of the tubing (and the full poset) the supplied point
    must lie in the open face whose blocks are exactly that tube's children
    in the nesting tree; everything else is reconstructed by restriction.
    """
    return _synthesize(P, T, tubing_tree(T), interior)


def _synthesize(P: Poset, T: Tubing, tree: TubingTree,
                interior: Mapping[Tube, Mapping[int, Fraction]]) -> ConfigPoint:
    """synthesize on the tubing tree of T, built by the caller."""
    rows: dict[Tube, Row] = {}
    for tube in sorted(set(T.tubes) | {full_tube(P)}, key=Tube.key):
        if tube not in interior:
            raise WrongFaceError(f"missing interior point for {tube}")
        row = rows[tube] = _check_polytope_point(
            P, tube, {i: frac(v) for i, v in interior[tube].items()})
        expected = frozenset(tree.children[tube])
        if _level_blocks(P, tube.members, dict(zip(tube.members, row))) != expected:
            raise WrongFaceError(
                f"point for {tube} is constant on the wrong blocks"
            )
    return _fill_from_tree(P, tree, rows)


def face_interior_point(P: Poset, tube: Tube, blocks: Iterable[Tube]) -> Vector:
    """Canonical point of the open face of Ord(tube) with the given blocks.

    Blocks get distinct integer heights along a linear extension of the
    quotient, the smallest ready block first, so the level-set components
    are exactly the blocks; the point is the restriction of the heights.
    """
    order = sorted(blocks, key=Tube.key)
    before = {b: {a for a in order if a != b and has_arrow(P, a, b)} for b in order}
    placed: set[Tube] = set()
    height: dict[int, int] = {}
    for level in range(len(order)):
        b = next(b for b in order if b not in placed and before[b] <= placed)
        placed.add(b)
        height.update(dict.fromkeys(b.members, level))
    return res(P, tube.members, height)


def stratum_point(P: Poset, T: Tubing) -> ConfigPoint:
    """Canonical exact point of the stratum labeled by the tubing."""
    return Stratum.canonical(P, T).point()


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
        tree = tubing_tree(T)
        interior = {
            tube: face_interior_point(P, tube, tree.children[tube])
            for tube in sorted(set(T.tubes) | {full_tube(P)}, key=Tube.key)
        }
        stratum = Stratum(T, interior)
        stratum.__dict__["tree"] = tree  # the cached tree of T, built once
        return stratum

    @cached_property
    def tree(self) -> TubingTree:
        return tubing_tree(self.tubing)

    @property
    def dim(self) -> int:
        tree = self.tree
        return sum(len(tree.children[t]) - 2 for t in tree.non_singleton_nodes())

    def point(self) -> ConfigPoint:
        return _synthesize(self.tubing.host, self.tubing, self.tree, self.interior)


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


def _boundary_pairs(P: Poset, tau: Tube, tau_plus: Tube):
    """Relations crossing the boundary of tau inside tau_plus, both ways."""
    outside = tau_plus.as_set - tau.as_set
    up = [(i, j) for i in tau for j in outside if P.lt(i, j)]
    down = [(j, i) for j in outside for i in tau if P.lt(j, i)]
    return up, down


def _require_adjacent(c: ConfigPoint, tau: Tube, tau_plus: Tube) -> None:
    tree = c.tree
    if tau not in tree.children or len(tau) < 2:
        raise NotAdjacentError(f"{tau} is not a non-singleton stratum tube")
    if tree.parent.get(tau) != tau_plus:
        raise NotAdjacentError(f"{tau_plus} is not the parent of {tau}")


def _t_max_core(c: ConfigPoint, tau: Tube, tau_plus: Tube, up, down):
    """1 / max(0, x[i] / gap) over the boundary relations, on the rows.

    With x = v/E on tau and y = u/D on tau_plus, each ratio x[i] / gap is
    (D/E) * v[i] / g, g the gap of the numerators u, so the largest v[i] / g
    is found by cross products and only the result is a Fraction.
    """
    v = dict(zip(tau.members, c.rows[tau]))
    u = dict(zip(tau_plus.members, c.rows[tau_plus]))
    ratios = [(v[i], u[j] - u[i]) for i, j in up] + [(-v[i], u[i] - u[j]) for j, i in down]
    top, gap = 0, 1  # the largest ratio so far, top / gap with gap > 0
    for n, g in ratios:
        if n * gap > top * g:
            top, gap = n, g
    if top == 0:
        return float("inf")
    return Fraction(c.rows[tau][-1] * gap, c.rows[tau_plus][-1] * top)


def t_max(c: ConfigPoint, tau: Tube, tau_plus: Tube):
    """Largest admissible expansion scale (a Fraction, or inf if unbounded).

    The bound is the reciprocal of the largest clamped ratio over boundary
    relations; inactive constraints clamp to zero and never bind, so the
    result is always strictly positive.
    """
    _require_adjacent(c, tau, tau_plus)
    up, down = _boundary_pairs(c.host, tau, tau_plus)
    return _t_max_core(c, tau, tau_plus, up, down)


def expand(c: ConfigPoint, tau: Tube, tau_plus: Tube, t) -> ConfigPoint:
    """Separate tau from its parent by scale t, landing in stratum T - {tau}."""
    t = frac(t)
    _require_adjacent(c, tau, tau_plus)
    P = c.host
    if t < 0 or t >= _t_max_core(c, tau, tau_plus, *_boundary_pairs(P, tau, tau_plus)):
        raise RangeError(f"need 0 <= t < t_max, got {t}")
    if t == 0:
        return c
    # The new parent point is y + t*x on tau over its alpha, which is its
    # restriction to tau_plus, as y + t*x sums to zero.  With y = u/D,
    # x = v/E and t = p/q, y + t*x is cleared by D*E*q.
    u, v = c.rows[tau_plus], c.rows[tau]
    num = {i: n * v[-1] * t.denominator for i, n in zip(tau_plus.members, u)}
    for i, n in zip(tau.members, v):
        num[i] += n * u[-1] * t.numerator
    rows = c.rows.copy()
    rows[tau_plus] = res_cleared(_host_index(P).covers[tau_plus], tau_plus.members, num)
    tree = tubing_tree(Tubing(P, c.tubing.tubes - {tau}))
    return _fill_from_tree(P, tree, rows, tau_plus)


def collapse(c: ConfigPoint, tau: Tube, tau_plus: Tube) -> tuple[ConfigPoint, Fraction]:
    """Inverse of expand: merge tau back into its parent, recovering t.

    If tau is already a stratum tube the point is returned with t = 0.
    Otherwise the collapse-domain inequalities (the tube's average against
    every related outside coordinate) must hold strictly.
    """
    P = c.host
    T = c.tubing
    if tau in T.tubes:
        _require_adjacent(c, tau, tau_plus)
        return c, Fraction(0)

    bigger = Tubing.of(P, T.tubes | {tau}, validate=False)
    check = is_tubing(P, bigger.tubes)
    if not check:
        raise NotInCollError(f"adding {tau} is not a tubing: {check}")
    tree = tubing_tree(bigger)
    if tree.parent.get(tau) != tau_plus:
        raise NotAdjacentError(f"{tau_plus} would not be the parent of {tau}")

    # The collapsed parent point is z over alpha(z), z being y with its
    # average on tau; as z sums to zero, that is its restriction to
    # tau_plus.  With y = u/D, |tau|*D*z has the integer numerators |tau|*u
    # off tau and the sum of u over tau on it, which the domain inequalities
    # compare.
    u = dict(zip(tau_plus.members, c.rows[tau_plus]))
    k = len(tau)
    mean = sum(u[i] for i in tau.members)
    num = {i: mean if i in tau.as_set else k * n for i, n in u.items()}
    up, down = _boundary_pairs(P, tau, tau_plus)
    for i, j in up:
        if not mean < num[j]:
            raise NotInCollError(f"need avg < x[{j}] on {tau_plus}")
    for j, i in down:
        if not num[j] < mean:
            raise NotInCollError(f"need x[{j}] < avg on {tau_plus}")
    covers = _host_index(P).covers[tau_plus]
    rows = c.rows.copy()
    rows[tau_plus] = res_cleared(covers, tau_plus.members, num)
    point = _fill_from_tree(P, tree, rows, tau_plus)

    # t = (y[i] / alpha(z) - w[i]) / x[i] for i in tau, w the collapsed
    # parent point and x the point on tau.  With w = m/W, x = v/E and
    # alpha(z) = S / (|tau|*D), S the alpha of the numerators of z,
    # t = E*d[i] / (S*W*v[i]) with d[i] = |tau|*u[i]*W - m[i]*S, which must
    # come out the same for every i with v[i] != 0.
    scale = sum(num[j] - num[i] for i, j in covers)
    W, E = point.rows[tau_plus][-1], point.rows[tau][-1]
    m = dict(zip(tau_plus.members, point.rows[tau_plus]))
    ratios = [(k * u[i] * W - m[i] * scale, v) for i, v in zip(tau.members, point.rows[tau]) if v]
    if not ratios or any(d * ratios[0][1] != ratios[0][0] * v for d, v in ratios):
        raise NotInCollError("recovered expansion scale is inconsistent")
    d, v = ratios[0]
    t = Fraction(E * d, scale * W * v)
    if not 0 < t < _t_max_core(point, tau, tau_plus, up, down):
        raise NotInCollError(f"recovered expansion scale {t} is outside (0, t_max)")
    return point, t


def _removal_order(tubes: Iterable[Tube]) -> list[Tube]:
    return sorted(tubes, key=Tube.key)


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
        return _removal_order(tubes)
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
    for t in parsed:
        if t is not None and not 0 <= t <= 1:
            raise ValueError("finite targets must lie in [0, 1]")

    tube24 = Tube.of((2, 4))
    # exact limit of both curves: elements 1, 2, 4 collide at the root while
    # the {2,4} component freezes at the forced two-element shape
    root = full_tube(P)
    limit_root = {1: Fraction(-1, 8), 2: Fraction(-1, 8), 3: Fraction(3, 8), 4: Fraction(-1, 8)}
    tree = tubing_tree(Tubing.of(P, [tube24]))
    limit = _fill_from_tree(P, tree, _cleared(
        {root: limit_root, tube24: {2: Fraction(-1, 2), 4: Fraction(1, 2)}}))

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

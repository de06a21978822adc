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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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
from .poset import Poset, Vector, alpha, avg, proj_sigma0, res
from .rational import frac
from .tubes import Tube, Tubing, TubingTree, enumerate_tubes, full_tube, is_tubing, tubing_tree

SCALE_GUARD = Fraction(1, 10)


def nonsingleton_tubes(P: Poset) -> tuple[Tube, ...]:
    return tuple(t for t in enumerate_tubes(P) if len(t) > 1)


@dataclass(frozen=True)
class ConfigPoint:
    """One order-polytope point per non-singleton tube of the host poset.

    The components are copied on construction and frozen: the outer mapping
    and every component are read-only views, so the cached ``tubing`` and
    ``tree`` cannot go stale.
    """

    host: Poset
    components: Mapping[Tube, Mapping[int, Fraction]] = field(hash=False)

    def __post_init__(self):
        frozen = {tube: MappingProxyType(dict(vec)) for tube, vec in self.components.items()}
        object.__setattr__(self, "components", MappingProxyType(frozen))

    def __getitem__(self, tube: Tube) -> Mapping[int, Fraction]:
        return self.components[tube]

    def validate(self) -> None:
        expected = set(nonsingleton_tubes(self.host))
        if set(self.components) != expected:
            raise ValueError("components must cover every non-singleton tube")
        for tube, vec in self.components.items():
            _check_polytope_point(self.host, tube, vec)

    @cached_property
    def tree(self) -> TubingTree:
        return tubing_tree(self.tubing)

    @cached_property
    def tubing(self) -> Tubing:
        return _tubing_of_checked(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConfigPoint) and self.host == other.host \
            and self.components == other.components


def _check_polytope_point(P: Poset, tube: Tube, vec: Mapping[int, Fraction]) -> None:
    if set(vec) != tube.as_set:
        raise ValueError(f"component {tube} has wrong index set")
    if sum(vec.values()) != 0:
        raise ValueError(f"component {tube} does not sum to zero")
    if alpha(P, tube.members, vec) != 1:
        raise ValueError(f"component {tube} is not normalized")
    for i, j in P.covers_within(tube.members):
        if vec[i] > vec[j]:
            raise ValueError(f"component {tube} is not order-preserving")


# -- restriction embedding ----------------------------------------------------


def embed(P: Poset, x: Mapping[int, Fraction]) -> ConfigPoint:
    """Restrict a strict configuration to every non-singleton tube.

    The input lives in the open order cone: coordinates sum to zero and
    increase strictly along every relation.
    """
    x = {i: frac(v) for i, v in x.items()}
    if set(x) != set(P.elements):
        raise ValueError("configuration must assign every element")
    if sum(x.values()) != 0:
        raise ValueError("configuration coordinates must sum to zero")
    for i, j in P.covers:
        if x[i] >= x[j]:
            raise NotStrictError(f"need x[{i}] < x[{j}]")
    comps = {t: res(P, t.members, x) for t in nonsingleton_tubes(P)}
    return ConfigPoint(P, comps)


@lru_cache(maxsize=None)
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


def is_coherent(c: ConfigPoint) -> tuple[bool, tuple[Tube, Tube] | None]:
    """Check the nested-projection condition on every covering tube pair.

    Each component is cleared to integer numerators once; a positive common
    factor per component changes neither proportionality nor its sign.
    With k = |inner| and S the sum of the outer numerators B over inner,
    the outer point projects to (k*B[i] - S) / k, so proportionality to the
    inner numerators Z with a nonnegative factor is a cross-product test
    against a pivot coordinate p plus one sign comparison; zero vectors need
    no special case.  On failure the offending (inner, outer) pair is the
    witness.
    """
    # zip drops the common denominator that ends each homogeneous row
    cleared = {tube: dict(zip(vec, homogeneous(vec.values())))
               for tube, vec in c.components.items()}
    for inner, outer in _nested_pairs(c.host):
        big, z = cleared[outer], cleared[inner]
        members = inner.members
        k = len(members)
        total = sum(big[i] for i in members)
        pivot = next((i for i in members if z[i]), None)
        if pivot is None:  # zero component: not an order-polytope point
            return False, (inner, outer)
        zp = z[pivot]
        yp = k * big[pivot] - total
        if yp * zp < 0:
            return False, (inner, outer)
        for i in members:
            if (k * big[i] - total) * zp != yp * z[i]:
                return False, (inner, outer)
    return True, None


def b_partition(P: Poset, tube_members: Iterable[int],
                x: Mapping[int, Fraction]) -> frozenset[Tube]:
    """Connected components of the level sets of x on the tube."""
    members = tuple(sorted(set(tube_members)))
    blocks: list[Tube] = []
    unseen = set(members)
    adjacency = {i: [j for j in P.hasse_adjacency[i] if j in set(members)] for i in members}
    while unseen:
        start = min(unseen)
        level = frac(x[start])
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w in unseen and w not in comp and frac(x[w]) == level:
                    comp.add(w)
                    stack.append(w)
        unseen -= comp
        blocks.append(Tube.of(comp))
    return frozenset(blocks)


def tubing_of(c: ConfigPoint) -> Tubing:
    """The stratum tubing: recursive level-set blocks starting at the root.

    The result is cached on the point, so repeated queries are free.
    """
    return c.tubing


def _tubing_of_checked(c: ConfigPoint) -> Tubing:
    ok, witness = is_coherent(c)
    if not ok:
        raise IncoherentError(f"incoherent at nested pair {witness}")
    P = c.host
    proper: set[Tube] = set()
    stack = [full_tube(P)]
    while stack:
        tube = stack.pop()
        for block in b_partition(P, tube.members, c[tube]):
            if len(block) > 1:
                if 1 < len(block) < len(P.elements):
                    proper.add(block)
                stack.append(block)
    return Tubing(P, frozenset(proper))


# -- stratum synthesis --------------------------------------------------------


def _fill_from_tree(P: Poset, tree: TubingTree,
                    tree_components: Mapping[Tube, Mapping[int, Fraction]],
                    carried: ConfigPoint | None = None,
                    moved: frozenset[Tube] = frozenset()) -> ConfigPoint:
    """Extend components on tree tubes to all tubes by normalized restriction.

    With ``carried``, a tube whose minimal containing tree node is not in
    ``moved`` keeps its component from ``carried``: that node's component
    is unchanged, so the restriction would come out the same.
    """
    comps: dict[Tube, Mapping[int, Fraction]] = {}
    for tube in nonsingleton_tubes(P):
        if tube in tree_components:
            comps[tube] = tree_components[tube]
            continue
        parent = tree.minimal_containing(tube.members)
        if carried is not None and parent not in moved:
            comps[tube] = carried[tube]
        else:
            comps[tube] = res(P, tube.members, tree_components[parent])
    return ConfigPoint(P, comps)


def synthesize(P: Poset, T: Tubing, interior: Mapping[Tube, Mapping[int, Fraction]]) -> ConfigPoint:
    """Assemble the stratum point with the given per-tree-tube interior data.

    For each tube of the tubing (and the full poset) the supplied point
    must lie in the open face whose blocks are exactly that tube's children
    in the nesting tree; everything else is reconstructed by restriction.
    """
    tree = tubing_tree(T)
    tree_tubes = set(T.tubes) | {full_tube(P)}
    comps: dict[Tube, Vector] = {}
    for tube in sorted(tree_tubes, key=Tube.key):
        if tube not in interior:
            raise WrongFaceError(f"missing interior point for {tube}")
        vec = {i: frac(v) for i, v in interior[tube].items()}
        _check_polytope_point(P, tube, vec)
        expected = frozenset(tree.children[tube])
        if b_partition(P, tube.members, vec) != expected:
            raise WrongFaceError(
                f"point for {tube} is constant on the wrong blocks"
            )
        comps[tube] = vec
    return _fill_from_tree(P, tree, comps)


def face_interior_point(P: Poset, tube: Tube, blocks: Iterable[Tube]) -> Vector:
    """Canonical point of the open face of Ord(tube) with the given blocks.

    Blocks get distinct values along a linear extension of the quotient, so
    the level-set components are exactly the blocks.
    """
    blocks = sorted(blocks, key=Tube.key)
    block_of = {e: b for b in blocks for e in b}
    remaining = list(blocks)
    heights: dict[Tube, int] = {}
    level = 0
    while remaining:
        ready = [
            b for b in remaining
            if not any(
                P.lt(i, j)
                for other in remaining if other != b and other not in heights
                for i in other for j in b
            )
        ]
        b = min(ready, key=Tube.key)
        heights[b] = level
        level += 1
        remaining.remove(b)
    raw = {e: Fraction(heights[block_of[e]]) for e in tube.members}
    shifted = proj_sigma0(tube.members, raw)
    scale = alpha(P, tube.members, shifted)
    return {e: v / scale for e, v in shifted.items()}


def stratum_point(P: Poset, T: Tubing) -> ConfigPoint:
    """Canonical exact point of the stratum labeled by the tubing."""
    return Stratum.canonical(P, T).point()


@dataclass(frozen=True)
class Stratum:
    """A proper tubing together with interior data for each tree tube.

    The product of the open faces has dimension |P| - |T| - 2; ``point()``
    assembles the corresponding element of the compactification.
    """

    tubing: Tubing
    interior: dict[Tube, Vector] = field(hash=False)

    @staticmethod
    def canonical(P: Poset, T: Tubing) -> "Stratum":
        tree = tubing_tree(T)
        interior = {
            tube: face_interior_point(P, tube, tree.children[tube])
            for tube in sorted(set(T.tubes) | {full_tube(P)}, key=Tube.key)
        }
        return Stratum(T, interior)

    @property
    def dim(self) -> int:
        tree = tubing_tree(self.tubing)
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


def _t_max_core(xt: Vector, xp: Vector, up, down):
    worst = Fraction(0)
    for i, j in up:
        gap = xp[j] - xp[i]
        worst = max(worst, xt[i] / gap)
    for j, i in down:
        gap = xp[i] - xp[j]
        worst = max(worst, -xt[i] / gap)
    if worst == 0:
        return float("inf")
    return 1 / worst


def t_max(c: ConfigPoint, tau: Tube, tau_plus: Tube):
    """Largest admissible expansion scale (a Fraction, or inf if unbounded).

    The bound is the reciprocal of the largest clamped ratio over boundary
    relations; inactive constraints clamp to zero and never bind, so the
    result is always strictly positive.
    """
    _require_adjacent(c, tau, tau_plus)
    up, down = _boundary_pairs(c.host, tau, tau_plus)
    return _t_max_core(c[tau], c[tau_plus], up, down)


def expand(c: ConfigPoint, tau: Tube, tau_plus: Tube, t) -> ConfigPoint:
    """Separate tau from its parent by scale t, landing in stratum T - {tau}."""
    t = frac(t)
    _require_adjacent(c, tau, tau_plus)
    if t < 0 or t >= t_max(c, tau, tau_plus):
        raise RangeError(f"need 0 <= t < t_max, got {t}")
    if t == 0:
        return c
    P = c.host
    z = dict(c[tau_plus])
    for i in tau:
        z[i] += t * c[tau][i]
    scale = alpha(P, tau_plus.members, z)
    new_parent = {i: v / scale for i, v in z.items()}
    new_tubing = Tubing(P, c.tubing.tubes - {tau})
    tree = tubing_tree(new_tubing)
    tree_comps = {
        tube: (new_parent if tube == tau_plus else c[tube])
        for tube in new_tubing.tubes | {full_tube(P)}
    }
    return _fill_from_tree(P, tree, tree_comps, c, frozenset((tau, tau_plus)))


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

    yp = c[tau_plus]
    mean = avg(tau.members, yp)
    up, down = _boundary_pairs(P, tau, tau_plus)
    for i, j in up:
        if not mean < yp[j]:
            raise NotInCollError(f"need avg < x[{j}] on {tau_plus}")
    for j, i in down:
        if not yp[j] < mean:
            raise NotInCollError(f"need x[{j}] < avg on {tau_plus}")

    z = {i: (mean if i in tau else yp[i]) for i in tau_plus.members}
    scale = alpha(P, tau_plus.members, z)
    collapsed_parent = {i: v / scale for i, v in z.items()}
    tree_comps: dict[Tube, Vector] = {}
    for tube in bigger.tubes | {full_tube(P)}:
        tree_comps[tube] = collapsed_parent if tube == tau_plus else c[tube]
    point = _fill_from_tree(P, tree, tree_comps, c, frozenset((tau, tau_plus)))

    ts = set()
    for i in tau:
        if point[tau][i] != 0:
            ts.add((yp[i] / scale - point[tau_plus][i]) / point[tau][i])
    if len(ts) != 1:
        raise NotInCollError("recovered expansion scale is inconsistent")
    t = ts.pop()
    if not 0 < t < _t_max_core(point[tau], point[tau_plus], up, down):
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
    limit = _fill_from_tree(P, tree, {root: limit_root, tube24: {2: Fraction(-1, 2), 4: Fraction(1, 2)}})

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

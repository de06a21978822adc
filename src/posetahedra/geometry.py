"""Certified realization pipeline, for finite and affine posets alike.

The dual polytope is grown from the dual order polytope by stellar
subdivisions, one per proper tube (or tube class) in weakly decreasing
size order.  At every step the face lattice of the intermediate polytope
is known exactly (admissible tubings for the current melted set), so facet
hyperplanes are re-solved from their claimed tight vertex sets and
certified, never reconstructed by convex hull.

Admissible tubings contain the root tube; frozen tubes are leaves of the
nesting tree while each melted tube's children partition it.  The face
dimension bookkeeping is size + |melted in T| - |frozen in T| - 2.  What
differs between hosts is behind a tube system (``tube_system``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, singledispatch

from .errors import DegenerateError, EpsilonInfeasibleError, MismatchError, NotAFaceError
from .lattice import FaceLattice, associahedron_face_lattice, tubing_partitions
from .linalg import affine_rank, homogeneous, integer_rank, nullspace
from .polytope import (
    Chart,
    Facet,
    RationalPolytope,
    facet_through,
    polar_dual,
    polytope_from_data,
)
from .poset import Poset, ideal_filter_splits
from .rational import check_bit_budget
from .tubes import Tube, enumerate_tubes, full_tube

AdmTubing = frozenset[Tube]


# -- order polytope -----------------------------------------------------------


def _sigma_alpha_chart(P: Poset, base: dict[int, Fraction]) -> Chart:
    """Chart of the affine plane {sum x = 0, alpha_P x = 1} anchored at base."""
    ids = P.elements
    weight = {e: Fraction(0) for e in ids}
    for i, j in P.covers:
        weight[j] += 1
        weight[i] -= 1
    rows = [[Fraction(1)] * len(ids), [weight[e] for e in ids]]
    basis = tuple(tuple(v) for v in nullspace(rows, len(ids)))
    return Chart(ids=ids, base=tuple(base[e] for e in ids), basis=basis)


def order_polytope(P: Poset) -> RationalPolytope:
    """V/H representation of the order polytope, dimension |P| - 2.

    Vertices come from ideal/filter splits: the split (I, F) crossed by e
    covers gets value -|F|/(e|P|) on I and |I|/(e|P|) on F.  Facets are the
    cover inequalities x_i <= x_j expressed in the chart.
    """
    n = len(P.elements)
    splits = ideal_filter_splits(P)
    ambient_vertices = []
    for ideal, filt in splits:
        e = sum(1 for i, j in P.covers if i in set(ideal) and j in set(filt))
        a = Fraction(-len(filt), e * n)
        b = Fraction(len(ideal), e * n)
        ambient_vertices.append({x: (a if x in set(ideal) else b) for x in P.elements})
    centroid = {
        e: sum((v[e] for v in ambient_vertices), Fraction(0)) / len(ambient_vertices)
        for e in P.elements
    }
    chart = _sigma_alpha_chart(P, centroid)
    vertices = [chart.to_chart(v) for v in ambient_vertices]
    if n == 2:
        return polytope_from_data(0, vertices[:1], (), chart, vertex_labels=(splits[0],))

    facets = []
    for i, j in P.covers:
        # x_j - x_i >= 0 becomes <B^T(e_i - e_j), u> <= base_j - base_i
        normal = tuple(vec[P.elements.index(i)] - vec[P.elements.index(j)] for vec in chart.basis)
        offset = centroid[j] - centroid[i]
        facets.append(Facet(normal, offset, label=(i, j)))
    poly = polytope_from_data(n - 2, vertices, facets, chart, vertex_labels=tuple(splits))
    if affine_rank(poly.vertices) != n - 2:
        raise DegenerateError("order polytope has unexpected dimension")
    return poly


# -- admissible tubings -------------------------------------------------------


@singledispatch
def tube_system(host):
    """The melting induction's view of a host: a PosetTubes for a finite
    poset; affine.py registers PeriodicTubes for an affine poset."""
    raise TypeError(f"no tube system for {type(host).__name__}")


class PosetTubes:
    """What the melting induction needs to know about a finite poset.

    Every tube system names the root tube (always melted), the size giving
    dim(T) = size + |melted in T| - |frozen in T| - 2, the polytope
    dimension, the stage word of error messages, frozen containment, the
    strict partitions of a melted tube, the singletons outside a tube, the
    proper tubes, the tube of an order-polytope cover label, the order
    polytope and the face lattice the result is checked against.
    """

    stage = "melting"

    def __init__(self, P: Poset):
        self.host = P
        self.root = full_tube(P)
        self.size = len(P.elements)
        self.dim = self.size - 2

    def contains(self, outer: Tube, inner: Tube) -> bool:
        return inner.issubset(outer)

    def partitions(self, tube: Tube):
        return tubing_partitions(self.host, tube.members, strict_blocks=True)

    def outside(self, tube: Tube) -> set[Tube]:
        return {Tube((e,)) for e in self.host.elements if e not in tube}

    def proper_tubes(self) -> tuple[Tube, ...]:
        return enumerate_tubes(self.host, proper_only=True)

    def cover_tube(self, i: int, j: int) -> Tube:
        return Tube.of((i, j))

    def order_polytope(self) -> RationalPolytope:
        return order_polytope(self.host)

    def face_lattice(self) -> FaceLattice:
        return associahedron_face_lattice(self.host)


tube_system.register(Poset, PosetTubes)


@dataclass(frozen=True)
class MeltedSet:
    """Upward-closed set of tubes containing the root tube."""

    host: Poset  # or an AffinePoset, as for every host with a tube system
    tubes: frozenset[Tube]

    @staticmethod
    def of(host, tubes) -> "MeltedSet":
        system = tube_system(host)
        tset = frozenset(tubes) | {system.root}
        for t in tset:
            for s in system.proper_tubes():
                if s not in tset and len(s) > len(t) and system.contains(s, t):
                    raise ValueError(f"melted set not upward closed: {t} < {s}")
        return MeltedSet(host, tset)

    def __contains__(self, tube: Tube) -> bool:
        return tube in self.tubes


@dataclass(frozen=True)
class AdmissiblePoset:
    """All admissible tubings for a melted set, with dims and comparison."""

    host: Poset
    melted: MeltedSet
    elements: tuple[AdmTubing, ...]

    @cached_property
    def system(self):
        return tube_system(self.host)

    def is_melted(self, t: Tube) -> bool:
        return t in self.melted

    def dim(self, T: AdmTubing) -> int:
        return self._dims[T]

    @cached_property
    def _dims(self) -> dict[AdmTubing, int]:
        """dim(T) for every element, from the melted bits of its mask."""
        order, base = self.order, self.system.size - 2
        return {T: base + 2 * (order.mask(T) & order.melted).bit_count() - len(T)
                for T in self.elements}

    @cached_property
    def order(self) -> FaceOrder:
        return FaceOrder(self.elements, self.melted.__contains__, self.system.contains)

    def le(self, a: AdmTubing, b: AdmTubing) -> bool:
        """Face order: melted tubes persist, frozen tubes may coarsen."""
        return self.order.le(a, b)

    @cached_property
    def by_dim(self) -> dict[int, tuple[AdmTubing, ...]]:
        out: dict[int, list[AdmTubing]] = {}
        for T in self.elements:
            out.setdefault(self.dim(T), []).append(T)
        return {d: tuple(v) for d, v in out.items()}

    def vertices(self) -> tuple[AdmTubing, ...]:
        return self.by_dim.get(0, ())

    def facets(self) -> tuple[AdmTubing, ...]:
        return self.by_dim.get(self.system.dim - 1, ())

    def s_tau(self, tau: Tube) -> AdmTubing:
        return frozenset({self.system.root, tau} | self.system.outside(tau))


class FaceOrder:
    """The face order of admissible tubings on integer bitsets.

    Every tube occurring in an admissible tubing gets one bit; mask(T) is
    the OR of the bits of T's tubes.  bad(T) holds the melted tubes missing
    from T and the frozen tubes lying under no frozen tube of T, so
    a <= b exactly when mask(a) & bad(b) == 0: melted tubes persist and
    frozen tubes may coarsen.  ``contains(s, t)`` says frozen s contains t.
    Shared by the finite and the affine admissible posets.
    """

    def __init__(self, elements, is_melted, contains):
        self.bit: dict = {}
        for T in elements:
            for t in T:
                self.bit.setdefault(t, 1 << len(self.bit))
        frozen = [t for t in self.bit if not is_melted(t)]
        self.frozen = sum(self.bit[t] for t in frozen)
        self.melted = (1 << len(self.bit)) - 1 - self.frozen
        self.under = {
            s: sum(self.bit[t] for t in frozen if contains(s, t)) for s in frozen
        }

    def mask(self, T) -> int:
        # the tubes of T are distinct, so summing their bits is an OR
        return sum(self.bit[t] for t in T)

    def bad(self, T) -> int:
        covered = 0
        for t in T:
            covered |= self.under.get(t, 0)
        return (self.melted & ~self.mask(T)) | (self.frozen & ~covered)

    def le(self, a, b) -> bool:
        return not self.mask(a) & self.bad(b)

    def below(self, masks, T) -> list[int]:
        """Positions i, in order, with masks[i] the mask of a tubing <= T."""
        bad = self.bad(T)
        return [i for i, m in enumerate(masks) if not m & bad]


def admissible_tubings(P: Poset, M: MeltedSet) -> AdmissiblePoset:
    """Enumerate admissible tubings recursively along the nesting tree.

    Every melted tube in a tubing must be partitioned by its children and
    every frozen tube is a leaf, so the candidates factor over tubing
    partitions; acyclicity then only needs checking partition by partition.
    """
    system = tube_system(P)
    memo: dict[Tube, tuple[frozenset[Tube], ...]] = {}

    def subtrees(tube: Tube) -> tuple[frozenset[Tube], ...]:
        if tube in memo:
            return memo[tube]
        options: list[frozenset[Tube]] = []
        for blocks in system.partitions(tube):
            child_choices = [
                subtrees(block) if block in M else (frozenset({block}),) for block in blocks
            ]
            for combo in itertools.product(*child_choices):
                options.append(frozenset({tube}).union(*combo))
        memo[tube] = tuple(options)
        return memo[tube]

    elements = tuple(sorted(subtrees(system.root),
                            key=lambda T: tuple(sorted(t.members for t in T))))
    return AdmissiblePoset(host=P, melted=M, elements=elements)


# -- stellar subdivision ------------------------------------------------------


def _pullout_point(Q: RationalPolytope, face_ids: frozenset[int]) -> tuple[Fraction, ...]:
    """(1 + eps) times the face centroid, eps = half the room to the first
    facet not containing the face.  The polytope must contain the origin."""
    pts = [Q.vertices[i] for i in sorted(face_ids)]
    x = tuple(sum(col, Fraction(0)) / len(pts) for col in zip(*pts))
    bound = None
    for facet, inc in zip(Q.facets, Q.incidence):
        if face_ids <= inc:
            continue
        nx = facet.value(x)
        if nx > 0:
            t = (facet.offset - nx) / nx
            bound = t if bound is None else min(bound, t)
    if bound is not None and bound <= 0:
        raise EpsilonInfeasibleError("no positive pull-out factor exists")
    # with no binding facet any positive factor keeps the point beneath them
    eps = Fraction(1) if bound is None else bound / 2
    new_point = tuple((1 + eps) * c for c in x)
    for facet, inc in zip(Q.facets, Q.incidence):
        beyond = facet.value(new_point) > facet.offset
        if beyond != (face_ids <= inc):
            raise EpsilonInfeasibleError("pull-out point misclassifies a facet")
    return new_point


def rebuild_from_lattice(dim, vertices, labels, adm) -> RationalPolytope:
    """Solve every facet hyperplane from the lattice and certify the result."""
    rows = [homogeneous(v) for v in vertices]
    masks = [adm.order.mask(lab) for lab in labels]
    facets = [
        facet_through(rows, adm.order.below(masks, Tf), label=Tf) for Tf in adm.facets()
    ]
    poly = polytope_from_data(dim, vertices, facets, vertex_labels=tuple(labels))
    lattice_match(poly, adm)
    return poly


def lattice_match(Q: RationalPolytope, adm: AdmissiblePoset) -> None:
    """Certify that Q's faces realize the admissible-tubing lattice exactly.

    For every admissible T the vertices below it must (a) be exactly the
    intersection of the tight sets of the facets above it, and (b) affinely
    span dim(T) dimensions.  Vertex and facet sets are integer bitsets: a
    vertex lies in the intersection when its row of incident facets holds
    every facet above T.  Ranks are taken on Q's homogeneous rows.
    """
    labels = Q.vertex_labels
    if labels is None or len(labels) != len(Q.vertices):
        raise MismatchError("polytope lacks vertex labels")
    vertex_set = set(adm.vertices())
    if set(labels) != vertex_set or len(labels) != len(vertex_set):
        raise MismatchError("vertex labels disagree with the lattice")
    order = adm.order
    masks = [order.mask(lab) for lab in labels]
    facet_bads = [order.bad(f.label) for f in Q.facets]
    not_rows = [-1] * len(labels)  # complement of each vertex's facet row
    for k, inc in enumerate(Q.incidence):
        for i in inc:
            not_rows[i] &= ~(1 << k)
    for T in adm.elements:
        ids = order.below(masks, T)
        below = sum(1 << i for i in ids)
        mask = order.mask(T)
        above = sum(1 << k for k, bad in enumerate(facet_bads) if not mask & bad)
        if adm.dim(T) < Q.dim and not above:
            raise MismatchError(f"face {T} lies on no facet")
        cut = sum(1 << i for i, not_row in enumerate(not_rows) if not above & not_row)
        if cut != below:
            raise MismatchError(
                f"face {_face_name(T)} vertex set disagrees with facet intersection")
        if integer_rank([Q.rows[i] for i in ids]) - 1 != adm.dim(T):
            raise MismatchError(f"face {_face_name(T)} has wrong dimension")


def _face_name(T) -> list:
    return sorted(t.members for t in T)


def stellar_subdivide(Q: RationalPolytope, face_vertex_ids,
                      new_lattice: AdmissiblePoset) -> RationalPolytope:
    """Stellar subdivision at the face spanned by the given vertices.

    Geometry: add (1+eps) times the face centroid, certified strictly
    beyond exactly the facets containing the face.  Combinatorics: facet
    hyperplanes are re-solved from the supplied (already updated) lattice.
    """
    face_ids = frozenset(face_vertex_ids)
    if Q.face_from_vertices(face_ids) != face_ids:
        raise NotAFaceError("vertex set does not span a face")
    new_point = _pullout_point(Q, face_ids)

    new_dim0 = set(new_lattice.vertices())
    kept = [(v, lab) for v, lab in zip(Q.vertices, Q.vertex_labels) if lab in new_dim0]
    removed = [lab for lab in Q.vertex_labels if lab not in new_dim0]
    if removed and (len(removed) > 1 or len(face_ids) != 1):
        raise MismatchError("subdivision removed an unexpected vertex")
    fresh = new_dim0 - set(Q.vertex_labels)
    if len(fresh) != 1:
        raise MismatchError("expected exactly one new vertex label")
    vertices = tuple(v for v, _ in kept) + (new_point,)
    labels = tuple(lab for _, lab in kept) + (next(iter(fresh)),)
    return rebuild_from_lattice(Q.dim, vertices, labels, new_lattice)


# -- full pipeline ------------------------------------------------------------


@dataclass(frozen=True)
class RealizationResult:
    host: Poset
    dual: RationalPolytope
    primal: RationalPolytope
    lattice: FaceLattice
    melt_sequence: tuple[Tube, ...]
    stage_vertex_counts: tuple[int, ...]


def melt_order(tubes) -> list[Tube]:
    """Weakly decreasing size, lexicographic members within a size."""
    return sorted(tubes, key=lambda t: (-len(t), t.members))


def initial_dual(P: Poset) -> tuple[RationalPolytope, AdmissiblePoset]:
    """Dual order polytope with admissible-tubing labels, certified."""
    system = tube_system(P)
    adm = admissible_tubings(P, MeltedSet.of(P, ()))
    ord_poly = system.order_polytope()
    dual = polar_dual(ord_poly)
    labels = [adm.s_tau(system.cover_tube(*f.label)) for f in ord_poly.facets]
    dual = rebuild_from_lattice(dual.dim, dual.vertices, labels, adm)
    return dual, adm


def realize(P) -> RealizationResult:
    """Run the melting induction on any host with a tube system.

    Melts the proper tubes in weakly decreasing size, one stellar
    subdivision each, and certifies the final polytope.  Returns the
    subdivided dual, its polar (the simple polytope itself) and the
    combinatorial face lattice the result was checked against.
    """
    system = tube_system(P)
    lattice = system.face_lattice()
    if system.dim == 0:
        point = RationalPolytope(0, ((),), (), (), None, (frozenset(),))
        return RealizationResult(P, point, point, lattice, (), (1,))

    dual, adm = initial_dual(P)
    counts = [dual.n_vertices]
    melted: set[Tube] = set()
    sequence = melt_order(system.proper_tubes())
    for tau in sequence:
        top = adm.s_tau(tau)
        face_ids = frozenset(i for i, lab in enumerate(dual.vertex_labels) if adm.le(lab, top))
        melted.add(tau)
        adm = admissible_tubings(P, MeltedSet.of(P, melted))
        try:
            dual = stellar_subdivide(dual, face_ids, adm)
        except MismatchError as exc:
            raise MismatchError(f"{system.stage} {tau}: {exc}") from exc
        counts.append(dual.n_vertices)
        check_bit_budget(itertools.chain.from_iterable(dual.vertices),
                         f"realization after {system.stage} {tau}")

    _check_final_lattice(P, dual, lattice)
    primal = polar_dual(dual)
    return RealizationResult(P, dual, primal, lattice, tuple(sequence), tuple(counts))


def realize_poset_associahedron(P: Poset) -> RealizationResult:
    """The melting induction on a finite poset: its P-associahedron."""
    return realize(P)


def _check_final_lattice(P, dual: RationalPolytope, lattice: FaceLattice) -> None:
    """The final dual's faces must be exactly the proper tubings."""
    system = tube_system(P)
    strip = lambda T: frozenset(t for t in T if t != system.root and len(t) > 1)
    vertex_tubes = [strip(lab) for lab in dual.vertex_labels]
    if any(len(ts) != 1 for ts in vertex_tubes):
        raise MismatchError("final dual vertices are not labeled by single tubes")
    tube_of = [next(iter(ts)) for ts in vertex_tubes]
    if set(tube_of) != set(system.proper_tubes()):
        raise MismatchError("final dual vertices do not match proper tubes")
    facet_tubings = {strip(f.label) for f in dual.facets}
    expected = {frozenset(key) for key in lattice.faces_of_dim(0)}
    if facet_tubings != expected:
        raise MismatchError("final dual facets do not match maximal tubings")
    for f, inc in zip(dual.facets, dual.incidence):
        if {tube_of[i] for i in inc} != strip(f.label):
            raise MismatchError("final dual incidence disagrees with membership")

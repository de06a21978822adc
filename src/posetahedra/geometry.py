"""Certified realization pipeline, for finite and affine posets alike.

The dual polytope is grown from the dual order polytope by stellar
subdivisions, one per proper tube (or tube class) in weakly decreasing
size order.  At every step the face lattice of the intermediate polytope
is known exactly (admissible tubings for the current melted set), so facet
hyperplanes are re-solved from their claimed tight vertex sets and
certified, never reconstructed by convex hull.

Admissible tubings contain the root tube; frozen tubes are leaves of the
nesting tree while each melted tube's children partition it.  The face
dimension bookkeeping is size + |melted in T| - |frozen in T| - 2, which
a tubing's mask gives as size - 2 + 2 |mask & melted| - |mask|.  What
differs between hosts is behind a tube system (``tube_system``), whose
tubes have one position per host (``tube_index``); tubings are bitsets of
positions.  Each stage carries forward what its subdivision leaves
unchanged, and is certified in full all the same.

Vertex sets are vertex bitsets, as in ``polytope``.  A facet the
subdivision keeps is carried under its claimed incidence, never its signs,
so that a tampered hyperplane still meets the certificate.

Each fact of a stage is computed once.  A facet the subdivision keeps
keeps its hyperplane and its signs at the kept vertices, so only the new
vertex is signed against it.  A solved facet's hyperplane solve has
proved that its tight rows have rank d, and seeds the rank memo with it,
so ``certify`` looks the rank up.  A facet with exactly d vertices of rank
d has linearly independent rows, so every face below it has rank equal to
its vertex count; ``lattice_match`` only eliminates the rows of faces
below no such facet.  A stage is one ``AdmissiblePoset``, built once by
``admissible_tubings``: its tubings with their masks, dimensions and bad
sets, and the vertex-below table (``AdmissiblePoset.below``) that the facet
solves and the lattice match share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce, singledispatch
from operator import mul, or_
from types import MappingProxyType
from typing import NamedTuple

from .errors import EpsilonInfeasibleError, MismatchError, NotAFaceError
from .lattice import FaceLattice, associahedron_face_lattice, tubing_partitions
from .linalg import homogeneous
from .polytope import (
    RationalPolytope,
    bit_positions,
    facet_through,
    order_chart_polytope,
    polar_dual,
    polytope_from_data,
    sides,
    union_table,
)
from .poset import Poset, ideal_filter_splits
from .rational import check_bit_budget
from .tubes import CACHE_SIZE, Tube, enumerate_tubes, full_tube

AdmTubing = frozenset[Tube]


# -- order polytope -----------------------------------------------------------


def order_polytope(P: Poset) -> RationalPolytope:
    """V/H representation of the order polytope, dimension |P| - 2.

    Vertices come from ideal/filter splits: the split (I, F) crossed by e
    covers gets value -|F|/(e|P|) on I and |I|/(e|P|) on F.  They span the
    plane {sum x = 0, alpha_P x = 1}, and the facets are the cover
    inequalities x_i <= x_j.
    """
    n = len(P.elements)
    splits = ideal_filter_splits(P)
    ambient_vertices = []
    for ideal, filt in splits:
        inside = set(ideal)
        e = sum(i in inside and j not in inside for i, j in P.covers)
        a = Fraction(-len(filt), e * n)
        b = Fraction(len(ideal), e * n)
        ambient_vertices.append({x: (a if x in inside else b) for x in P.elements})
    alpha = [sum((j == e) - (i == e) for i, j in P.covers) for e in P.elements]
    return order_chart_polytope(n - 2, ambient_vertices, [[1] * n, alpha],
                                [(i, j, 0, (i, j)) for i, j in P.covers], tuple(splits))


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
    strict partitions of a melted tube, the singletons outside a tube, all
    its tubes, the proper tubes, the tube of an order-polytope cover label,
    the order polytope and the face lattice the result is checked against.
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

    def tubes(self) -> tuple[Tube, ...]:
        return enumerate_tubes(self.host)

    def proper_tubes(self) -> tuple[Tube, ...]:
        return enumerate_tubes(self.host, proper_only=True)

    def cover_tube(self, i: int, j: int) -> Tube:
        return Tube.of((i, j))

    def order_polytope(self) -> RationalPolytope:
        return order_polytope(self.host)

    def face_lattice(self) -> FaceLattice:
        return associahedron_face_lattice(self.host)


tube_system.register(Poset, PosetTubes)


class TubeIndex(NamedTuple):
    """Every tube of a host's tube system at one position, in members order,
    so a tubing's ascending positions list its tubes in the order admissible
    tubings are sorted by.  ``sub[i]`` holds the tubes that tube i contains
    as a frozen tube, itself included; ``parts[i]`` the strict partitions of
    a non-singleton tube i, as tuples of block positions."""

    system: object
    tubes: tuple
    position: dict
    sub: tuple[int, ...]
    parts: tuple[tuple[tuple[int, ...], ...], ...]

    def mask(self, tubes: frozenset) -> int:
        return sum(1 << self.position[t] for t in tubes)


@lru_cache(maxsize=CACHE_SIZE)
def tube_index(host) -> TubeIndex:
    system = tube_system(host)
    tubes = tuple(sorted(system.tubes(), key=lambda t: t.members))
    position = {t: k for k, t in enumerate(tubes)}
    sub = tuple(sum(1 << j for j, s in enumerate(tubes) if system.contains(t, s)) for t in tubes)
    parts = tuple(() if len(t) == 1 else tuple(tuple(map(position.__getitem__, blocks))
                                               for blocks in system.partitions(t))
                  for t in tubes)
    return TubeIndex(system, tubes, position, sub, parts)


@dataclass(frozen=True)
class MeltedSet:
    """Upward-closed set of tubes containing the root tube."""

    host: Poset  # or an AffinePoset, as for every host with a tube system
    tubes: frozenset[Tube]

    @staticmethod
    def of(host, tubes) -> "MeltedSet":
        # upward closed: no tube outside the set contains one in it (``sub``)
        index = tube_index(host)
        tset = frozenset(tubes) | {index.system.root}
        if stray := tset - index.position.keys():
            raise ValueError(f"not tubes of the host: {', '.join(map(str, stray))}")
        melted = index.mask(tset)
        for k, below in enumerate(index.sub):
            if below & melted and not melted >> k & 1:
                t = index.tubes[(below & melted).bit_length() - 1]
                raise ValueError(f"melted set not upward closed: {t} < {index.tubes[k]}")
        return MeltedSet(host, tset)

    def __contains__(self, tube: Tube) -> bool:
        return tube in self.tubes


@dataclass(frozen=True)
class AdmissiblePoset:
    """The admissible tubings of a melted set, indexed once: one melting stage.

    ``masks[i]`` is the OR of the tube position bits (``TubeIndex``) of
    ``elements[i]`` and ``dims[i]`` its face dimension, read off the mask.
    ``bads[i]`` holds the melted tubes missing from it and the frozen tubes
    lying under no frozen tube of it, so a <= b exactly when
    mask(a) & bad(b) == 0: melted tubes persist and frozen tubes may coarsen.
    ``index`` maps each element to its position.  ``admissible_tubings``
    builds it; the table ``below`` keeps of the last labels is its only
    mutable state.
    """

    host: Poset  # or an AffinePoset, as for every host with a tube system
    melted: MeltedSet
    elements: tuple[AdmTubing, ...]
    masks: tuple[int, ...]
    dims: tuple[int, ...]
    bads: tuple[int, ...]
    index: MappingProxyType = field(compare=False)
    _last: list = field(default_factory=lambda: [(), None], init=False, repr=False,
                        compare=False)

    @property
    def system(self):
        return tube_index(self.host).system

    def is_melted(self, t: Tube) -> bool:
        return t in self.melted

    def dim(self, T: AdmTubing) -> int:
        return self.dims[self.index[T]]

    def le(self, a: AdmTubing, b: AdmTubing) -> bool:
        """Face order: melted tubes persist, frozen tubes may coarsen."""
        return not self.masks[self.index[a]] & self.bads[self.index[b]]

    def vertices(self) -> tuple[AdmTubing, ...]:
        return self._of_dim(0)

    def facets(self) -> tuple[AdmTubing, ...]:
        return self._of_dim(self.system.dim - 1)

    def _of_dim(self, d: int) -> tuple[AdmTubing, ...]:
        return tuple(T for T, k in zip(self.elements, self.dims) if k == d)

    def s_tau(self, tau: Tube) -> AdmTubing:
        return frozenset({self.system.root, tau} | self.system.outside(tau))

    def below(self, labels):
        """The map i -> the bitset of the positions k with labels[k] <= elements[i]:
        every label less those holding a tube of bad(i).  Raises
        MismatchError when a label is not an element.  The table of the last
        labels is kept, so that a stage's facet solves and its lattice match
        share one.
        """
        labels = tuple(labels)
        if self._last[0] == labels:
            return self._last[1]
        holders = [0] * len(tube_index(self.host).tubes)  # per tube bit, the labels holding it
        held = 0
        for k, label in enumerate(labels):
            i = self.index.get(label)
            if i is None:
                raise MismatchError(f"vertex label {_face_name(label)} is not admissible")
            held |= self.masks[i]
            for j in bit_positions(self.masks[i]):
                holders[j] |= 1 << k
        every, bads, union = (1 << len(labels)) - 1, self.bads, union_table(holders)
        self._last[:] = labels, lambda i: every & ~union(bads[i] & held)
        return self._last[1]


class TubingMemo:
    """Admissible-tubing work a realization carries from stage to stage: per
    tube position, the melted positions inside the tube and the option masks
    they gave (a tube's options depend on nothing else), and per tubing mask
    of the last stage, its positions and its set of tubes."""

    def __init__(self):
        self.options: dict[int, tuple[int, list[int]]] = {}
        self.tubings: dict[int, tuple[list[int], AdmTubing]] = {}


def admissible_tubings(P: Poset, M: MeltedSet, memo: TubingMemo | None = None) -> AdmissiblePoset:
    """Enumerate admissible tubings recursively along the nesting tree.

    Every melted tube in a tubing must be partitioned by its children and
    every frozen tube is a leaf, so the candidates factor over tubing
    partitions; acyclicity then only needs checking partition by partition.
    A tubing is the OR of its tubes' position bits (``tube_index``); what
    ``memo`` holds from the last stage is reused, and the stage indexed once.
    """
    if M.host != P:
        raise ValueError("the melted set belongs to another host")
    index = tube_index(P)
    sub, melted = index.sub, index.mask(M.tubes)
    memo = TubingMemo() if memo is None else memo
    known = memo.options

    def subtrees(k: int) -> list[int]:
        inside = melted & sub[k]
        entry = known.get(k)
        if entry is not None and entry[0] == inside:
            return entry[1]
        options: list[int] = []
        for blocks in index.parts[k]:
            choices = [subtrees(b) if melted >> b & 1 else (1 << b,) for b in blocks]
            options.extend(reduce(or_, combo, 1 << k) for combo in itertools.product(*choices))
        known[k] = (inside, options)
        return options

    last, tubings, tubes = memo.tubings, {}, index.tubes
    for mask in subtrees(index.position[index.system.root]):
        entry = last.get(mask)
        if entry is None:
            bits = bit_positions(mask)
            entry = (bits, frozenset(map(tubes.__getitem__, bits)))
        tubings[mask] = entry
    memo.tubings = tubings
    # ascending positions list the tubes in members order: the sort key
    masks = tuple(sorted(tubings, key=lambda mask: tubings[mask][0]))
    elements = tuple(tubings[mask][1] for mask in masks)
    base, frozen = index.system.size - 2, ((1 << len(sub)) - 1) & ~melted
    covered = union_table(sub)
    return AdmissiblePoset(
        host=P, melted=M, elements=elements, masks=masks,
        dims=tuple(base + 2 * (mask & melted).bit_count() - mask.bit_count() for mask in masks),
        bads=tuple((melted & ~mask) | (frozen & ~covered(mask & frozen)) for mask in masks),
        index=MappingProxyType({T: i for i, T in enumerate(elements)}))


# -- stellar subdivision ------------------------------------------------------


def _pullout_point(Q: RationalPolytope, face: int) -> tuple[Fraction, ...]:
    """(1 + eps) times the centroid x of a face (a vertex bitset), eps the
    largest 1/2^k strictly below the room to the first facet not containing
    the face, so that the new point's denominators grow by a power of two
    at most.  The polytope must contain the origin.

    Facets are evaluated in integers on the centroid's cleared row: for
    each facet, nx = E D <n, x> and nb = E D b with the same E, D > 0.  As
    <n, (1 + eps) x> = (1 + eps) <n, x>, the same values sign the new point
    against each facet: it must be beyond exactly the facets containing the
    face and strictly beneath the others, which is the sign a stellar
    subdivision gives it in the rows of the facets it carries.
    """
    pts = [Q.vertices[i] for i in bit_positions(face)]
    x = tuple(sum(col, Fraction(0)) / len(pts) for col in zip(*pts))
    row = homogeneous(x)
    values = []
    bound = None
    for facet, inc in zip(Q.facets, Q.incidence):
        coeffs = facet.halfspace
        nb = -coeffs[-1] * row[-1]
        nx = sum(map(mul, coeffs, row)) + nb
        values.append((nx, nb))
        if nx > 0 and face & ~inc:
            t = Fraction(nb - nx, nx)
            bound = t if bound is None else min(bound, t)
    if bound is not None and bound <= 0:
        raise EpsilonInfeasibleError("no positive pull-out factor exists")
    # with no binding facet any positive factor keeps the point beneath them;
    # else 2^k > 1/bound for the least k, which is the bit length of floor(1/bound)
    k = 0 if bound is None else (bound.denominator // bound.numerator).bit_length()
    scale = 1 + Fraction(1, 1 << k)
    for (nx, nb), inc in zip(values, Q.incidence):
        side = scale.numerator * nx - scale.denominator * nb
        if not side or (side > 0) != (not face & ~inc):
            raise EpsilonInfeasibleError("pull-out point misclassifies a facet")
    return tuple(scale * c for c in x)


def rebuild_from_lattice(dim, vertices, labels, adm, rows, ranks,
                         carried=None) -> RationalPolytope:
    """Find every facet hyperplane of the lattice and certify the result.

    ``rows`` are the vertices' homogeneous rows and ``ranks`` the rank memo
    of the realization (see ``RationalPolytope``); both go on to the polytope.
    ``carried`` maps a tight vertex bitset to the facet a previous stage
    kept there and its sign row, both taken as they are; the other facets
    are solved, and each solve seeds the memo with the rank d of its tight
    rows.  The polytope is then certified and every face checked, as always.
    """
    vertices_below, index = adm.below(labels), adm.index
    carried = carried or {}
    facets, signs = [], []
    for Tf in adm.facets():
        tight = vertices_below(index[Tf])
        kept = carried.get(tight)
        if kept is None:
            ids = bit_positions(tight)
            facet, row = facet_through(rows, ids, label=Tf)
            row = sides(row)
            ranks.seed([rows[k] for k in ids], dim)  # the solve found a hyperplane
        else:  # its tubing lacks the tube just melted, so its label is still Tf
            facet, row = kept
        facets.append(facet)
        signs.append(row)
    poly = polytope_from_data(dim, vertices, facets, vertex_labels=tuple(labels),
                              rows=rows, ranks=ranks, signs=signs)
    lattice_match(poly, adm)
    return poly


def lattice_match(Q: RationalPolytope, adm: AdmissiblePoset) -> None:
    """Certify that Q's faces realize the admissible-tubing lattice exactly.

    For every admissible T the vertices below it must (a) be exactly the
    intersection of the tight sets of the facets above it, and (b) affinely
    span dim(T) dimensions.  Facet sets are integer bitsets taken per tube:
    the facets above T are those whose bad set misses every tube of T, one
    table OR over the tubes of T, and their intersection is the AND of their
    incidences, a vertex bitset compared with the bitset of the vertices
    below T.  A facet with exactly d vertices of rank d has linearly
    independent rows; below such a facet, (a) puts the vertices of T among
    them, so T's rank is its vertex count.  The other ranks are taken on
    Q's homogeneous rows, through Q's rank memo, as are the facets' own.
    """
    labels = Q.vertex_labels
    if labels is None or len(labels) != len(Q.vertices):
        raise MismatchError("polytope lacks vertex labels")
    vertex_set = set(adm.vertices())
    if set(labels) != vertex_set or len(labels) != len(vertex_set):
        raise MismatchError("vertex labels disagree with the lattice")
    vertices_below = adm.below(labels)
    width = len(tube_index(adm.host).tubes)
    tubes, fine = (1 << width) - 1, [0] * width  # per tube bit, the facets whose bad set misses it
    independent = 0  # the facets with linearly independent rows
    for k, (facet, inc) in enumerate(zip(Q.facets, Q.incidence)):
        i = adm.index.get(facet.label)
        if i is None:
            raise MismatchError(f"facet label {_face_name(facet.label)} is not admissible")
        for j in bit_positions(tubes & ~adm.bads[i]):
            fine[j] |= 1 << k
        if inc.bit_count() == Q.dim and Q.rank_of(inc) == Q.dim:
            independent |= 1 << k
    every_facet, every_vertex = (1 << len(Q.incidence)) - 1, (1 << len(labels)) - 1
    spoiled = union_table([every_facet & ~f for f in fine])
    for i, (T, mask, dim) in enumerate(zip(adm.elements, adm.masks, adm.dims)):
        above = every_facet & ~spoiled(mask)
        if dim < Q.dim and not above:
            raise MismatchError(f"face {_face_name(T)} lies on no facet")
        simplex = above & independent
        cut = every_vertex
        while above:
            low = above & -above
            cut &= Q.incidence[low.bit_length() - 1]
            above ^= low
        below = vertices_below(i)
        if cut != below:
            raise MismatchError(
                f"face {_face_name(T)} vertex set disagrees with facet intersection")
        rank = below.bit_count() if simplex else Q.rank_of(below)
        if rank - 1 != dim:
            raise MismatchError(f"face {_face_name(T)} has wrong dimension")


def _face_name(T) -> list:
    return sorted(t.members for t in T)


def stellar_subdivide(Q: RationalPolytope, face: int,
                      new_lattice: AdmissiblePoset) -> RationalPolytope:
    """Stellar subdivision at the face with the vertices of a bitset.

    Geometry: add (1+eps) times the face centroid, certified strictly
    beyond exactly the facets containing the face.  Combinatorics: the
    supplied (already updated) lattice gives every facet's tight set.  A
    facet not containing the face keeps its hyperplane and its vertices (a
    vertex is removed only when the face is that vertex), so it is carried
    with its sign row: its signs at the kept vertices, whose rows are kept,
    and the new vertex strictly beneath it, as ``_pullout_point`` signed it.
    It is keyed by its claimed incidence, never by its signs.
    """
    if Q.face_of(face) != face:
        raise NotAFaceError("vertex set does not span a face")
    new_point = _pullout_point(Q, face)

    new_dim0 = set(new_lattice.vertices())
    kept = [k for k, lab in enumerate(Q.vertex_labels) if lab in new_dim0]
    removed = len(Q.vertex_labels) - len(kept)
    if removed and (removed > 1 or face.bit_count() != 1):
        raise MismatchError("subdivision removed an unexpected vertex")
    fresh = new_dim0 - set(Q.vertex_labels)
    if len(fresh) != 1:
        raise MismatchError("expected exactly one new vertex label")
    # kept vertices keep their cleared rows; only the new one is cleared
    vertices = tuple(Q.vertices[k] for k in kept) + (new_point,)
    labels = tuple(Q.vertex_labels[k] for k in kept) + (next(iter(fresh)),)
    rows = tuple(Q.rows[k] for k in kept) + (homogeneous(new_point),)
    # a vertex bitset drops the removed vertex, if any, by shifting the bits
    # above it down one; the new vertex, its top bit, is beneath: 0 in both
    gone = next((k for k, old in enumerate(kept) if k != old), len(kept))
    low, old = (1 << gone) - 1, ((1 << len(Q.vertices)) - 1) & ~(1 << gone)
    drop = lambda bits: bits & low | bits >> (gone + 1) << gone
    carried = {drop(inc): (facet, (drop(on), drop(beyond)))
               for facet, inc, (on, beyond) in zip(Q.facets, Q.incidence, Q.signs)
               if face & ~inc and not inc & ~old}
    return rebuild_from_lattice(Q.dim, vertices, labels, new_lattice, rows, Q.ranks, carried)


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
    dual = rebuild_from_lattice(dual.dim, dual.vertices, labels, adm, dual.rows, dual.ranks)
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
    memo = TubingMemo()
    sequence = melt_order(system.proper_tubes())
    for tau in sequence:
        # the vertices below s_tau, off the table the stage's lattice match built
        face = adm.below(dual.vertex_labels)(adm.index[adm.s_tau(tau)])
        melted.add(tau)
        adm = admissible_tubings(P, MeltedSet.of(P, melted), memo)
        try:
            dual = stellar_subdivide(dual, face, adm)
        except MismatchError as exc:
            raise MismatchError(f"{system.stage} {tau}: {exc}") from exc
        counts.append(dual.n_vertices)
        check_bit_budget(itertools.chain.from_iterable(dual.vertices),
                         f"realization after {system.stage} {tau}")

    _check_final_lattice(P, dual, lattice)
    primal = polar_dual(dual)
    dual.ranks.clear()  # the memo served this realization's stages; the result drops it
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
        if {tube_of[i] for i in bit_positions(inc)} != strip(f.label):
            raise MismatchError("final dual incidence disagrees with membership")

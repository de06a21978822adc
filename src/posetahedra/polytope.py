"""Exact rational polytopes: paired V/H representations with certified
vertex-facet incidence, affine charts, and polar duality.

A polytope lives in working coordinates R^d (its chart dimension).  An
optional :class:`Chart` maps working coordinates into a labeled ambient
space R^A, which is how order polytopes remember their poset coordinates.
Every vertex set is one format, a vertex bitset with bit k for vertex k:
a facet's claimed incidence (``RationalPolytope.incidence``), its sign rows
and a face (``RationalPolytope.face_of``).  Certification is exact: a
facet's tight vertex set must equal its claimed incidence, and every other
vertex must be strictly beneath.  Both are read off one sign matrix,
sign(<n, v> - offset) for every facet/vertex pair, evaluated in integers on
the vertices' homogeneous rows, which each polytope clears of denominators
once (``RationalPolytope.rows``).  The matrix is kept with the polytope
(``RationalPolytope.signs``), each facet's row as two vertex bitsets
(``sides``), so that a caller who knows some of its rows already (a facet
kept by a subdivision, at vertices that kept their rows) hands them in
instead of signing again.  Facet hyperplanes and ranks are solved on the
same rows, and each rank is kept in a memo keyed by the set of rows
(``RankMemo``); a hyperplane solve has proved the rank of its rows, and its
caller records it there (``RankMemo.seed``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, reduce
from itertools import compress, count
from operator import and_, mul, not_
from typing import Iterable, Mapping, Sequence

from . import linalg
from .errors import MismatchError, NotAFaceError, OriginNotInteriorError
from .poset import bit_positions
from .rational import frac

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class Chart:
    """Affine chart u -> base + sum_k u_k basis_k into a labeled ambient space."""

    ids: tuple[int, ...]
    base: Point
    basis: tuple[Point, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_ambient(self, u: Sequence[Fraction]) -> dict[int, Fraction]:
        coords = list(self.base)
        for uk, vec in zip(u, self.basis):
            coords = [c + uk * v for c, v in zip(coords, vec)]
        return dict(zip(self.ids, coords))

    def to_chart(self, x: Mapping[int, Fraction]) -> Point:
        """Chart coordinates of an ambient point; LinAlgError when it is off the chart."""
        rhs = [frac(x[i]) - b for i, b in zip(self.ids, self.base)]
        rows = [[vec[i] for vec in self.basis] for i in range(len(self.ids))]
        return tuple(linalg.solve_unique(rows, rhs))


@dataclass(frozen=True)
class Facet:
    """Halfspace <normal, u> <= offset in working coordinates."""

    normal: Point
    offset: Fraction
    label: object = None

    def value(self, u: Point) -> Fraction:
        return sum((n * x for n, x in zip(self.normal, u)), Fraction(0))

    @cached_property
    def halfspace(self) -> tuple[int, ...]:
        """The facet cleared of its denominators (``halfspace_row``), once."""
        return halfspace_row(self.normal, self.offset)


class RankMemo(dict):
    """Ranks of sets of vertex rows, keyed by the OR of the rows' bits: each
    distinct row gets one bit (``bit``) when the memo first sees it.  Keys
    depend on rows alone, so the melting induction hands one memo on."""

    def __init__(self):
        super().__init__()
        self.bits: dict[tuple[int, ...], int] = {}

    def bit(self, row: tuple[int, ...]) -> int:
        bit = self.bits.get(row)
        if bit is None:
            bit = self.bits[row] = 1 << len(self.bits)
        return bit

    def seed(self, rows, rank: int) -> None:
        """Record the rank of the given rows, proved by the caller's own
        elimination, under the key a lookup of the same rows would use."""
        key = 0
        for row in rows:
            key |= self.bit(row)
        self[key] = rank

    def clear(self) -> None:
        super().clear()
        self.bits.clear()


@dataclass(frozen=True)
class RationalPolytope:
    dim: int
    vertices: tuple[Point, ...]
    facets: tuple[Facet, ...]
    incidence: tuple[int, ...]  # per facet, the bitset of its claimed vertices
    chart: Chart | None = None
    vertex_labels: tuple | None = None

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex v as its integer row D * (v, 1), cleared once.

        A cached property rather than a field, so that a copy made by
        ``dataclasses.replace`` clears its own vertices.
        """
        return tuple(map(linalg.homogeneous, self.vertices))

    @cached_property
    def signs(self) -> tuple[tuple[int, int], ...]:
        """The sign matrix: per facet, the :func:`sides` of its
        :func:`side_signs` on ``rows``.

        A cached property, so that a ``dataclasses.replace`` copy signs its
        own facets and vertices; ``polytope_from_data`` fills it with the
        matrix it certified.
        """
        return tuple(sides(_signs(f.halfspace, self.rows)) for f in self.facets)

    @cached_property
    def ranks(self) -> RankMemo:
        """Memo of ``rank``; a ``dataclasses.replace`` copy starts an empty one."""
        return RankMemo()

    @cached_property
    def _rank_key(self):
        """The map from a vertex bitset to its rank memo key."""
        return union_table(tuple(map(self.ranks.bit, self.rows)))

    def rank_of(self, vertices: int) -> int:
        """Rank of the rows of the vertices in a bitset."""
        key = self._rank_key(vertices)
        rank = self.ranks.get(key)
        if rank is None:
            rank = self.ranks[key] = linalg.integer_rank(
                [self.rows[k] for k in bit_positions(vertices)])
        return rank

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    def centroid(self) -> Point:
        n = len(self.vertices)
        return tuple(sum(col, Fraction(0)) / n for col in zip(*self.vertices))

    def translated(self, shift: Point) -> "RationalPolytope":
        verts = tuple(tuple(x + s for x, s in zip(v, shift)) for v in self.vertices)
        facets = tuple(
            Facet(f.normal, f.offset + f.value(shift), f.label) for f in self.facets
        )
        return replace(self, vertices=verts, facets=facets, chart=None)

    def face_of(self, vertices: int) -> int:
        """Vertex bitset of the smallest face containing the vertices of a bitset.

        Raises NotAFaceError when that face is the whole polytope (no facet
        contains all the given vertices).
        """
        containing = [inc for inc in self.incidence if not vertices & ~inc]
        if not containing:
            raise NotAFaceError("vertex set is not on any facet")
        return reduce(and_, containing)

    def certify(self) -> None:
        """Exact V/H/incidence consistency on the sign matrix (``signs``);
        raises MismatchError on failure."""
        for k, v in enumerate(self.vertices):
            if len(v) != self.dim:
                raise MismatchError(f"vertex {k} has {len(v)} coordinates, not {self.dim}")
        for facet in self.facets:
            if len(facet.normal) != self.dim:
                raise MismatchError(f"facet {facet.label} normal has {len(facet.normal)} "
                                    f"coordinates, not {self.dim}")
        rows = self.rows  # canonical: equal rows are equal vertices
        if len(set(rows)) != len(rows):
            raise MismatchError("duplicate vertices")
        if rows and self.rank_of((1 << len(rows)) - 1) - 1 != self.dim:
            raise MismatchError("polytope is not full-dimensional in its chart")
        for facet, claimed, (on, beyond) in zip(self.facets, self.incidence, self.signs):
            if beyond:
                raise MismatchError(
                    f"vertex {(beyond & -beyond).bit_length() - 1} beyond facet {facet.label}")
            if on != claimed:
                raise MismatchError(f"incidence mismatch on facet {facet.label}")
            if self.dim >= 1 and self.rank_of(on) - 1 != self.dim - 1:
                raise MismatchError(f"facet {facet.label} tight set has wrong rank")


def sides(signs) -> tuple[int, int]:
    """A sign row as two bitsets of positions: its zeros, and its ones."""
    return (sum(1 << k for k in compress(count(), map(not_, signs))),
            sum(1 << k for k in compress(count(), map((1).__eq__, signs))))


def union_table(sets: Sequence[int]):
    """The map x -> OR of sets[j] over the set bits j of x >= 0: one table
    lookup per eight bits of x, from tables of 2^8 ORs per eight sets."""
    tables = []
    for base in range(0, len(sets), 8):
        table = [0]
        for s in sets[base:base + 8]:
            table += [t | s for t in table]
        tables.append(table)

    def union(x: int) -> int:
        out = 0
        for table in tables:
            out |= table[x & 255]
            x >>= 8
        return out
    return union


def halfspace_row(normal, offset) -> tuple[int, ...]:
    """The halfspace <n, v> <= b cleared of its denominators to (E n, -E b), E > 0.

    Its dot product with a homogeneous row D * (v, 1) is E D (<n, v> - b).
    """
    *coeffs, offset, _ = linalg.homogeneous((*normal, offset))
    return (*coeffs, -offset)


def side_signs(normal, offset, rows) -> list[int]:
    """sign(<normal, v> - offset) for every point v, in integers.

    ``rows`` holds each point as its homogeneous row D * (v, 1); its dot
    product with the cleared halfspace (``halfspace_row``) is
    E D (<n, v> - b), and E, D > 0 keep the sign.
    """
    return _signs(halfspace_row(normal, offset), rows)


def _signs(coeffs, rows) -> list[int]:
    """The signs of the dot products of a cleared halfspace with the rows."""
    return [(val > 0) - (val < 0) for val in [sum(map(mul, coeffs, row)) for row in rows]]


def polytope_from_data(dim, vertices, facets, chart=None, vertex_labels=None,
                       rows=None, ranks=None, signs=None) -> RationalPolytope:
    """Assemble a polytope, computing incidence by exact evaluation.

    ``rows``, when the caller has them, are the vertices' homogeneous rows
    (``RationalPolytope.rows``) and are not cleared again; ``ranks`` is a
    rank memo to carry on (``RationalPolytope.ranks``).  ``signs`` may give
    facets' rows of the sign matrix, as :func:`sides`; the rows given as
    None are evaluated.
    """
    vertices = tuple(tuple(frac(x) for x in v) for v in vertices)
    facets = tuple(facets)
    rows = tuple(map(linalg.homogeneous, vertices)) if rows is None else tuple(rows)
    signs = tuple(sides(_signs(f.halfspace, rows)) if row is None else row
                  for f, row in zip(facets, signs or [None] * len(facets)))
    poly = RationalPolytope(
        dim=dim, vertices=vertices, facets=facets, incidence=tuple(on for on, _ in signs),
        chart=chart, vertex_labels=vertex_labels,
    )
    # fill the cached properties: these are its rows and its sign matrix
    poly.__dict__.update(rows=rows, signs=signs)
    if ranks is not None:
        poly.__dict__["ranks"] = ranks
    poly.certify()
    return poly


def order_chart_polytope(dim, ambient, constraints, covers, labels) -> RationalPolytope:
    """An order polytope from its ambient vertices, in a chart of their plane.

    ``ambient`` holds each vertex as a dict over the ambient ids, in one key
    order; the vertices span the plane {constraints . x = const}, charted at
    their centroid on the ``nullspace`` basis of ``constraints``.  Each cover
    (i, j, gap, label) is the facet x_i <= x_j + gap.  In dimension 0 only
    the first vertex and label are kept.
    """
    ids = tuple(ambient[0])
    base = tuple(sum((v[i] for v in ambient), Fraction(0)) / len(ambient) for i in ids)
    basis = tuple(map(tuple, linalg.nullspace(constraints, len(ids))))
    chart = Chart(ids=ids, base=base, basis=basis)
    vertices = [chart.to_chart(v) for v in ambient]
    if dim == 0:
        return polytope_from_data(0, vertices[:1], (), chart, vertex_labels=labels[:1])
    at = {i: k for k, i in enumerate(ids)}
    facets = [
        # x_i - x_j <= gap becomes <B^T(e_i - e_j), u> <= gap + base_j - base_i
        Facet(tuple(vec[at[i]] - vec[at[j]] for vec in basis),
              gap + base[at[j]] - base[at[i]], label=label)
        for i, j, gap, label in covers
    ]
    return polytope_from_data(dim, vertices, facets, chart, vertex_labels=labels)


def polar_dual(Q: RationalPolytope) -> RationalPolytope:
    """Polar dual after translating the vertex centroid to the origin.

    Dual vertex k is facet k's normal scaled to offset 1; dual facet i is
    <v_i, y> <= 1 for primal vertex i.  Incidence transposes, and labels
    ride along with their faces.
    """
    if Q.dim == 0:
        return RationalPolytope(0, ((),), (), (), None, Q.vertex_labels)
    centered = Q.translated(tuple(-c for c in Q.centroid()))
    for f in centered.facets:
        if f.offset <= 0:
            raise OriginNotInteriorError("centroid translation left origin outside")
    dual_vertices = tuple(
        tuple(n / f.offset for n in f.normal) for f in centered.facets
    )
    dual_facets = tuple(
        Facet(v, Fraction(1), label=(Q.vertex_labels[i] if Q.vertex_labels else None))
        for i, v in enumerate(centered.vertices)
    )
    labels = tuple(f.label for f in Q.facets)
    dual = polytope_from_data(Q.dim, dual_vertices, dual_facets, vertex_labels=labels)
    # transposed incidence must come out of the exact evaluation
    for k, inc in enumerate(dual.incidence):
        if inc != sum(1 << j for j, row in enumerate(Q.incidence) if row >> k & 1):
            raise MismatchError("polar incidence did not transpose")
    return dual


def facet_through(rows: Sequence[list[int]], tight_ids: Iterable[int],
                  label=None) -> tuple[Facet, list[int]]:
    """The supporting hyperplane spanned by the tight vertices, and its sign row.

    ``rows`` holds every vertex as its homogeneous row (``RationalPolytope.rows``).
    The hyperplane is solved in integers and scaled to coprime integer
    entries, with the normal oriented so all remaining vertices are
    strictly beneath, whose :func:`side_signs` row is returned too.  Raises
    MismatchError when the tight set is not a facet's vertex set.
    """
    tight = set(tight_ids)
    plane = linalg.hyperplane_through([rows[i] for i in sorted(tight)])
    if plane is None:
        raise MismatchError("claimed facet vertices do not span a hyperplane")
    normal, offset = plane
    row = side_signs(normal, offset, rows)
    others = [s for i, s in enumerate(row) if i not in tight]
    signs = set(others) - {0}
    if signs == {1, -1} or not others:
        raise MismatchError("claimed facet does not support the polytope")
    if 1 in signs:
        normal = [-n for n in normal]
        offset = -offset
        row = [-s for s in row]
    return Facet(tuple(map(Fraction, normal)), Fraction(offset), label=label), row

"""Exact rational polytopes: paired V/H representations with certified
vertex-facet incidence, affine charts, and polar duality.

A polytope lives in working coordinates R^d (its chart dimension).  An
optional :class:`Chart` maps working coordinates into a labeled ambient
space R^A, which is how order polytopes remember their poset coordinates.
Certification is exact: a facet's tight vertex set must match its claimed
incidence row, and every other vertex must be strictly beneath.  Both are
read off one sign matrix, sign(<n, v> - offset) for every facet/vertex
pair, evaluated in integers on the vertices' homogeneous rows, which each
polytope clears of denominators once (``RationalPolytope.rows``).  Facet
hyperplanes and ranks are solved on the same rows, and each rank is kept
in a memo keyed by the rows themselves (``RationalPolytope.rank``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Mapping, Sequence

from . import linalg
from .errors import MismatchError, NotAFaceError, OriginNotInteriorError
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


@dataclass(frozen=True)
class RationalPolytope:
    dim: int
    vertices: tuple[Point, ...]
    facets: tuple[Facet, ...]
    incidence: tuple[frozenset[int], ...]
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
    def ranks(self) -> dict[tuple, int]:
        """Memo of ``rank``: each tuple of vertex rows to its integer rank.

        Keyed by the rows themselves, never by vertex index or label, so
        the melting induction can hand one memo from stage to stage, where
        kept vertices keep their rows.  A ``dataclasses.replace`` copy
        starts an empty one.
        """
        return {}

    def rank(self, ids) -> int:
        """Rank of the rows of the given vertices, taken in the given order."""
        key = tuple(map(self.rows.__getitem__, ids))
        rank = self.ranks.get(key)
        if rank is None:
            rank = self.ranks[key] = linalg.integer_rank(key)
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

    def face_from_vertices(self, vertex_ids: Iterable[int]) -> frozenset[int]:
        """Vertex set of the smallest face containing the given vertices.

        Raises NotAFaceError when that face is the whole polytope (no facet
        contains all the given vertices).
        """
        wanted = frozenset(vertex_ids)
        containing = [inc for inc in self.incidence if wanted <= inc]
        if not containing:
            raise NotAFaceError("vertex set is not on any facet")
        face = frozenset(range(len(self.vertices)))
        for inc in containing:
            face &= inc
        return face

    def certify(self, signs=None) -> None:
        """Exact V/H/incidence consistency; raises MismatchError on failure.

        ``signs`` is the sign matrix, :func:`side_signs` for every facet in
        order, when the caller has already evaluated it; without it the
        matrix is evaluated here.
        """
        if len(set(self.vertices)) != len(self.vertices):
            raise MismatchError("duplicate vertices")
        rows = self.rows
        if rows and self.rank(range(len(rows))) - 1 != self.dim:
            raise MismatchError("polytope is not full-dimensional in its chart")
        if signs is None:
            signs = [side_signs(f.normal, f.offset, rows) for f in self.facets]
        for facet, claimed, row in zip(self.facets, self.incidence, signs):
            for i, s in enumerate(row):
                if s > 0:
                    raise MismatchError(f"vertex {i} beyond facet {facet.label}")
                if (s == 0) != (i in claimed):
                    raise MismatchError(f"incidence mismatch on facet {facet.label}")
            if self.dim >= 1 and self.rank(sorted(claimed)) - 1 != self.dim - 1:
                raise MismatchError(f"facet {facet.label} tight set has wrong rank")


def halfspace_row(normal, offset) -> list[int]:
    """The halfspace <n, v> <= b cleared of its denominators to (E n, -E b), E > 0.

    Its dot product with a homogeneous row D * (v, 1) is E D (<n, v> - b).
    """
    *coeffs, offset, _ = linalg.homogeneous((*normal, offset))
    coeffs.append(-offset)
    return coeffs


def side_signs(normal, offset, rows) -> list[int]:
    """sign(<normal, v> - offset) for every point v, in integers.

    ``rows`` holds each point as its homogeneous row D * (v, 1); its dot
    product with the cleared halfspace (``halfspace_row``) is
    E D (<n, v> - b), and E, D > 0 keep the sign.
    """
    coeffs = halfspace_row(normal, offset)
    out = []
    for row in rows:
        val = sum(map(mul, coeffs, row))
        out.append((val > 0) - (val < 0))
    return out


def polytope_from_data(dim, vertices, facets, chart=None, vertex_labels=None,
                       rows=None, ranks=None) -> RationalPolytope:
    """Assemble a polytope, computing incidence by exact evaluation.

    ``rows``, when the caller has them, are the vertices' homogeneous rows
    (``RationalPolytope.rows``) and are not cleared again; ``ranks`` is a
    rank memo to carry on (``RationalPolytope.ranks``).
    """
    vertices = tuple(tuple(frac(x) for x in v) for v in vertices)
    facets = tuple(facets)
    rows = tuple(map(linalg.homogeneous, vertices)) if rows is None else tuple(rows)
    signs = [side_signs(f.normal, f.offset, rows) for f in facets]
    incidence = tuple(frozenset(i for i, s in enumerate(row) if s == 0) for row in signs)
    poly = RationalPolytope(
        dim=dim, vertices=vertices, facets=facets, incidence=incidence,
        chart=chart, vertex_labels=vertex_labels,
    )
    poly.__dict__["rows"] = rows  # fill the cached properties: these are its rows
    if ranks is not None:
        poly.__dict__["ranks"] = ranks
    poly.certify(signs)
    return poly


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
        expected = frozenset(j for j, row in enumerate(Q.incidence) if k in row)
        if inc != expected:
            raise MismatchError("polar incidence did not transpose")
    return dual


def facet_through(rows: Sequence[list[int]], tight_ids: Iterable[int],
                  label=None) -> Facet:
    """The supporting hyperplane spanned by the tight vertices.

    ``rows`` holds every vertex as its homogeneous row (``RationalPolytope.rows``).
    The hyperplane is solved in integers and scaled to coprime integer
    entries, with the normal oriented so all remaining vertices are
    strictly beneath; raises MismatchError when the tight set is not a
    facet's vertex set.
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
    return Facet(tuple(map(Fraction, normal)), Fraction(offset), label=label)

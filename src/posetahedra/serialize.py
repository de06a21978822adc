"""JSON wire formats and the OFF export.

Rationals are serialized as "p/q" strings with positive denominator and
coprime parts, so every export round-trips exactly.  The shipped schemas
are enforced on both import and export.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal, localcontext
from fractions import Fraction

from .affine import AffinePoset, build_affine_poset
from .compact import ConfigPoint
from .errors import SchemaError
from .polytope import Facet, RationalPolytope, polytope_from_data
from .poset import Poset, bit_positions, build_poset
from .rational import format_rational, parse_rational
from .tubes import Tube, Tubing

POSET_SCHEMA = {
    "type": "object",
    "properties": {
        "covers": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer"},
                "minItems": 2,
                "maxItems": 2,
            },
        }
    },
    "required": ["covers"],
    "additionalProperties": False,
}

AFFINE_POSET_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "covers": POSET_SCHEMA["properties"]["covers"],
    },
    "required": ["n", "covers"],
    "additionalProperties": False,
}

RATIONAL = {"type": "string", "pattern": "^-?[0-9]+/[1-9][0-9]*$"}
TUBE_SCHEMA = {"type": "array", "items": {"type": "integer"}}
TUBING_SCHEMA = {"type": "array", "items": TUBE_SCHEMA}

POLYTOPE_SCHEMA = {
    "type": "object",
    "properties": {
        "chart_dim": {"type": "integer", "minimum": 0},
        "vertices": {
            "type": "array",
            "items": {"type": "array", "items": RATIONAL},
        },
        "facets": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "normal": {"type": "array", "items": RATIONAL},
                    "offset": RATIONAL,
                    "tube": TUBE_SCHEMA,
                },
                "required": ["normal", "offset"],
            },
        },
        "vertex_labels": {"type": "array", "items": TUBING_SCHEMA},
    },
    "required": ["chart_dim", "vertices", "facets"],
}

CONFIG_POINT_SCHEMA = {
    "type": "object",
    "properties": {
        "tubes": {
            "type": "object",
            "patternProperties": {
                "^-?[0-9]+(,-?[0-9]+)*$": {"type": "array", "items": RATIONAL}
            },
            "additionalProperties": False,
        }
    },
    "required": ["tubes"],
    "additionalProperties": False,
}


SCHEMAS = {"poset": POSET_SCHEMA, "affine poset": AFFINE_POSET_SCHEMA,
           "polytope": POLYTOPE_SCHEMA, "configuration point": CONFIG_POINT_SCHEMA,
           "tube": TUBE_SCHEMA, "tubing": TUBING_SCHEMA}


KEYWORDS = frozenset({"type", "properties", "required", "additionalProperties",
                      "patternProperties", "items", "minItems", "maxItems", "minimum", "pattern"})
TYPES = {"object": dict, "array": list, "string": str, "integer": (int, float)}


def _compile(schema: dict):
    """A check ``(instance, path)`` that raises SchemaError where ``schema``, read
    with the Draft 2020-12 meaning of ``KEYWORDS``, fails.  Any other keyword, type
    or ``additionalProperties`` value is refused here, once, so none is ignored."""
    kind = schema.get("type")
    if set(schema) - KEYWORDS or schema.get("additionalProperties") not in (None, False) \
            or kind not in (None, *TYPES):
        raise ValueError(f"schema keywords or values not handled: {schema}")
    required, closed = schema.get("required", ()), "additionalProperties" in schema
    props = {key: _compile(sub) for key, sub in schema.get("properties", {}).items()}
    patterns = [(re.compile(p), _compile(sub))
                for p, sub in schema.get("patternProperties", {}).items()]
    items = _compile(schema["items"]) if "items" in schema else None
    least, most = schema.get("minItems", 0), schema.get("maxItems", float("inf"))
    minimum = schema.get("minimum", float("-inf"))
    pattern = re.compile(schema.get("pattern", ""))

    def check(x, path: str) -> None:
        # a tuple is no array; 1.0 is an integer, True is not (bool and float pass
        # the isinstance test only for "integer")
        if kind and (not isinstance(x, TYPES[kind]) or isinstance(x, bool)
                     or isinstance(x, float) and not x.is_integer()):
            raise SchemaError(f"{path}: {x!r} is not of type {kind!r}")
        if isinstance(x, dict):
            for key in required:
                if key not in x:
                    raise SchemaError(f"{path}: {key!r} is a required property")
            for key, value in x.items():
                subs = [sub for rx, sub in patterns if rx.search(key)]
                if key in props:
                    subs.append(props[key])
                elif closed and not subs:
                    raise SchemaError(f"{path}: Additional properties are not allowed "
                                      f"({key!r} was unexpected)")
                for sub in subs:
                    sub(value, f"{path}.{key}")
        elif isinstance(x, list):
            if not least <= len(x) <= most:
                raise SchemaError(f"{path}: {x!r} is too {'short' if len(x) < least else 'long'}")
            for i, value in enumerate(x if items else ()):
                items(value, f"{path}[{i}]")
        elif isinstance(x, str) and not pattern.search(x):
            raise SchemaError(f"{path}: {x!r} does not match {pattern.pattern!r}")
        elif isinstance(x, (int, float)) and not isinstance(x, bool) and x < minimum:
            raise SchemaError(f"{path}: {x!r} is less than the minimum of {minimum!r}")

    return check


_CHECKS = {name: _compile(schema) for name, schema in SCHEMAS.items()}


def _validate(data, name: str) -> None:
    """Raise SchemaError, naming the JSON path, unless ``data`` fits the named schema."""
    _CHECKS[name](data, "$")


def poset_to_json(P: Poset) -> dict:
    return {"covers": [list(c) for c in P.covers]}


def poset_from_json(data) -> Poset:
    _validate(data, "poset")
    return build_poset([tuple(c) for c in data["covers"]])


def affine_poset_to_json(A: AffinePoset) -> dict:
    return {"n": A.n, "covers": [list(c) for c in A.gen_covers]}


def affine_poset_from_json(data) -> AffinePoset:
    _validate(data, "affine poset")
    return build_affine_poset(data["n"], [tuple(c) for c in data["covers"]])


def tube_from_json(data) -> Tube:
    _validate(data, "tube")
    return Tube.of(data)


def tubing_from_json(P: Poset, data) -> Tubing:
    _validate(data, "tubing")
    return Tubing.of(P, [Tube.of(t) for t in data])


class JsonLabel(tuple):
    """A label read back from JSON: the member tuples of the proper tubes
    it was exported with."""


def _proper_tubes(label) -> list[list[int]]:
    """The proper tubes of an admissible-tubing label, sorted.

    Dropping the ambient tube (the whole poset, or the full-line marker) and
    the singletons leaves them.  A label that is no family of tubes (None,
    an order-polytope facet's cover pair, a vertex's ideal-filter split)
    has none.  A ``JsonLabel`` gives back the tubes it was read with.
    """
    if isinstance(label, JsonLabel):
        return [list(t) for t in label]
    tubes = [t for t in label or () if not getattr(t, "is_full", False)]
    if not tubes or not all(hasattr(t, "members") for t in tubes):
        return []
    ground = set().union(*(t.members for t in tubes))
    ambient = None if any(getattr(t, "is_full", False) for t in label) else tuple(sorted(ground))
    return sorted(list(t.members) for t in tubes if len(t.members) > 1 and t.members != ambient)


def _facet_json(f) -> dict:
    out = {"normal": [format_rational(x) for x in f.normal], "offset": format_rational(f.offset)}
    tubes = _proper_tubes(f.label)
    if len(tubes) == 1:  # a realized polytope's facet is labeled by one proper tube
        out["tube"] = tubes[0]
    return out


def polytope_to_json(Q: RationalPolytope) -> dict:
    out = {
        "chart_dim": Q.dim,
        "vertices": [[format_rational(x) for x in v] for v in Q.vertices],
        "facets": [_facet_json(f) for f in Q.facets],
    }
    if Q.vertex_labels is not None:
        out["vertex_labels"] = [_proper_tubes(lab) for lab in Q.vertex_labels]
    _validate(out, "polytope")
    return out


def polytope_from_json(data) -> RationalPolytope:
    """Rebuild vertices/facets exactly; incidence is recomputed and certified.

    Facet tubes and vertex labels come back as ``JsonLabel``s, so that
    exporting an imported export gives it back.
    """
    _validate(data, "polytope")
    vertices = [tuple(parse_rational(x) for x in v) for v in data["vertices"]]
    facets = [
        Facet(
            tuple(parse_rational(x) for x in f["normal"]),
            parse_rational(f["offset"]),
            label=JsonLabel([tuple(f["tube"])]) if "tube" in f else None,
        )
        for f in data["facets"]
    ]
    labels = data.get("vertex_labels")
    if labels is not None:
        if len(labels) != len(vertices):
            raise ValueError(f"{len(labels)} vertex labels for {len(vertices)} vertices")
        labels = tuple(JsonLabel(map(tuple, label)) for label in labels)
    return polytope_from_data(data["chart_dim"], vertices, facets, vertex_labels=labels)


def config_point_to_json(c: ConfigPoint) -> dict:
    tubes = {}
    for tube in sorted(c.components, key=lambda t: t.members):
        vec = c.components[tube]
        key = ",".join(str(i) for i in tube.members)
        tubes[key] = [format_rational(vec[i]) for i in tube.members]
    out = {"tubes": tubes}
    _validate(out, "configuration point")
    return out


def config_point_from_json(P: Poset, data) -> ConfigPoint:
    _validate(data, "configuration point")
    comps = {}
    for key, values in data["tubes"].items():
        members = tuple(int(x) for x in key.split(","))
        comps[Tube.of(members)] = {
            i: parse_rational(v) for i, v in zip(members, values)
        }
    point = ConfigPoint(P, comps)
    point.validate()
    return point


def ratio_report_to_json(report) -> dict:
    def curve_json(curve):
        return {
            "target": "inf" if curve.target is None else format_rational(curve.target),
            "samples": [
                {
                    "t": format_rational(t),
                    "x": {str(i): format_rational(v) for i, v in sorted(x.items())},
                    "ratio": format_rational(r),
                }
                for t, x, r in curve.samples
            ],
        }

    return {
        "poset": poset_to_json(report.host),
        "curves": [curve_json(c) for c in report.curves],
        "limit": config_point_to_json(report.limit),
        "pair_deviation": [[format_rational(t), format_rational(d)] for t, d in report.pair_deviation],
        "limit_deviation": [[format_rational(t), format_rational(d)] for t, d in report.limit_deviation],
        "ratio_gap": [[format_rational(t), format_rational(g)] for t, g in report.ratio_gap],
    }


def polytope_to_off(Q: RationalPolytope, precision: int = 12) -> str:
    """OFF export with decimal approximations (flagged approximate).

    Only 2- and 3-dimensional polytopes have a standard OFF rendering; 3d
    facet vertex cycles are ordered by angle inside each facet plane using
    float projections, which only affects the (approximate) output order.
    """
    if Q.dim not in (2, 3):
        raise ValueError("OFF export supports dimensions 2 and 3 only")

    def fmt(x: Fraction) -> str:
        q = Decimal(x.numerator) / Decimal(x.denominator)
        return f"{q:.{precision}f}"

    verts3 = [tuple(v) + (Fraction(0),) * (3 - Q.dim) for v in Q.vertices]
    if Q.dim == 2:
        faces = [_cycle2d(Q)]
    else:
        faces = [_cycle3d(Q, k) for k in range(len(Q.facets))]
    lines = [
        "OFF",
        f"# approximate coordinates ({precision} decimal digits); "
        "exact data lives in the JSON export",
        f"{len(verts3)} {len(faces)} 0",
    ]
    with localcontext() as context:  # the caller's context is left as it was
        context.prec = precision + 10
        lines += [" ".join(fmt(x) for x in v) for v in verts3]
    lines += [str(len(f)) + " " + " ".join(map(str, f)) for f in faces]
    return "\n".join(lines) + "\n"


def _cycle2d(Q: RationalPolytope) -> list[int]:
    import math

    cx = [float(sum(v[k] for v in Q.vertices)) / len(Q.vertices) for k in range(2)]
    order = sorted(
        range(len(Q.vertices)),
        key=lambda i: math.atan2(float(Q.vertices[i][1]) - cx[1], float(Q.vertices[i][0]) - cx[0]),
    )
    return order


def _cycle3d(Q: RationalPolytope, k: int) -> list[int]:
    import math

    ids = bit_positions(Q.incidence[k])
    pts = [tuple(map(float, Q.vertices[i])) for i in ids]
    cx = [sum(p[a] for p in pts) / len(pts) for a in range(3)]
    normal = tuple(map(float, Q.facets[k].normal))
    # build a 2d frame inside the facet plane
    axis = min(range(3), key=lambda a: abs(normal[a]))
    e1 = [0.0, 0.0, 0.0]
    e1[axis] = 1.0
    u = _cross(normal, e1)
    v = _cross(normal, u)
    angles = []
    for i, p in zip(ids, pts):
        rel = [p[a] - cx[a] for a in range(3)]
        angles.append((math.atan2(_dot(rel, v), _dot(rel, u)), i))
    return [i for _, i in sorted(angles)]


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"

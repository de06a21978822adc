"""Command-line front end.

Exit codes: 0 success, 1 input/validation error, 2 internal certification
failure.  All output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .affine import cyclohedron_face_lattice, enumerate_affine_tubes, realize_affine_cyclohedron
from .compact import (
    collapse,
    expand,
    ratio_counterexample_demo,
    stratum_point,
    tubing_of,
)
from .errors import MismatchError, PosetahedraError, ValidationError
from .geometry import realize_poset_associahedron
from .lattice import EMPTY, associahedron_face_lattice, f_vector, h_vector, is_flag_dual
from .rational import format_rational, parse_rational
from .tubes import enumerate_proper_tubings, enumerate_tubes
from .verification import run_all


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(data, out: str | None) -> None:
    text = serialize.dumps(data) if not isinstance(data, str) else data
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_poset(path: str):
    return serialize.poset_from_json(_read_json(path))


def _load_affine(path: str):
    return serialize.affine_poset_from_json(_read_json(path))


def cmd_poset_validate(args) -> int:
    P = _load_poset(args.file)
    _emit({"elements": list(P.elements), "covers": [list(c) for c in P.covers]}, None)
    return 0


def cmd_tubes(args) -> int:
    P = _load_poset(args.file)
    if args.max_tubings:
        tubings = enumerate_proper_tubings(P, max_only=True)
        _emit([[list(t.members) for t in T] for T in tubings], None)
    else:
        tubes = enumerate_tubes(P, proper_only=args.proper)
        _emit([list(t.members) for t in tubes], None)
    return 0


def _lattice_faces_json(L) -> list:
    out = []
    for key, dim in zip(L.faces, L.dims):
        if key is EMPTY:
            out.append({"dim": dim, "empty": True})
        else:
            out.append({"dim": dim, "tubes": sorted(list(t.members) for t in key)})
    return out


def cmd_faces(args) -> int:
    host = args.load(args.file)
    if args.fvector:
        print(" ".join(map(str, f_vector(args.lattice(host)))))
    elif args.hvector:
        print(" ".join(map(str, h_vector(args.lattice(host)))))
    elif args.flag_check:  # reads the tubing walk alone, not the face lattice
        check = is_flag_dual(host)
        _emit({"flag": check.ok,
               "witness": None if check.witness is None
               else [list(t.members) for t in check.witness]}, None)
    else:
        L = args.lattice(host)
        _emit({"dim": L.dim, "faces": _lattice_faces_json(L), **args.extra(host)}, None)
    return 0


def _faces_parser(parser, load, lattice, extra) -> None:
    """``extra(host)`` adds keys to the face-lattice JSON."""
    parser.add_argument("file")
    parser.add_argument("--fvector", action="store_true")
    parser.add_argument("--hvector", action="store_true")
    parser.set_defaults(fn=cmd_faces, load=load, lattice=lattice, extra=extra, flag_check=False)


def cmd_realize(args) -> int:
    polytope = args.realize(args.load(args.file)).primal
    if args.format == "off":
        _emit(serialize.polytope_to_off(polytope, precision=args.precision), args.out)
    else:
        _emit(serialize.polytope_to_json(polytope), args.out)
    return 0


def _realize_parser(parser, load, realize) -> None:
    parser.add_argument("file")
    parser.add_argument("--out", default="-")
    parser.add_argument("--format", choices=("json", "off"), default="json")
    parser.add_argument("--precision", type=int, default=12)
    parser.set_defaults(fn=cmd_realize, load=load, realize=realize)


def cmd_compact_synthesize(args) -> int:
    P = _load_poset(args.file)
    tubing = serialize.tubing_from_json(P, json.loads(args.tubing))
    point = stratum_point(P, tubing)
    _emit(serialize.config_point_to_json(point), args.out)
    return 0


def cmd_compact_verify(args) -> int:
    P = _load_poset(args.poset)
    point = serialize.config_point_from_json(P, _read_json(args.file))
    T = tubing_of(point)
    _emit({"coherent": True,
           "tubing": sorted(list(t.members) for t in T.tubes)}, None)
    return 0


def cmd_compact_expand(args) -> int:
    P = _load_poset(args.poset)
    point = serialize.config_point_from_json(P, _read_json(args.file))
    moved = expand(point, serialize.tube_from_json(json.loads(args.tube)),
                   serialize.tube_from_json(json.loads(args.parent)), parse_rational(args.t))
    _emit(serialize.config_point_to_json(moved), args.out)
    return 0


def cmd_compact_collapse(args) -> int:
    P = _load_poset(args.poset)
    point = serialize.config_point_from_json(P, _read_json(args.file))
    merged, t = collapse(point, serialize.tube_from_json(json.loads(args.tube)),
                         serialize.tube_from_json(json.loads(args.parent)))
    payload = serialize.config_point_to_json(merged)
    payload["t"] = format_rational(t)
    _emit(payload, args.out)
    return 0


def cmd_compact_demo_ratios(args) -> int:
    targets = tuple(x.strip() for x in args.targets.split(","))
    report = ratio_counterexample_demo(targets=targets)
    _emit(serialize.ratio_report_to_json(report), args.out)
    return 0


def cmd_verify_all(args) -> int:
    results = run_all()
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetahedra",
        description="Exact poset associahedra, affine cyclohedra, and "
                    "configuration-space compactifications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poset", help="poset utilities")
    psub = p.add_subparsers(dest="sub", required=True)
    v = psub.add_parser("validate", help="validate a poset JSON file")
    v.add_argument("file")
    v.set_defaults(fn=cmd_poset_validate)

    t = sub.add_parser("tubes", help="enumerate tubes or maximal tubings")
    t.add_argument("file")
    t.add_argument("--proper", action="store_true")
    t.add_argument("--max-tubings", action="store_true")
    t.set_defaults(fn=cmd_tubes)

    a = sub.add_parser("assoc", help="poset associahedron")
    asub = a.add_subparsers(dest="sub", required=True)
    af = asub.add_parser("faces", help="face lattice and statistics")
    _faces_parser(af, _load_poset, associahedron_face_lattice, lambda P: {})
    af.add_argument("--flag-check", dest="flag_check", action="store_true")
    _realize_parser(asub.add_parser("realize", help="certified rational realization"),
                    _load_poset, realize_poset_associahedron)

    c = sub.add_parser("cyclo", help="affine poset cyclohedron")
    csub = c.add_subparsers(dest="sub", required=True)
    _faces_parser(csub.add_parser("faces"), _load_affine, cyclohedron_face_lattice,
                  lambda A: {"classes": [list(t.members) for t in enumerate_affine_tubes(A)]})
    _realize_parser(csub.add_parser("realize"), _load_affine, realize_affine_cyclohedron)

    k = sub.add_parser("compact", help="compactified configuration spaces")
    ksub = k.add_subparsers(dest="sub", required=True)
    ks = ksub.add_parser("synthesize", help="canonical point of a stratum")
    ks.add_argument("file")
    ks.add_argument("--tubing", required=True, help="JSON list of tubes")
    ks.add_argument("--out", default="-")
    ks.set_defaults(fn=cmd_compact_synthesize)
    kv = ksub.add_parser("verify", help="check coherence and report the stratum")
    kv.add_argument("file")
    kv.add_argument("--poset", required=True)
    kv.set_defaults(fn=cmd_compact_verify)
    ke = ksub.add_parser("expand")
    ke.add_argument("file")
    ke.add_argument("--poset", required=True)
    ke.add_argument("--tube", required=True)
    ke.add_argument("--parent", required=True)
    ke.add_argument("--t", required=True)
    ke.add_argument("--out", default="-")
    ke.set_defaults(fn=cmd_compact_expand)
    kc = ksub.add_parser("collapse")
    kc.add_argument("file")
    kc.add_argument("--poset", required=True)
    kc.add_argument("--tube", required=True)
    kc.add_argument("--parent", required=True)
    kc.add_argument("--out", default="-")
    kc.set_defaults(fn=cmd_compact_collapse)
    kd = ksub.add_parser("demo-ratios")
    kd.add_argument("--targets", default="0,1")
    kd.add_argument("--out", default="-")
    kd.set_defaults(fn=cmd_compact_demo_ratios)

    va = sub.add_parser("verify-all", help="run the acceptance suite")
    va.set_defaults(fn=cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MismatchError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, PosetahedraError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

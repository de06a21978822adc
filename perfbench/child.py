"""One pass of a workload in a fresh interpreter.

Every pass starts here so that the library's per-poset caches start empty,
as they do for each command-line call.  The result is one JSON line on
standard output; ``run.py`` starts this script and reads it.

    python3 perfbench/child.py WORKLOAD --seed N --pass-id I --spawned-at T
        [--setup-only | --trace FILE | --self-test]

``--spawned-at`` is the parent's ``time.monotonic()`` just before the
start; CLOCK_MONOTONIC is system-wide, so set-up time covers interpreter
start, imports and input generation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_library():
    sys.path.insert(0, str(SRC))
    import posetahedra

    location = Path(posetahedra.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"posetahedra was imported from {location}, not from {SRC}")
    return posetahedra


def self_test() -> dict:
    """Feed the faces check one wrong reference and see it counted."""
    from inputs import chain
    from posetahedra import poset
    from workloads import Pass, faces_pass

    P = [("chain5", poset.build_poset(chain(5)))]
    right, wrong = Pass(), Pass()
    faces_pass(P, right, references={"chain5": 14})
    faces_pass(P, wrong, references={"chain5": 15})
    return {"right": [right.attempted, len(right.failures)],
            "wrong": [wrong.attempted, len(wrong.failures)], "failures": wrong.failures}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("realize", "compact", "faces"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", metavar="FILE")
    mode.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    _import_library()
    if args.self_test:
        print(json.dumps(self_test()))
        return 0

    from inputs import INPUTS
    from spans import Tracer
    from workloads import PASSES, Pass

    tracer = None
    if args.trace:
        tracer = Tracer(args.pass_id)
        tracer.install()
        tracer.active = True
    inputs = INPUTS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    p = Pass()
    start = time.perf_counter()
    round_trips = PASSES[args.workload](inputs, p)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.active = False
    p.run_deferred()

    out = {
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "attempted": p.attempted, "failed": len(p.failures), "failures": p.failures[:20],
        "op_latencies": p.latencies, "round_trips": round_trips or [],
        "coord_bits_max": p.coord_bits_max,
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        with open(args.trace, "w", encoding="utf-8") as stream:
            tracer.write_jsonl(stream)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

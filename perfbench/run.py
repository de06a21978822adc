"""Benchmark of the posetahedra package: realize, compact and faces workloads.

    python3 perfbench/run.py --workload realize|compact|faces|all \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Each pass runs in a fresh interpreter (``child.py``), one operation at a
time, so every pass starts with the library's caches empty, as a command
line call does.  A run first starts set-up-only interpreters, then passes
until the next one would overrun ``--seconds`` (but at least two).  With ``--trace 0`` the
end-to-end metrics are medians over the run's passes; with ``--trace 1``
untraced and traced passes alternate, and the per-layer metrics come from
the traced ones.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "posetahedra"
OUT = HERE / "out"
WORKLOADS = ("realize", "compact", "faces")
# Set-up-only interpreters per run, after one that is discarded because it
# may compile bytecode.
SETUP_RUNS = 3
# Untraced passes every run makes, even past --seconds, so that no median
# rests on a single pass.
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170
MAX_BITS_ENV = "POSETAHEDRA_MAX_BITS"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, *flags: str, pass_id: int = 0) -> tuple[dict, float]:
    """Start one child interpreter; return its JSON result and lifetime."""
    command = [sys.executable, *(["-O"] * sys.flags.optimize), str(HERE / "child.py"),
               workload, "--seed", str(seed), "--pass-id", str(pass_id)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.run(command + ["--spawned-at", repr(started), *flags],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lifetime = time.monotonic() - started
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} pass {pass_id} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), lifetime


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)] if ordered else 0.0


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + seconds
    spawn(workload, seed, "--setup-only")
    setups = [spawn(workload, seed, "--setup-only")[0]["setup_s"] for _ in range(SETUP_RUNS)]
    plain, traced = [], []
    longest = 0.0
    while True:
        kind = "traced" if trace and len(plain) > len(traced) else "plain"
        required = len(plain) < MIN_PASSES or (trace and not traced)
        if not required and time.monotonic() + longest > deadline:
            break
        pass_id = len(plain) + len(traced)
        flags = ()
        if kind == "traced":
            OUT.mkdir(exist_ok=True)
            flags = ("--trace", str(OUT / f"spans-{workload}-seed{seed}-pass{pass_id}.jsonl"))
        result, lifetime = spawn(workload, seed, *flags, pass_id=pass_id)
        longest = max(longest, lifetime)
        if kind == "traced":
            traced.append(result)
        else:
            plain.append(result)
            setups.append(result["setup_s"])

    passes = plain + traced
    round_trips = [x for r in plain for x in r["round_trips"]]
    summary = {
        "workload": workload, "seed": seed, "passes": len(plain), "traced_passes": len(traced),
        "setup_s": statistics.median(setups), "setup_samples": len(setups),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "pass_wall_s": [r["wall_s"] for r in plain],
        "pass_op_s": [r["op_latencies"] for r in plain],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "attempted": sum(r["attempted"] for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "failures": [f for r in passes for f in r["failures"]][:20],
        "roundtrip_p50_ms": percentile(round_trips, 50) * 1e3 if round_trips else None,
        "roundtrip_p99_ms": percentile(round_trips, 99) * 1e3 if round_trips else None,
        "roundtrip_samples": len(round_trips),
        "coord_bits_max": max(r["coord_bits_max"] for r in passes) or None,
    }
    summary["fail_ratio"] = summary["failed"] / summary["attempted"]
    if traced:
        layers = {key: statistics.median_low(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - summary["wall_s"])
        layers["compact.roundtrip_p50_ms"] = summary["roundtrip_p50_ms"] or 0.0
        layers["compact.roundtrip_p99_ms"] = summary["roundtrip_p99_ms"] or 0.0
        layers["serialize.coord_bits_max"] = summary["coord_bits_max"] or 0
        summary["layers"] = layers
    return summary


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", ".self_s", "overhead_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("bits_max"):
        return "bits"
    return "count"


def run_record(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = sloc = 0
    for path in sorted(SRC.glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            lines += 1
            sloc += bool(line.strip()) and not line.strip().startswith("#")
    return {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "networkx": importlib.metadata.version("networkx"),
        "jsonschema": importlib.metadata.version("jsonschema"),
        "commit": commit, "seed": seed, "src_lines": lines, "src_sloc": sloc,
    }


def report(summary: dict) -> list[str]:
    s = summary
    lines = [f"workload {s['workload']}: {s['passes']} untraced and {s['traced_passes']} traced "
             f"passes, {s['setup_samples']} set-ups, {s['attempted']} operations"]
    rows = [
        ("setup_s", s["setup_s"], "s"), ("wall_s", s["wall_s"], "s"),
        ("peak_rss_mb", s["peak_rss_mb"], "MB"),
        ("fail_ratio", s["fail_ratio"], f"({s['failed']}/{s['attempted']})"),
        ("roundtrip_p50_ms", s["roundtrip_p50_ms"], f"ms ({s['roundtrip_samples']} round trips)"),
        ("roundtrip_p99_ms", s["roundtrip_p99_ms"], "ms"),
        ("coord_bits_max", s["coord_bits_max"], "bits"),
    ]
    for name, value, unit in rows:
        shown = "n/a (not measured on this workload)" if value is None else f"{value:.6g} {unit}"
        lines.append(f"  {name:<18} {shown}")
    lines += [f"  FAILED {f}" for f in s["failures"]]
    if "layers" in s:
        hot = sorted(((v, k) for k, v in s["layers"].items() if k.endswith(".self_s")), reverse=True)
        lines.append("  self time by layer (traced): " + ", ".join(
            f"{k[:-7]} {v:.3f}s" for v, k in hot[:8] if v > 0))
        lines.append(f"  trace.overhead_s {s['layers']['trace.overhead_s']:.3f} s")
    return lines


def self_test() -> int:
    result, _ = spawn("faces", 0, "--self-test")
    ok = result["right"] == [1, 0] and result["wrong"] == [1, 1]
    print(f"self-test: right reference {result['right'][1]} failed of {result['right'][0]}, "
          f"wrong reference {result['wrong'][1]} failed of {result['wrong'][0]}: "
          f"{result['failures']}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # pass interpreter it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if os.environ.get(MAX_BITS_ENV):
        print(f"refusing to run: {MAX_BITS_ENV} adds per-stage bit scans to the measured work",
              file=sys.stderr)
        return 2
    if not (SRC / "__init__.py").is_file():
        print(f"no library sources at {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    record = run_record(args.seed)
    print("run record: " + json.dumps(record))
    summaries = []
    try:
        for workload in workloads:
            summary = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            summaries.append(summary)
            print("\n".join(report(summary)), flush=True)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    for summary in summaries:
        name = f"run-{summary['workload']}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps({"record": record, **summary}, indent=1))

    metrics = {}
    for summary in summaries:
        prefix = "" if len(summaries) == 1 else f"{summary['workload']}."
        if args.trace:
            values = [(k, v, layer_unit(k)) for k, v in summary["layers"].items()]
        else:
            values = [(k, summary[k], unit) for k, unit in END_TO_END]
        for key, value, unit in values:
            metrics[prefix + key] = {"value": value, "unit": unit}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": sum(s["attempted"] for s in summaries),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

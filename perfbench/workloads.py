"""One pass of each workload, with the checks that count into ``failed``.

A pass times its operations back to back.  Checks that cost real work
(reloading an export, recounting tubings) are deferred until every
operation has run, so they neither add to the pass time nor warm the
library's caches for a later operation.  Checks raise ``CheckFailed``
explicitly, so they also run under ``python -O``.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from posetahedra import affine, compact, geometry, lattice, serialize, tubes

# f0 of the inputs whose vertex count is known in closed form: 6! and the
# Catalan number C_7.
FACES_F0 = {"claw6": 720, "chain8": 429}
# Expansion scale t = t_max * k / K_DENOM with k drawn from 1..K_DENOM-1;
# when t_max is unbounded, t = k / K_UNBOUNDED.
K_DENOM = 64
K_UNBOUNDED = 16

clock = time.perf_counter


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


class Pass:
    """Operation latencies, attempts and failures of one pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.deferred: list[tuple] = []
        self.coord_bits_max = 0

    def run(self, name: str, fn, *args):
        """Time one operation; an exception counts it as failed."""
        self.attempted += 1
        start = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.fail(name, exc)
            return None
        self.latencies.append(clock() - start)
        return result

    def check(self, name: str, fn, *args) -> None:
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed check is counted, not fatal
            self.fail(name, exc)

    def defer(self, name: str, fn, *args) -> None:
        self.deferred.append((name, fn, args))

    def run_deferred(self) -> None:
        for name, fn, args in self.deferred:
            self.check(name, fn, *args)
        self.deferred.clear()

    def fail(self, name: str, exc: Exception) -> None:
        self.failures.append(f"{name}: {type(exc).__name__}: {exc}")


def _bits(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


# -- realize ------------------------------------------------------------------


def _realize_export(kind: str, P):
    if kind == "affine":
        result = affine.realize_affine_cyclohedron(P)
    else:
        result = geometry.realize_poset_associahedron(P)
    return result, serialize.dumps(serialize.polytope_to_json(result.primal))


def _check_realize(p: Pass, kind: str, P, result, text: str) -> None:
    primal = result.primal
    if kind == "affine":
        vertices = len(affine.enumerate_affine_tubings(P, max_only=True))
        facets = len(affine.enumerate_affine_tubes(P, proper_only=True))
    else:
        vertices = len(tubes.enumerate_proper_tubings(P, max_only=True))
        facets = len(tubes.enumerate_tubes(P, proper_only=True))
    require(primal.n_vertices == vertices,
            f"{primal.n_vertices} vertices, expected {vertices} maximal tubings")
    require(primal.n_facets == facets, f"{primal.n_facets} facets, expected {facets} tubes")
    reloaded = serialize.polytope_from_json(json.loads(text))
    require(reloaded.vertices == primal.vertices, "export does not reload to the same vertices")
    p.coord_bits_max = max([p.coord_bits_max] + [_bits(x) for v in primal.vertices for x in v])


def realize_pass(inputs, p: Pass) -> None:
    for name, kind, P in inputs:
        out = p.run(name, _realize_export, kind, P)
        if out is not None:
            p.defer(name, _check_realize, p, kind, P, *out)


# -- compact ------------------------------------------------------------------


def _round_trip(point, tau, parent, k: int):
    tm = compact.t_max(point, tau, parent)
    t = tm * Fraction(k, K_DENOM) if isinstance(tm, Fraction) else Fraction(k, K_UNBOUNDED)
    moved = compact.expand(point, tau, parent, t)
    moved_tubing = compact.tubing_of(moved)
    back, t_back = compact.collapse(moved, tau, parent)
    return t, moved_tubing, back, t_back


def _check_round_trip(T, tau, point, t, moved_tubing, back, t_back) -> None:
    require(moved_tubing.tubes == T.tubes - {tau}, f"expand of {tau} left the wrong stratum")
    require(back == point, f"collapse of {tau} did not restore the point")
    require(t_back == t, f"collapse of {tau} recovered t={t_back}, expected {t}")


def _stratum(P, T):
    point = compact.stratum_point(P, T)
    return point, compact.tubing_of(point)


def compact_pass(inputs, p: Pass) -> list[float]:
    """Stratum round trips as in the acceptance suite; returns the latency
    of every expand/collapse round trip."""
    rng = inputs["rng"]
    round_trips: list[float] = []
    for name, P, sample in inputs["posets"]:
        strata = tubes.enumerate_proper_tubings(P)
        if sample is not None:
            strata = [strata[i] for i in sorted(rng.sample(range(len(strata)), sample))]
        for T in strata:
            label = f"{name} {sorted(t.members for t in T.tubes)}"
            out = p.run(label, _stratum, P, T)
            if out is None:
                continue
            point, found = out
            p.check(label, require, found.tubes == T.tubes, "stratum point left its stratum")
            for tau, parent in tubes.tubing_tree(T).adjacent_pairs():
                k = rng.randint(1, K_DENOM - 1)
                done = p.run(f"{label} {tau}", _round_trip, point, tau, parent, k)
                if done is not None:
                    round_trips.append(p.latencies[-1])
                    p.check(f"{label} {tau}", _check_round_trip, T, tau, point, *done)
    return round_trips


# -- faces --------------------------------------------------------------------


def _faces(P):
    L = lattice.associahedron_face_lattice(P)
    return (L, lattice.f_vector(L), lattice.h_vector(L), lattice.is_flag_dual(P),
            tubes.enumerate_proper_tubings(P, max_only=True),
            lattice.order_polytope_face_lattice(P))


def _check_faces(name: str, references: dict, L, f, h, flag, maximal, order_lattice) -> None:
    if name in references:
        require(f[0] == references[name], f"f0={f[0]}, expected {references[name]}")
    require(f[0] == len(maximal), f"f0={f[0]} but {len(maximal)} maximal tubings")
    require(h == h[::-1], f"h-vector {h} is not palindromic")
    require(L.euler_sum() == 0, "Euler sum of the face lattice is not 0")
    require(order_lattice.euler_sum() == 0, "Euler sum of the order-polytope lattice is not 0")


def faces_pass(inputs, p: Pass, references: dict = FACES_F0) -> None:
    for name, P in inputs:
        out = p.run(name, _faces, P)
        if out is not None:
            p.check(name, _check_faces, name, references, *out)


PASSES = {"realize": realize_pass, "compact": compact_pass, "faces": faces_pass}

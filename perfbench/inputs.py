"""Seeded inputs for the three workloads.

The same seed gives the same inputs.  The seed decides only what the
library is handed: the element ids of the realize shapes, the sampled
strata and expansion scales of ``compact``, and the random posets of
``faces``.  Every poset goes through ``build_poset``, looked up at call
time so that a traced pass also sees the set-up calls.
"""

from __future__ import annotations

import itertools
import random

from posetahedra import affine, errors, poset

# Finite shapes, as cover lists.
W5 = [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]
H6 = [(1, 2), (3, 4), (5, 6), (1, 4), (3, 6), (5, 2)]


def chain(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def claw(n: int) -> list[tuple[int, int]]:
    """Hub 0 below leaves 1..n."""
    return [(0, i) for i in range(1, n + 1)]


def circular_chain(n: int) -> tuple[int, list[tuple[int, int]]]:
    return n, [(i, i + 1) for i in range(1, n + 1)]


def circular_claw(n: int) -> tuple[int, list[tuple[int, int]]]:
    """Hub residue n below and above the leaf residues 1..n-1."""
    return n, [(k, n) for k in range(1, n)] + [(n, k + n) for k in range(1, n)]


# Strata sampled from the two posets too large to walk whole in one pass.
COMPACT_SAMPLES = {"h6": 180, "claw5": 160}
# Random connected posets in one faces pass, their size, and the band of
# tube counts they are drawn from.  Face-lattice work grows steeply with the
# tube count (claw6 has 69 tubes); the band keeps the pass length nearly
# the same from seed to seed.
FACES_RANDOM = 4
FACES_RANDOM_SIZE = 7
FACES_TUBE_BAND = range(30, 40)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _permuted(covers, rng: random.Random):
    ids = sorted({e for pair in covers for e in pair})
    image = ids[:]
    rng.shuffle(image)
    perm = dict(zip(ids, image))
    return poset.build_poset([(perm[i], perm[j]) for i, j in covers])


def realize_inputs(seed: int) -> list[tuple[str, str, object]]:
    """(name, kind, poset): four finite shapes with permuted ids, two affine."""
    rng = _rng("realize", seed)
    finite = [("w5", W5), ("claw4", claw(4)), ("chain6", chain(6)), ("h6", H6)]
    out = [(name, "finite", _permuted(covers, rng)) for name, covers in finite]
    for name, (n, covers) in (("cchain4", circular_chain(4)), ("cclaw3", circular_claw(3))):
        out.append((name, "affine", affine.build_affine_poset(n, covers)))
    return out


def compact_inputs(seed: int) -> dict:
    """Posets whose strata are walked, how many strata to sample from each
    (None: all), and the generator for sample indices and scales ``k``."""
    return {
        "posets": [
            ("w5", poset.build_poset(W5), None),
            ("chain6", poset.build_poset(chain(6)), None),
            ("h6", poset.build_poset(H6), COMPACT_SAMPLES["h6"]),
            ("claw5", poset.build_poset(claw(5)), COMPACT_SAMPLES["claw5"]),
        ],
        "rng": _rng("compact", seed),
    }


def _tube_count(P) -> int:
    return sum(
        1
        for r in range(1, len(P.elements) + 1)
        for members in itertools.combinations(P.elements, r)
        if poset.is_convex(P, members) and poset.is_connected(P, members)
    )


def random_connected_poset(rng: random.Random, n: int, tubes: range):
    """A connected poset on 1..n from random relation pairs.  Draws that are
    cyclic, disconnected, miss an element or fall outside the tube band are
    redrawn."""
    while True:
        pairs: set[tuple[int, int]] = set()
        target = rng.randint(n - 1, n + 2)
        while len(pairs) < target:
            i, j = rng.sample(range(1, n + 1), 2)
            pairs.add((i, j))
        try:
            P = poset.build_poset(sorted(pairs))
        except (errors.CycleError, errors.DisconnectedError):
            continue
        if len(P.elements) == n and _tube_count(P) in tubes:
            return P


def faces_inputs(seed: int) -> list[tuple[str, object]]:
    """claw6 and chain8 with known f0, then seeded random connected posets."""
    rng = _rng("faces", seed)
    out = [("claw6", poset.build_poset(claw(6))), ("chain8", poset.build_poset(chain(8)))]
    for k in range(FACES_RANDOM):
        P = random_connected_poset(rng, FACES_RANDOM_SIZE, FACES_TUBE_BAND)
        out.append((f"random{k}", P))
    return out


INPUTS = {"realize": realize_inputs, "compact": compact_inputs, "faces": faces_inputs}

"""Hypothesis settings and strategies shared by the differential tests.

Runs are derandomized and keep no example database, so every run checks
the same examples.
"""

from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from posetahedra.affine import build_affine_poset, enumerate_affine_tubes
from posetahedra.errors import ValidationError
from posetahedra.poset import build_poset

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def connected_posets(draw, max_size=6):
    """Random connected posets on 3..max_size elements.

    Element j > 1 hangs off a random earlier element (so the Hasse diagram
    is connected), extra relations are random, and every relation points
    up a random linear order (so there are no cycles).
    """
    n = draw(st.integers(3, max_size))
    rank_of = draw(st.permutations(range(n)))
    pairs = {(draw(st.integers(0, j - 1)), j) for j in range(1, n)}
    pairs |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=n)))
    covers = [(i + 1, j + 1) if rank_of[i] < rank_of[j] else (j + 1, i + 1)
              for i, j in pairs if i != j]
    return build_poset(covers)


def periodic_bowtie():
    """Period 4: 1 and 2 both below 3 and 4, then up a period.  Random hosts
    seldom have a laminar family with a dependency cycle; here the pair of
    classes {1,3} and {2,4} is one (1 < 4 and 2 < 3 at shift zero)."""
    return build_affine_poset(4, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 6)])


@st.composite
def affine_posets(draw, max_classes=40):
    """Random affine posets of period n in 2..5 with at most max_classes
    proper tube classes.

    Generator covers i < j have i in 1..n and |j - i| <= n, which keeps the
    window of the old class search in ``oracles`` at its least width.  A
    cover goes up from each residue to the next one of a random cyclic order
    (so every draw is strongly connected), and up to n random covers go up
    or down.  Hosts that ``build_affine_poset`` refuses are rejected.
    """
    n = draw(st.integers(2, 5))
    cycle = draw(st.permutations(range(1, n + 1)))
    covers = [(r, r + (s - r) % n) for r, s in zip(cycle, cycle[1:] + cycle[:1])]
    spans = st.integers(-n, n).filter(bool)
    covers += [(i, i + d) for i, d in draw(st.lists(st.tuples(st.integers(1, n), spans),
                                                   max_size=n))]
    try:
        A = build_affine_poset(n, covers)
    except ValidationError:
        assume(False)
    assume(len(enumerate_affine_tubes(A)) <= max_classes)
    return A

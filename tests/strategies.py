"""Hypothesis settings and strategies shared by the differential tests.

Runs are derandomized and keep no example database, so every run checks
the same examples.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

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

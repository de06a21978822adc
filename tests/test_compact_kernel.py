"""The integer compactification kernels against the Fraction code they replaced.

Coherence on covering pairs must give the all-pairs verdict, the integer
restriction must equal the Fraction one, and expand/collapse, which carry
unchanged rows over from their input, must equal a full rebuild, on the
corpus and on random posets.  Kernel-built points hold only rows: equal rows
must mean equal values, and the round trip must build no Fraction component.
"""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from posetahedra import corpus
from posetahedra.affine import (
    _class_walk,
    build_affine_poset,
    cyclohedron_face_lattice,
    enumerate_affine_tubes,
    enumerate_affine_tubings,
)
from posetahedra import errors, tubes
from posetahedra.compact import (
    UNBOUNDED,
    ConfigPoint,
    Stratum,
    _fill,
    _host_index,
    _tubing_defect,
    collapse,
    embed,
    expand,
    face_interior_point,
    is_coherent,
    nonsingleton_tubes,
    stratum_point,
    t_max,
    tubing_of,
)
from posetahedra.errors import DegenerateError
from posetahedra.geometry import tube_index
from posetahedra.lattice import (
    associahedron_face_lattice,
    order_polytope_face_lattice,
    tubing_partitions,
)
from posetahedra.linalg import homogeneous
from posetahedra.poset import build_poset, cover_indices, from_row, res, res_cleared
from posetahedra.tubes import (
    CACHE_SIZE,
    enumerate_proper_tubings,
    enumerate_tubes,
    full_tube,
    tube_table,
    tubing_tree,
    tubing_walk,
)
from strategies import SETTINGS, connected_posets

steps = st.fractions(min_value=F(1, 7), max_value=3, max_denominator=7)
values = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def cover_pairs(P):
    """The covering pairs (inner, outer) that is_coherent checks, in its order."""
    return tuple((inner, outer) for inner, outer, *_ in _host_index(P).pairs)


@st.composite
def strict_points(draw):
    """A random poset with a strict configuration on it.

    Sorting the elements by the size of their down-sets gives a linear
    extension; positive random steps along it make every relation strict.
    """
    P = draw(connected_posets())
    below = {j: sum(P.lt(i, j) for i in P.elements) for j in P.elements}
    x, level = {}, F(0)
    for e in sorted(P.elements, key=lambda j: (below[j], j)):
        level += draw(steps)
        x[e] = level
    mean = sum(x.values(), F(0)) / len(x)
    return P, {e: v - mean for e, v in x.items()}


@SETTINGS
@given(strict_points(), st.sampled_from(["none", "flip", "move", "zero"]), st.data())
def test_cover_pair_coherence_matches_all_pairs(case, tamper, data):
    P, x = case
    comps = {tube: dict(vec) for tube, vec in embed(P, x).components.items()}
    tube = data.draw(st.sampled_from(nonsingleton_tubes(P)))
    if tamper == "flip":
        comps[tube] = {i: -v for i, v in comps[tube].items()}
    elif tamper == "move":
        i = data.draw(st.sampled_from(tube.members))
        comps[tube][i] += data.draw(values.filter(bool))
    elif tamper == "zero":
        comps[tube] = {i: F(0) for i in tube}
    point = ConfigPoint(P, comps)
    expected, _ = oracles.is_coherent(point, oracles.nested_pairs(nonsingleton_tubes(P)))
    ok, witness = is_coherent(point)
    assert ok == expected
    assert ok == (witness is None)
    if tamper in ("none", "flip"):
        assert ok == (tamper == "none")
    if not ok:
        assert witness in cover_pairs(P)


@SETTINGS
@given(connected_posets())
def test_cover_pairs_are_the_covering_relation(P):
    tubes = nonsingleton_tubes(P)
    nested = oracles.nested_pairs(tubes)
    related = set(nested)
    covering = tuple((a, b) for a, b in nested
                     if not any((a, m) in related and (m, b) in related for m in tubes))
    assert cover_pairs(P) == covering
    assert {inner for inner, _ in covering} == set(tubes) - {full_tube(P)}


@pytest.mark.parametrize("name,nested,covering", [
    ("w5", 31, 15), ("chain6", 55, 20), ("h6", 120, 42), ("claw5", 180, 75),
])
def test_cover_pair_counts(name, nested, covering):
    P = corpus.DESK_POSETS[name]
    assert len(oracles.nested_pairs(nonsingleton_tubes(P))) == nested
    assert len(cover_pairs(P)) == covering


@SETTINGS
@given(connected_posets(), st.booleans(), st.data())
def test_integer_res_matches_fraction_res(P, constant, data):
    members = sorted(data.draw(st.sets(st.sampled_from(P.elements), min_size=1)))
    x = {e: data.draw(values) for e in P.elements}
    if constant:  # alpha vanishes on the subset
        x.update(dict.fromkeys(members, data.draw(values)))
    expected = oracles.res(P.covers, members, x)
    if expected is None:
        with pytest.raises(DegenerateError):
            res(P, members, x)
    else:
        got = res(P, members, x)
        assert got == expected
        assert all(type(v) is F for v in got.values())
        # the core on a cleared point gives the row of the same restriction,
        # also where alpha is negative
        num = homogeneous([x[i] for i in members])[:-1]
        row = res_cleared(cover_indices(P, members), num)
        assert from_row(members, row) == expected
        assert row == tuple(homogeneous([expected[i] for i in members]))


def full_rebuild(point):
    """The point rebuilt by restriction alone from its tree components,
    read as Fractions and cleared again."""
    index = _host_index(point.host)
    rows = [homogeneous([point[t][i] for i in t.members]) if point.nodes >> k & 1 else None
            for k, t in enumerate(index.tubes)]
    return ConfigPoint._trusted(index, _fill(index, point.nodes, rows, index.root))


@pytest.mark.parametrize("name", ["w5", "chain5"])
def test_expand_collapse_match_full_rebuild(name):
    P = corpus.DESK_POSETS[name]
    for T in enumerate_proper_tubings(P):
        point = stratum_point(P, T)
        for tau, parent in tubing_tree(T).adjacent_pairs():
            tm = t_max(point, tau, parent)
            t = F(1) if tm is UNBOUNDED else tm / 2
            moved = expand(point, tau, parent, t)
            assert moved.tubing.tubes == T.tubes - {tau}
            assert moved == full_rebuild(moved), (T, tau)
            back, t_back = collapse(moved, tau, parent)
            assert back == full_rebuild(back), (T, tau)
            assert back == point and t_back == t


def assert_exact(point):
    """Every coordinate is a Fraction, every row is its component's, and
    every component is the restriction of its minimal tree tube's, found
    without the fill's own walk."""
    for tube, vec in point.components.items():
        assert all(type(v) is F for v in vec.values()), tube
        assert point.rows[tube] == tuple(homogeneous(vec.values())), tube
        node = point.tree.minimal_containing(tube.members)
        if node != tube:
            assert vec == res(point.host, tube.members, point[node]), tube


@st.composite
def strata(draw):
    """A random poset and one of its proper tubings with at least one tube."""
    P = draw(connected_posets())
    tubings = [T for T in enumerate_proper_tubings(P) if T.tubes]
    return P, draw(st.sampled_from(tubings))


def draw_t(data, point, tau, parent):
    tm = t_max(point, tau, parent)
    k = data.draw(st.integers(1, 7))
    return F(k, 4) if tm is UNBOUNDED else tm * F(k, 8)


@SETTINGS
@given(strata(), st.data())
def test_random_expand_collapse_round_trip(stratum, data):
    """collapse(expand(c, tau, tau+, t)) = (c, t), both moves equal a full
    rebuild, and every returned point carries the rows of its components;
    a second expand starts from a point that expand built."""
    P, T = stratum
    point = stratum_point(P, T)
    assert_exact(point)
    for tau, parent in tubing_tree(T).adjacent_pairs():
        t = draw_t(data, point, tau, parent)
        moved = expand(point, tau, parent, t)
        assert moved.tubing.tubes == T.tubes - {tau}
        assert moved == full_rebuild(moved), (T, tau)
        assert_exact(moved)
        back, t_back = collapse(moved, tau, parent)
        assert back == full_rebuild(back), (T, tau)
        assert_exact(back)
        assert back == point and t_back == t
        for tau2, parent2 in moved.tree.adjacent_pairs():
            t2 = draw_t(data, moved, tau2, parent2)
            twice = expand(moved, tau2, parent2, t2)
            assert twice == full_rebuild(twice), (T, tau, tau2)
            assert_exact(twice)
            assert collapse(twice, tau2, parent2) == (moved, t2)


@SETTINGS
@given(strata(), st.data())
def test_equal_rows_mean_equal_values(stratum, data):
    """A kernel-built point equals the point the public constructor builds
    from its components, read as Fractions, and an expansion at t > 0 moves
    it; every expand and collapse result is exact."""
    P, T = stratum
    point = stratum_point(P, T)
    kernel_points = [point]
    for tau, parent in tubing_tree(T).adjacent_pairs():
        moved = expand(point, tau, parent, draw_t(data, point, tau, parent))
        back, _ = collapse(moved, tau, parent)
        kernel_points += [moved, back]
    for p in kernel_points:
        public = ConfigPoint(P, {t: dict(v) for t, v in p.components.items()})
        assert public == p and p == public
        assert public.rows == p.rows  # homogeneous and res_cleared rows agree
        for tau, parent in p.tree.adjacent_pairs():
            assert expand(p, tau, parent, draw_t(data, p, tau, parent)) != p
    for p in kernel_points[1:]:
        assert_exact(p)


def test_round_trip_builds_no_component():
    """t_max, expand, tubing_of, collapse and == on w5 read only rows: no
    point they touch builds a Fraction component until one is read."""
    P = corpus.DESK_POSETS["w5"]
    for T in enumerate_proper_tubings(P):
        point = stratum_point(P, T)
        assert tubing_of(point).tubes == T.tubes
        for tau, parent in tubing_tree(T).adjacent_pairs():
            tm = t_max(point, tau, parent)
            t = F(1) if tm is UNBOUNDED else tm / 2
            moved = expand(point, tau, parent, t)
            assert tubing_of(moved).tubes == T.tubes - {tau}
            back, t_back = collapse(moved, tau, parent)
            assert back == point and t_back == t
            for p in (point, moved, back):
                assert p.components._views == {}
    # in the moved point tau restricts from its parent's new component
    assert moved[tau] == res(P, tau.members, moved[parent])
    assert set(moved.components._views) == {tau, parent}


def test_host_caches_are_bounded():
    """Each per-host cache keeps at most CACHE_SIZE entries: one host more
    than that evicts the oldest."""
    caches = (_host_index, enumerate_tubes, enumerate_proper_tubings,
              tube_table, tubing_walk, associahedron_face_lattice,
              order_polytope_face_lattice,
              tubing_partitions, enumerate_affine_tubes, enumerate_affine_tubings,
              cyclohedron_face_lattice, _class_walk, tube_index)
    for cache in caches:
        assert cache.cache_info().maxsize == CACHE_SIZE
    for shift in range(CACHE_SIZE + 1):  # three-element chains on distinct ids
        P = build_poset([(shift, shift + 1), (shift + 1, shift + 2)])
        associahedron_face_lattice(P)
        enumerate_proper_tubings(P)
        order_polytope_face_lattice(P)
        _host_index(P)
        # period-1 hosts with distinct generators: each a cache entry, no tubes
        A = build_affine_poset(1, [(1, shift + 2)])
        cyclohedron_face_lattice(A)
        enumerate_affine_tubings(A)
        tube_index(P)
        tube_index(A)
    for cache in caches:
        assert cache.cache_info().currsize == CACHE_SIZE, cache


def old_kernel():
    return oracles.tube_keyed_kernel(
        tubes.Tube, tubes.Tubing, tubing_tree, tubes.is_tubing, homogeneous, tubes.has_arrow,
        full_tube, nonsingleton_tubes, errors.NotAdjacentError, errors.NotInCollError,
        errors.RangeError, errors.WrongFaceError, DegenerateError)


def test_positions_are_the_tube_complex_positions():
    """The tubes sit at their tube_table positions: the proper tubes in
    enumerate_tubes order, the root last."""
    for P in corpus.DESK_POSETS.values():
        index = _host_index(P)
        assert index.table is tube_table(P) and index.tubes == tube_table(P).tubes
        assert index.tubes[:-1] == enumerate_tubes(P, proper_only=True)
        assert index.tubes[index.root] == full_tube(P)
        assert all(index.position[t] == k for k, t in enumerate(index.tubes))


@SETTINGS
@given(strata(), st.data())
def test_kernel_matches_the_tube_keyed_kernel(stratum, data):
    """Stratum rows, t_max, the rows of expand and collapse and the recovered
    t equal those of the old Tube-keyed kernel, as do the canonical
    interior points."""
    P, T = stratum
    old = old_kernel()
    point, before = stratum_point(P, T), old.stratum_point(P, T)
    assert dict(point.rows) == before.rows
    tree, interior = old.canonical(P, T)
    assert dict(Stratum.canonical(P, T).interior) == interior
    for tube, blocks in tree.children.items():
        if len(tube) > 1:
            assert face_interior_point(P, tube, blocks) == old.face_interior_point(P, tube, blocks)
    for tau, parent in tree.adjacent_pairs():
        tm, tm_old = t_max(point, tau, parent), old.t_max(before, tau, parent)
        assert (tm is UNBOUNDED) == (tm_old == float("inf"))
        if tm is not UNBOUNDED:
            assert tm == tm_old
        t = draw_t(data, point, tau, parent)
        moved, moved_old = expand(point, tau, parent, t), old.expand(before, tau, parent, t)
        assert dict(moved.rows) == moved_old.rows
        (back, t_back), (back_old, t_old) = collapse(moved, tau, parent), old.collapse(
            moved_old, tau, parent)
        assert dict(back.rows) == back_old.rows and t_back == t_old == t


def check_defect(P, T, tau):
    """The bitset check of collapse against is_tubing on T plus tau; returns
    is_tubing's verdict."""
    index = _host_index(P)
    nodes = 1 << index.root | sum(1 << index.position[t] for t in T.tubes)
    check = tubes.is_tubing(P, T.tubes | {tau})
    assert (_tubing_defect(index, nodes, index.position[tau]) is None) == bool(check), (T, tau)
    return check


@SETTINGS
@given(strata(), st.data())
def test_bitset_tubing_check_matches_is_tubing(stratum, data):
    P, T = stratum
    tau = data.draw(st.sampled_from([t for t in tube_table(P).tubes[:-1] if t not in T.tubes]))
    check_defect(P, T, tau)


@pytest.mark.parametrize("name", ["w5", "n4", "claw4", "h6"])
def test_bitset_tubing_check_on_every_pair(name):
    """Every (tubing, tube) pair of the host, crossings and cycles included."""
    P = corpus.DESK_POSETS[name]
    seen = {"ok": 0, "crossing": 0, "cycle": 0}
    for T in enumerate_proper_tubings(P):
        for tau in tube_table(P).tubes[:-1]:
            if tau not in T.tubes:
                check = check_defect(P, T, tau)
                seen["ok" if check else "crossing" if check.crossing else "cycle"] += 1
    assert seen["ok"] and seen["crossing"]
    if name == "h6":  # the flagness counterexample: three pairwise compatible tubes in a cycle
        assert seen["cycle"]


def test_hot_path_builds_no_tree_and_no_component(monkeypatch):
    """stratum_point, t_max, expand, tubing_of, collapse and == on w5 build no
    tubing tree, run no is_tubing and build no Fraction component."""
    P = corpus.DESK_POSETS["w5"]
    cases = [(T, tubing_tree(T).adjacent_pairs()) for T in enumerate_proper_tubings(P)]
    calls = dict.fromkeys(("tubing_tree", "is_tubing"), 0)
    for name in calls:
        original = getattr(tubes, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("posetahedra") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    for T, pairs in cases:
        point = stratum_point(P, T)
        assert tubing_of(point).tubes == T.tubes
        for tau, parent in pairs:
            tm = t_max(point, tau, parent)
            t = F(1) if tm is UNBOUNDED else tm / 2
            moved = expand(point, tau, parent, t)
            assert tubing_of(moved).tubes == T.tubes - {tau}
            back, t_back = collapse(moved, tau, parent)
            assert back == point and t_back == t
            for p in (point, moved, back):
                assert p.components._views == {}
    assert calls == {"tubing_tree": 0, "is_tubing": 0}
    assert point.tree.root == full_tube(P)  # the counters are live
    assert calls["tubing_tree"] == 1

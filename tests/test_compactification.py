import random
import re
from fractions import Fraction as F

import pytest

from posetahedra import corpus
from posetahedra.compact import (
    UNBOUNDED,
    ConfigPoint,
    b_partition,
    collapse,
    composite_collapse,
    composite_expand,
    embed,
    expand,
    face_interior_point,
    is_coherent,
    limit_sample,
    nonsingleton_tubes,
    ratio_counterexample_demo,
    stratum_point,
    synthesize,
    t_max,
    tubing_of,
)
from posetahedra.errors import (
    IncoherentError,
    NotAdjacentError,
    NotAPartitionError,
    NotATubeError,
    NotATubingError,
    NotCollapsibleError,
    NotInCollError,
    NotStrictError,
    RangeError,
    RegimeError,
    WrongFaceError,
)
from posetahedra.tubes import Tube, Tubing, full_tube, tubing_tree

T12 = Tube.of((1, 2))
T123 = Tube.of((1, 2, 3))


def strict_point(P, rng, denom=64):
    """Random strictly order-preserving rational configuration, sum zero."""
    from posetahedra.compact import face_interior_point

    base = face_interior_point(P, full_tube(P), [Tube.of((e,)) for e in P.elements])
    jitter = {e: base[e] + F(rng.randrange(0, denom // 4), denom * 100) for e in P.elements}
    mean = sum(jitter.values(), F(0)) / len(jitter)
    return {e: v - mean for e, v in jitter.items()}


class TestEmbed:
    def test_chain3_example(self, c3):
        c = embed(c3, {1: F(-1, 2), 2: F(0), 3: F(1, 2)})
        assert c[full_tube(c3)] == {1: F(-1, 2), 2: F(0), 3: F(1, 2)}
        assert c[T12] == {1: F(-1, 2), 2: F(1, 2)}
        assert c[Tube.of((2, 3))] == {2: F(-1, 2), 3: F(1, 2)}

    def test_two_element_tubes_forced(self, c4):
        c = embed(c4, {1: F(-3), 2: F(-1), 3: F(1), 4: F(3)})
        for tube in nonsingleton_tubes(c4):
            if len(tube) == 2:
                lo, hi = tube.members
                assert c[tube] == {lo: F(-1, 2), hi: F(1, 2)}

    def test_not_strict(self, c3):
        with pytest.raises(NotStrictError):
            embed(c3, {1: F(0), 2: F(0), 3: F(0)})

    def test_w5_components_valid(self, w5):
        x = strict_point(w5, random.Random(3))
        c = embed(w5, x)
        c.validate()
        assert len(c.components) == 12  # 11 proper tubes plus the whole poset
        ok, _ = is_coherent(c)
        assert ok

    def test_coherence_closure_random(self):
        # 1000 random strict rational points per poset stay coherent
        for name, P in corpus.DESK_POSETS.items():
            if len(P.elements) > 6:
                continue
            rng = random.Random(name)  # str seeds do not depend on PYTHONHASHSEED
            for _ in range(1000):
                ok, witness = is_coherent(embed(P, strict_point(P, rng)))
                assert ok, (name, witness)


class TestCoherence:
    def test_tampered_sign(self, c3):
        c = embed(c3, {1: F(-1, 2), 2: F(0), 3: F(1, 2)})
        comps = {t: dict(v) for t, v in c.components.items()}
        comps[T12] = {1: F(1, 2), 2: F(-1, 2)}
        bad = ConfigPoint(c3, comps)
        ok, witness = is_coherent(bad)
        assert not ok and witness == (T12, T123)
        with pytest.raises(IncoherentError):
            tubing_of(bad)


def _double_12(comps):
    """Double the {1,2} component: still coherent, but alpha is 2, not 1."""
    comps[T12] = {i: 2 * x for i, x in comps[T12].items()}


def _drop_23(comps):
    """Drop the {2,3} component, which the coherence check reads."""
    del comps[Tube.of((2, 3))]


class TestNormalization:
    @pytest.mark.parametrize("tamper, message", [
        (_double_12, "not normalized"),
        (_drop_23, "cover every non-singleton tube"),
    ], ids=["doubled", "missing"])
    def test_bad_component_is_rejected(self, c4, tamper, message):
        """chain4's [{1,2}] stratum point, tampered, is refused with
        ValueError by every entry point that reads its stratum."""
        c = stratum_point(c4, Tubing.of(c4, [T12]))
        comps = {t: dict(v) for t, v in c.components.items()}
        tamper(comps)
        bad = ConfigPoint(c4, comps)
        root = full_tube(c4)
        calls = (lambda: bad.validate(), lambda: tubing_of(bad),
                 lambda: t_max(bad, T12, root), lambda: expand(bad, T12, root, F(1, 8)),
                 lambda: collapse(bad, T12, root))
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    def test_doubled_component_is_coherent(self, c4):
        """The doubled point passes the coherence check, so only the
        normalization check can refuse it."""
        c = stratum_point(c4, Tubing.of(c4, [T12]))
        comps = {t: dict(v) for t, v in c.components.items()}
        _double_12(comps)
        assert is_coherent(ConfigPoint(c4, comps)) == (True, None)


class TestFrozenComponents:
    def test_components_are_read_only(self, c3):
        c = embed(c3, {1: F(-1, 2), 2: F(0), 3: F(1, 2)})
        with pytest.raises(TypeError):
            c[T12][1] = F(0)
        with pytest.raises(TypeError):
            c.components[T12] = {1: F(0), 2: F(0)}
        assert is_coherent(c) == (True, None)
        assert tubing_of(c).tubes == frozenset()

    def test_equal_to_plain_dict_point(self, c3):
        c = embed(c3, {1: F(-1, 2), 2: F(0), 3: F(1, 2)})
        plain = {t: dict(v) for t, v in c.components.items()}
        point = ConfigPoint(c3, plain)
        assert point == c and c.components == plain
        plain[T12][1] = F(5)  # the point keeps its own copy
        assert point == c and point[T12][1] == F(-1, 2)

    def test_tree_is_read_only(self, c4):
        c = stratum_point(c4, Tubing.of(c4, [T12, T123]))
        with pytest.raises(TypeError):
            c.tree.parent[T12] = full_tube(c4)
        with pytest.raises(TypeError):
            c.tree.children[T123] = ()
        assert t_max(c, T12, T123) > 0


class TestBPartition:
    def test_level_sets(self, c3):
        blocks = b_partition(c3, (1, 2, 3), {1: F(-1, 3), 2: F(-1, 3), 3: F(2, 3)})
        assert blocks == frozenset({T12, Tube.of((3,))})

    def test_strict_gives_singletons(self, c3):
        blocks = b_partition(c3, (1, 2, 3), {1: F(-1, 2), 2: F(0), 3: F(1, 2)})
        assert blocks == frozenset({Tube.of((1,)), Tube.of((2,)), Tube.of((3,))})

    def test_equal_but_disconnected_levels_split(self, n4):
        # elements 1 and 4 share the value but are not Hasse-connected
        x = {1: F(-1, 8), 2: F(-1, 8), 3: F(3, 8), 4: F(-1, 8)}
        blocks = b_partition(n4, (1, 2, 3, 4), x)
        assert blocks == frozenset({Tube.of((1,)), Tube.of((2, 4)), Tube.of((3,))})


class TestTubingOf:
    def test_interior(self, c3):
        c = embed(c3, {1: F(-1, 2), 2: F(0), 3: F(1, 2)})
        assert tubing_of(c).tubes == frozenset()

    def test_depth_one(self, c3):
        point = stratum_point(c3, Tubing.of(c3, [T12]))
        assert tubing_of(point).tubes == {T12}

    def test_round_trip(self, c4):
        T = Tubing.of(c4, [T12, T123])
        point = stratum_point(c4, T)
        assert tubing_of(point).tubes == T.tubes


class TestSynthesize:
    def test_empty_tubing_equals_embed(self, c3):
        x = {1: F(-1, 2), 2: F(0), 3: F(1, 2)}
        manual = synthesize(
            c3, Tubing.of(c3, []), {full_tube(c3): x}
        )
        assert manual == embed(c3, x)

    def test_spec_worked_example(self, c4):
        T = Tubing.of(c4, [T12])
        interior = {
            full_tube(c4): {1: F(-2, 5), 2: F(-2, 5), 3: F(1, 5), 4: F(3, 5)},
            T12: {1: F(-1, 2), 2: F(1, 2)},
        }
        c = synthesize(c4, T, interior)
        assert c[T123] == {1: F(-1, 3), 2: F(-1, 3), 3: F(2, 3)}
        ok, _ = is_coherent(c)
        assert ok and tubing_of(c).tubes == T.tubes

    def test_wrong_face(self, c4):
        T = Tubing.of(c4, [T12])
        interior = {
            full_tube(c4): {1: F(-1, 2), 2: F(-1, 6), 3: F(1, 6), 4: F(1, 2)},
            T12: {1: F(-1, 2), 2: F(1, 2)},
        }
        with pytest.raises(WrongFaceError):
            synthesize(c4, T, interior)  # root point is strict, not on the face

    def test_reconstruction_identities(self, w5):
        from posetahedra.poset import alpha, res

        T = Tubing.of(w5, [(2, 3, 4), (2, 4)])
        point = stratum_point(w5, T)
        tree = tubing_tree(T)
        for tube in nonsingleton_tubes(w5):
            parent = tree.minimal_containing(tube.members)
            assert alpha(w5, tube.members, point[parent]) > 0
            assert point[tube] == res(w5, tube.members, point[parent])


class TestLimitSample:
    def test_identity_on_interior(self, c3):
        c = embed(c3, {1: F(-1, 2), 2: F(0), 3: F(1, 2)})
        assert limit_sample(c, {}) == c[full_tube(c3)]

    def test_spec_example(self, c4):
        interior = {
            full_tube(c4): {1: F(-2, 5), 2: F(-2, 5), 3: F(1, 5), 4: F(3, 5)},
            T12: {1: F(-1, 2), 2: F(1, 2)},
        }
        c = synthesize(c4, Tubing.of(c4, [T12]), interior)
        y = limit_sample(c, {T12: F(1, 100)})
        assert y == {1: F(-81, 200), 2: F(-79, 200), 3: F(1, 5), 4: F(3, 5)}

    def test_guard_violation(self, c4):
        point = stratum_point(c4, Tubing.of(c4, [T12, T123]))
        with pytest.raises(RegimeError):
            limit_sample(point, {T12: F(1, 2), T123: F(1, 2)})
        with pytest.raises(RegimeError):
            limit_sample(point, {T12: F(0), T123: F(1, 2)})

    def test_convergence_rate(self, c4):
        point = stratum_point(c4, Tubing.of(c4, [T12]))
        gaps = []
        for k in range(2, 7):
            y = limit_sample(point, {T12: F(1, 10 ** k)})
            sampled = embed(c4, y)
            worst = max(
                abs(sampled[t][i] - point[t][i])
                for t in nonsingleton_tubes(c4)
                for i in t
            )
            gaps.append(worst)
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a / 5  # geometric decay toward the stratum point

    def test_embedded_sample_recovers_interior_stratum(self, c4):
        point = stratum_point(c4, Tubing.of(c4, [T12]))
        y = limit_sample(point, {T12: F(1, 64)})
        assert tubing_of(embed(c4, y)).tubes == frozenset()


class TestTMax:
    def test_chain3(self, c3):
        point = stratum_point(c3, Tubing.of(c3, [T12]))
        assert t_max(point, T12, full_tube(c3)) == 2

    def test_chain4_spec_value(self, c4):
        interior = {
            full_tube(c4): {1: F(-2, 5), 2: F(-2, 5), 3: F(1, 5), 4: F(3, 5)},
            T12: {1: F(-1, 2), 2: F(1, 2)},
        }
        c = synthesize(c4, Tubing.of(c4, [T12]), interior)
        assert t_max(c, T12, full_tube(c4)) == F(6, 5)

    def test_infinite_when_unconstrained(self, claw3):
        """t_max is the sentinel where no relation bounds it, and expand
        takes any t there; the sentinel is above every rational and is no
        float."""
        tube = Tube.of((0, 1))
        point = stratum_point(claw3, Tubing.of(claw3, [tube]))
        assert t_max(point, tube, full_tube(claw3)) is UNBOUNDED
        moved = expand(point, tube, full_tube(claw3), 3)
        assert tubing_of(moved).tubes == frozenset()
        assert collapse(moved, tube, full_tube(claw3)) == (point, 3)
        assert not isinstance(UNBOUNDED, float)
        for x in (0, F(-5), F(10 ** 30, 7)):
            assert UNBOUNDED > x and UNBOUNDED >= x and x < UNBOUNDED and not UNBOUNDED <= x
        with pytest.raises(TypeError):
            UNBOUNDED < 1.0

    def test_not_adjacent(self, c4):
        point = stratum_point(c4, Tubing.of(c4, [T12, T123]))
        with pytest.raises(NotAdjacentError):
            t_max(point, T12, full_tube(c4))  # parent of {1,2} is {1,2,3}

    def test_positive_on_all_strata(self):
        from posetahedra.tubes import enumerate_proper_tubings

        for name in ("chain4", "n4", "claw3", "w5"):
            P = corpus.DESK_POSETS[name]
            for T in enumerate_proper_tubings(P):
                point = stratum_point(P, T)
                tree = tubing_tree(T)
                for tau, parent in tree.adjacent_pairs():
                    assert t_max(point, tau, parent) > 0


class TestExpandCollapse:
    def test_expand_zero_is_identity(self, c3):
        point = stratum_point(c3, Tubing.of(c3, [T12]))
        assert expand(point, T12, full_tube(c3), 0) is point

    def test_chain3_worked_example(self, c3):
        point = stratum_point(c3, Tubing.of(c3, [T12]))
        y = expand(point, T12, full_tube(c3), 1)
        assert y[full_tube(c3)] == {1: F(-5, 9), 2: F(1, 9), 3: F(4, 9)}
        assert tubing_of(y).tubes == frozenset()
        back, t = collapse(y, T12, full_tube(c3))
        assert back == point and t == 1

    def test_expanded_stratum_drops_tube(self, c4):
        T = Tubing.of(c4, [T12, T123])
        point = stratum_point(c4, T)
        y = expand(point, T12, T123, F(1, 7))
        assert tubing_of(y).tubes == {T123}

    def test_range_error(self, c3):
        point = stratum_point(c3, Tubing.of(c3, [T12]))
        with pytest.raises(RangeError):
            expand(point, T12, full_tube(c3), 2)
        with pytest.raises(RangeError):
            expand(point, T12, full_tube(c3), F(-1, 2))

    def test_collapse_existing_tube(self, c3):
        point = stratum_point(c3, Tubing.of(c3, [T12]))
        same, t = collapse(point, T12, full_tube(c3))
        assert same is point and t == 0

    @pytest.mark.parametrize("tau,parent", [((3,), (1, 2, 3, 4)), ((1,), (1, 2))])
    def test_collapse_singleton_is_not_adjacent(self, c4, tau, parent):
        """A singleton is no stratum tube: collapse refuses it by name,
        and composite_collapse reports the step."""
        point = stratum_point(c4, Tubing.of(c4, [T12]))
        with pytest.raises(NotAdjacentError):
            collapse(point, Tube.of(tau), Tube.of(parent))
        T = Tubing.of(c4, [T12, Tube.of(tau)])
        with pytest.raises(NotCollapsibleError):
            composite_collapse(point, T, Tubing.of(c4, [T12]))

    def test_collapse_domain_violation(self, n4):
        tube24 = Tube.of((2, 4))
        x = {1: F(0), 2: F(-3), 3: F(1), 4: F(9)}
        mean = sum(x.values(), F(0)) / 4
        y = embed(n4, {i: v - mean for i, v in x.items()})
        # avg over {2,4} is 3 - mean, while x3 = 1 - mean sits below it
        with pytest.raises(NotInCollError):
            collapse(y, tube24, full_tube(n4))

    def test_roundtrip_many(self, w5):
        from posetahedra.tubes import enumerate_proper_tubings

        for T in enumerate_proper_tubings(w5):
            point = stratum_point(w5, T)
            tree = tubing_tree(T)
            for tau, parent in tree.adjacent_pairs():
                tm = t_max(point, tau, parent)
                t = F(1, 3) if tm is UNBOUNDED else tm / 3
                moved = expand(point, tau, parent, t)
                back, t_back = collapse(moved, tau, parent)
                assert back == point and t_back == t


class TestComposite:
    def test_identity(self, c4):
        T = Tubing.of(c4, [T12])
        point = stratum_point(c4, T)
        assert composite_expand(point, T, T, {}) is point
        same, ts = composite_collapse(point, T, T)
        assert same is point and ts == {}

    def test_roundtrip_to_interior(self, c4):
        T = Tubing.of(c4, [T12, T123])
        empty = Tubing.of(c4, [])
        point = stratum_point(c4, T)
        ts = {T12: F(1, 50), T123: F(1, 9)}
        y = composite_expand(point, T, empty, ts)
        assert tubing_of(y).tubes == frozenset()
        back, recovered = composite_collapse(y, T, empty)
        assert back == point and recovered == ts

    def test_order_violation_rejected(self, c4):
        T = Tubing.of(c4, [T12, T123])
        point = stratum_point(c4, T)
        with pytest.raises(ValueError):
            composite_expand(point, T, Tubing.of(c4, []),
                             {T12: F(1, 50), T123: F(1, 9)},
                             order=[T123, T12])

    def test_closure_poset_sampling(self, c4):
        # points expanded off a stratum approach it and keep containing strata
        T = Tubing.of(c4, [T12, T123])
        sub = Tubing.of(c4, [T123])
        point = stratum_point(c4, T)
        previous = None
        for k in range(2, 7):
            y = composite_expand(point, T, sub, {T12: F(1, 10 ** k)})
            assert tubing_of(y).tubes == sub.tubes
            gap = max(
                abs(y[t][i] - point[t][i])
                for t in nonsingleton_tubes(c4)
                for i in t
            )
            if previous is not None:
                assert gap < previous
            previous = gap


class TestDimensionAccounting:
    def test_tree_identity_up_to_seven_elements(self):
        from posetahedra.tubes import enumerate_proper_tubings

        posets = dict(corpus.DESK_POSETS)
        posets["chain7"] = corpus.chain(7)
        posets["claw6"] = corpus.claw(6)
        for name, P in posets.items():
            n = len(P.elements)
            for T in enumerate_proper_tubings(P):
                tree = tubing_tree(T)
                total = sum(
                    len(tree.children[t]) - 2 for t in tree.non_singleton_nodes()
                )
                assert total == n - len(T.tubes) - 2, (name, T)


class TestFaceInteriorPoint:
    @pytest.mark.parametrize("blocks,error", [
        ([(1, 2), (3, 4), (5, 6)], NotATubingError),  # the 3-cycle of C07
        ([(1, 2)], NotAPartitionError),
        ([(1, 2), (2, 3), (4,), (5,), (6,)], NotAPartitionError),
    ])
    def test_rejects_blocks_that_are_no_face(self, h6, blocks, error):
        with pytest.raises(error):
            face_interior_point(h6, full_tube(h6), [Tube.of(b) for b in blocks])

    @pytest.mark.parametrize("members", [(1, 2, 9), (1, 5), (1,)],
                             ids=["outside the host", "not convex", "singleton"])
    def test_rejects_a_tube_that_is_no_non_singleton_tube(self, w5, members):
        tube = Tube.of(members)
        with pytest.raises(NotATubeError, match="^" + re.escape(f"{tube} is not a non-singleton")):
            face_interior_point(w5, tube, [Tube.of((e,)) for e in members])

    def test_rejects_a_block_that_is_no_tube(self):
        """{1,2} of the claw is convex but not connected: heights along a
        linear extension would give a point constant on {1} and {2}."""
        claw3 = corpus.claw(3)
        with pytest.raises(NotATubeError, match=re.escape("block {1,2} is not a tube")):
            face_interior_point(claw3, full_tube(claw3), [Tube.of(b) for b in ((1, 2), (0,), (3,))])

    def test_rejects_blocks_outside_the_tube(self, w5):
        with pytest.raises(NotAPartitionError, match="do not cover exactly"):
            face_interior_point(w5, full_tube(w5), [Tube.of((e,)) for e in (*w5.elements, 9)])


class TestStratum:
    def test_canonical_stratum(self, c4):
        from posetahedra.compact import Stratum

        T = Tubing.of(c4, [T12, T123])
        stratum = Stratum.canonical(c4, T)
        assert stratum.dim == 4 - 2 - 2
        point = stratum.point()
        assert point == stratum_point(c4, T)
        assert tubing_of(point).tubes == T.tubes

    def test_interior_is_read_only(self, c4):
        from posetahedra.compact import Stratum

        stratum = Stratum.canonical(c4, Tubing.of(c4, [T12]))
        with pytest.raises(TypeError):
            stratum.interior[full_tube(c4)] = {1: F(0), 2: F(0), 3: F(0), 4: F(0)}
        with pytest.raises(TypeError):
            stratum.interior[T12][1] = F(0)
        assert stratum.point() == stratum_point(c4, Tubing.of(c4, [T12]))

    def test_interior_is_copied(self, c4):
        from posetahedra.compact import Stratum

        T = Tubing.of(c4, [T12])
        interior = {tube: dict(vec) for tube, vec in Stratum.canonical(c4, T).interior.items()}
        stratum = Stratum(T, interior)
        interior[T12][1] = F(5)  # the stratum keeps its own copy
        assert stratum.point() == stratum_point(c4, T)

    def test_dims_sum_identity(self, w5):
        from posetahedra.compact import Stratum
        from posetahedra.tubes import enumerate_proper_tubings

        for T in enumerate_proper_tubings(w5):
            stratum = Stratum.canonical(w5, T)
            assert stratum.dim == 5 - len(T.tubes) - 2


class TestRatioDemo:
    def test_default_targets(self):
        report = ratio_counterexample_demo()
        assert [c.target for c in report.curves] == [F(0), F(1)]
        for t, gap in report.ratio_gap:
            assert gap >= F(1, 2)
        assert report.pair_deviation[-1][1] <= F(1, 10 ** 9)
        for (t1, d1), (t2, d2) in zip(report.limit_deviation, report.limit_deviation[1:]):
            assert d2 < d1

    def test_infinite_target(self):
        report = ratio_counterexample_demo(targets=(F(1), "inf"))
        finite, infinite = report.curves
        assert infinite.target is None
        ratios = [r for _, _, r in infinite.samples]
        assert ratios == sorted(ratios)  # grows without bound as t shrinks
        for (t1, d1), (t2, d2) in zip(report.limit_deviation, report.limit_deviation[1:]):
            assert d2 < d1

    def test_identical_targets_identical_ratios(self):
        report = ratio_counterexample_demo(targets=(F(1, 2), F(1, 2)))
        for t, gap in report.ratio_gap:
            assert gap == 0

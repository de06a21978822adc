"""Proper tubings are served from the masks of the host's one walk, and each
``Tubing`` is built only when read (``tubes.ProperTubings``).

A spy on ``tubes._tubing_key`` sees every tubing built: counting builds
none, not even when it checks f0; an index, a negative index and a slice
build only their own, once.  Items, slices and order equal those of the
copy of the old enumerator in ``oracles``; the sequence equals and hashes
as the eager tuple both ways round, and it pickles as its host and masks.
"""

import pickle

import pytest
from hypothesis import given

import oracles
from posetahedra import corpus, tubes
from posetahedra.lattice import associahedron_face_lattice, f_vector
from posetahedra.tubes import ProperTubings, Tube, Tubing, enumerate_proper_tubings, tubing_walk
from strategies import SETTINGS, connected_posets

HOSTS = corpus.DESK_POSETS
MODES = {"all": False, "maximal": True}
SLICES = [slice(1, 3), slice(None, None, -1), slice(-4, None), slice(2, None, 3),
          slice(9, 1, -2), slice(-1, -6, -1), slice(3, 3), slice(10 ** 6, None)]


@pytest.fixture
def built(monkeypatch):
    """The masks whose tubings are built, in order, on sequences made
    afresh."""
    seen = []
    key = tubes._tubing_key

    def spy(tubes_, mask):
        seen.append(mask)
        return key(tubes_, mask)

    monkeypatch.setattr(tubes, "_tubing_key", spy)
    enumerate_proper_tubings.cache_clear()
    yield seen
    enumerate_proper_tubings.cache_clear()  # drop the sequences whose tubings the spy built


def eager(P, max_only):
    """The old enumerator's tubings, in its order, as ``Tubing``s."""
    return tuple(Tubing(P, tubes_) for tubes_ in oracles.enumerate_proper_tubings(P, Tube, max_only))


def walk_masks(P, max_only):
    found = tubing_walk(P)[1]
    return tuple(m for m in found if not max_only or m.bit_count() == len(P.elements) - 2)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_counting_builds_no_tubing(built, mode):
    """``len`` builds no tubing and leaves the masks in walk order, also
    where f0 is checked against it."""
    max_only = MODES[mode]
    for name, P in HOSTS.items():
        found = enumerate_proper_tubings(P, max_only)
        assert isinstance(found, ProperTubings)
        assert len(found) == len(oracles.enumerate_proper_tubings(P, Tube, max_only)), name
        if max_only:
            assert f_vector(associahedron_face_lattice(P))[0] == len(found), name
        assert found.masks == walk_masks(P, max_only), name  # not sorted yet
    assert built == []


@pytest.mark.parametrize("mode", sorted(MODES))
def test_index_builds_only_its_tubing(built, mode):
    P = HOSTS["h6"]
    old = eager(P, MODES[mode])
    for i in (0, 5, -1, -7, len(old) - 1, -len(old)):
        found = enumerate_proper_tubings.__wrapped__(P, MODES[mode])  # afresh: none built
        start = len(built)
        tubing = found[i]
        assert built[start:] == [found.masks[i]] and tubing == old[i], i
        assert found[i] is tubing and found[i - len(old) if i >= 0 else i + len(old)] is tubing
        assert len(built) == start + 1, i
    for i in (len(old), -len(old) - 1):
        with pytest.raises(IndexError):
            found[i]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_slice_builds_only_its_tubings(built, mode):
    P = HOSTS["h6"]
    old = eager(P, MODES[mode])
    for s in SLICES:
        found = enumerate_proper_tubings.__wrapped__(P, MODES[mode])
        start = len(built)
        got = found[s]
        assert type(got) is tuple and got == old[s], s
        assert built[start:] == [found.masks[p] for p in range(len(old))[s]], s
        assert found[s] == got and len(built) - start == len(got), s  # kept, not rebuilt


def check_matches_the_old_enumerator(P):
    for max_only in MODES.values():
        found = enumerate_proper_tubings.__wrapped__(P, max_only)
        old = oracles.enumerate_proper_tubings(P, Tube, max_only)
        assert [found[i].tubes for i in range(-len(old), 0)] == old, max_only
        assert [T.tubes for T in found] == old, max_only
        for s in SLICES:
            assert [T.tubes for T in found[s]] == old[s], (max_only, s)
        assert tuple(found) == oracles.walk_proper_tubings(P, max_only, tubing_walk.__wrapped__,
                                                           Tubing), max_only
        assert all(T.host is P for T in found)


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_matches_the_old_enumerator(name):
    check_matches_the_old_enumerator(HOSTS[name])


@SETTINGS
@given(connected_posets())
def test_matches_the_old_enumerator_random(P):
    check_matches_the_old_enumerator(P)


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_equals_and_hashes_as_the_eager_tuple(name):
    """Both ways round, read or not; the eager tuple in another order, or
    one tubing short, is unequal both ways round."""
    P = HOSTS[name]
    for max_only in MODES.values():
        old = eager(P, max_only)
        for found in (enumerate_proper_tubings.__wrapped__(P, max_only),
                      enumerate_proper_tubings(P, max_only)):
            assert found == old and old == found and hash(found) == hash(old)
            assert not found != old and not old != found
            assert found == enumerate_proper_tubings.__wrapped__(P, max_only)
            for other in (old[1:], old[::-1] if len(old) > 1 else old + old):
                assert found != other and other != found
            assert found != list(old) and list(old) != found


def test_read_only():
    found = enumerate_proper_tubings(HOSTS["w5"])
    with pytest.raises(TypeError):
        found[0] = found[1]
    with pytest.raises(TypeError):
        del found[0]
    assert not hasattr(found, "__dict__")


@pytest.mark.parametrize("name", ["chain5", "claw4", "h6", "w5"])
def test_pickles_as_host_and_masks(built, name):
    """A copy, pickled before or after any read, equals the original and
    builds its tubings afresh; its pickle holds no tubing."""
    P = HOSTS[name]
    for max_only in MODES.values():
        found = enumerate_proper_tubings.__wrapped__(P, max_only)
        unread = pickle.loads(pickle.dumps(found))
        assert isinstance(unread, ProperTubings) and unread.host == P and built == []
        items = tuple(found)
        read = pickle.loads(pickle.dumps(found))
        assert len(built) == len(items)
        for copy in (unread, read):
            assert copy == found and hash(copy) == hash(found) and tuple(copy) == items
        assert len(built) == 3 * len(items)
        assert len(pickle.dumps(found)) < len(pickle.dumps(items))
        built.clear()

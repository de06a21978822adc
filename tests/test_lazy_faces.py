"""Face keys of tubing lattices are built only when read (``TubingFaces``),
and their cover pairs are read off the masks, never stored (``TubingCovers``).

A spy on ``lattice._tubing_key`` sees every key built: counting the faces,
the gradedness check, the Euler sum and the f- and h-vectors (in the library
and on the command line) build none; the JSON face list builds each key
once; ``faces_of_dim`` builds those of its dimension, and a slice those it
returns.  Slices of the faces and the covers equal those of the eager
oracle lattice.  A family of tubings not closed under dropping a tube fails
the gradedness check.  Subprocess guards bound the memory of claw7's
f-vector and of the count of its maximal tubings.
"""

import gc
import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import oracles
from posetahedra import corpus, lattice
from posetahedra.affine import _class_walk, cyclohedron_face_lattice
from posetahedra.cli import main
from posetahedra.errors import NotGradedError
from posetahedra.lattice import (
    EMPTY,
    TubingCovers,
    TubingFaces,
    associahedron_face_lattice,
    f_vector,
    h_vector,
    tubing_face_lattice,
)
from posetahedra.tubes import Tube, tubing_walk

HOSTS = {"claw4": corpus.claw(4), "h6": corpus.h6(), "chain5": corpus.chain(5)}
AFFINE_HOSTS = {"cchain3": corpus.circular_chain(3), "cclaw3": corpus.circular_claw(3)}
FILES = {"assoc": ('{"covers": [[1,2],[2,3],[3,4],[4,5]]}', corpus.chain(5)),
         "cyclo": ('{"n": 3, "covers": [[1,3],[2,3],[3,4],[3,5]]}', corpus.circular_claw(3))}
LATTICES = {"assoc": associahedron_face_lattice, "cyclo": cyclohedron_face_lattice}


@pytest.fixture
def built(monkeypatch):
    """The masks whose face keys are built, in order, on lattices made
    afresh."""
    seen = []
    key = lattice._tubing_key

    def spy(tubes, mask):
        seen.append(mask)
        return key(tubes, mask)

    monkeypatch.setattr(lattice, "_tubing_key", spy)
    for cache in LATTICES.values():
        cache.cache_clear()
    yield seen
    for cache in LATTICES.values():
        cache.cache_clear()  # drop the lattices whose keys the spy built


def all_lattices():
    return [associahedron_face_lattice(P) for P in HOSTS.values()] + [
        cyclohedron_face_lattice(A) for A in AFFINE_HOSTS.values()]


def test_counts_vectors_and_checks_build_no_key(built):
    for L in all_lattices():
        assert isinstance(L.faces, TubingFaces)
        assert len(L.faces) == len(L.dims) > 1
        f_vector(L)
        h_vector(L)
        L.check_graded()
        assert L.euler_sum() == 0
        assert L.upper_covers(0)
    assert built == []


def test_faces_of_dim_builds_only_its_keys(built):
    for L in all_lattices():
        for d in (0, L.dim):
            start = len(built)
            keys = L.faces_of_dim(d)
            assert len(built) - start == len(keys) == L.dims.count(d)
            assert all(L.dim - mask.bit_count() == d for mask in built[start:])


def test_keys_are_built_once_and_kept(built):
    L = associahedron_face_lattice(HOSTS["h6"])
    first = list(L.faces)
    assert first[0] is EMPTY and len(built) == len(L.faces) - 1
    assert sorted(built) == sorted(L.faces.masks)
    assert all(a is b for a, b in zip(first, L.faces))
    assert L.faces[-1] is first[-1] and len(built) == len(L.faces) - 1
    with pytest.raises(IndexError):
        L.faces[len(L.faces)]


SLICES = [slice(1, 3), slice(None, None, -1), slice(-4, None), slice(2, None, 3),
          slice(9, 1, -2), slice(-1, -6, -1), slice(3, 3), slice(10 ** 6, None)]


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_slices_match_the_eager_lattice(name):
    """A slice of the faces or of the covers is the tuple that the same
    slice of the eager oracle lattice gives."""
    L = associahedron_face_lattice(HOSTS[name])
    faces, _, covers = oracles.associahedron_face_lattice(HOSTS[name], Tube)
    faces = tuple(EMPTY if f is oracles.EMPTY else f for f in faces)
    for s in SLICES:
        assert type(L.faces[s]) is tuple and L.faces[s] == faces[s], s
        assert type(L.covers[s]) is tuple and L.covers[s] == covers[s], s


def test_faces_slice_builds_only_its_keys(built):
    P = HOSTS["h6"]
    for s in SLICES:
        L = associahedron_face_lattice.__wrapped__(P)  # afresh: no key built yet
        start = len(built)
        keys = L.faces[s]
        picked = range(len(L.faces))[s]
        assert built[start:] == [L.faces.masks[p - 1] for p in picked if p], s
        assert keys == tuple(L.faces[p] for p in picked)


@pytest.mark.parametrize("command", sorted(FILES))
@pytest.mark.parametrize("flag", ["--fvector", "--hvector"])
def test_cli_vectors_build_no_key(built, tmp_path, capsys, command, flag):
    path = tmp_path / "host.json"
    path.write_text(FILES[command][0])
    assert main([command, "faces", str(path), flag]) == 0
    assert capsys.readouterr().out.strip()
    assert built == []


@pytest.mark.parametrize("command", sorted(FILES))
def test_cli_json_builds_each_key_once(built, tmp_path, capsys, command):
    text, host = FILES[command]
    path = tmp_path / "host.json"
    path.write_text(text)
    assert main([command, "faces", str(path)]) == 0
    faces = json.loads(capsys.readouterr().out)["faces"]
    L = LATTICES[command](host)
    assert len(faces) == len(L.faces) and len(built) == len(L.faces) - 1
    assert sorted(built) == sorted(L.faces.masks)
    assert main([command, "faces", str(path)]) == 0  # the cached lattice kept its keys
    assert json.loads(capsys.readouterr().out)["faces"] == faces
    assert len(built) == len(L.faces) - 1


def test_key_sequence_is_read_only():
    faces = associahedron_face_lattice(HOSTS["claw4"]).faces
    with pytest.raises(TypeError):
        faces[1] = frozenset()
    with pytest.raises(TypeError):
        del faces[1]
    assert not hasattr(faces, "__dict__")
    # its state is the tubes, the masks and a function; the kept keys are
    # reachable through none of them
    state = [getattr(faces, name) for name in type(faces).__slots__]
    assert [type(value) for value in state[:2]] == [tuple, tuple]
    assert callable(state[2]) and not isinstance(state[2], (list, dict, set, bytearray))
    assert not any(isinstance(getattr(faces, name), (list, dict, set, bytearray))
                   for name in dir(faces) if not name.startswith("__"))


def test_lattice_pickles_without_its_keys(built):
    """A lattice with keys built when read pickles as one with eager keys
    did, and the copy builds its keys afresh."""
    L = cyclohedron_face_lattice(AFFINE_HOSTS["cclaw3"])
    keys = tuple(L.faces)
    copy = pickle.loads(pickle.dumps(L))
    assert isinstance(copy.faces, TubingFaces) and copy == L and hash(copy) == hash(L)
    assert len(built) == 2 * (len(keys) - 1) and tuple(copy.faces) == keys


def test_covers_hold_no_pairs():
    """After the f- and h-vectors and the upper covers have read them, the
    cover sequence still holds only the faces and the dims."""
    for L in all_lattices():
        f_vector(L)
        h_vector(L)
        assert L.upper_covers(0)
        covers = L.covers
        assert isinstance(covers, TubingCovers) and not hasattr(covers, "__dict__")
        assert covers.faces is L.faces and covers.dims is L.dims
        for held in gc.get_referents(covers):
            assert not isinstance(held, (list, dict, set, bytearray)), type(held)
            assert not (isinstance(held, tuple) and any(isinstance(x, tuple) for x in held))
        assert len(covers) == sum(1 for _ in covers) and covers[-1] == tuple(covers)[-1]


def test_lattice_pickles_no_cover_pair():
    """A pickled lattice equals the original, and its covers pickle as the
    faces and dims the lattice pickles anyway: no pair is written."""
    for L in all_lattices():
        copy = pickle.loads(pickle.dumps(L))
        assert copy == L and hash(copy) == hash(L) and copy.covers == L.covers
        assert isinstance(copy.covers, TubingCovers) and copy.covers.faces is copy.faces
        eager = pickle.dumps(type(L)(L.kind, L.dim, L.faces, L.dims, tuple(L.covers)))
        assert len(pickle.dumps(L)) < len(eager)


WALKS = {"chain4": lambda: (*tubing_walk(corpus.chain(4))[:2], 2),
         "cclaw3": lambda: (*_class_walk(corpus.circular_claw(3)), 2)}


@pytest.mark.parametrize("name", sorted(WALKS))
def test_family_missing_a_facet_is_not_graded(name):
    """A tubing family not closed under dropping a tube (the walk less one
    facet) fails the gradedness check, which names the first face, in face
    order, with a cover missing."""
    tubes, masks, dim = WALKS[name]()
    facet = next(mask for mask in masks if mask.bit_count() == 1)
    L = tubing_face_lattice(name, tubes, [mask for mask in masks if mask != facet], dim)
    p = next(p for p, mask in enumerate(L.faces.masks, 1)
             if mask & facet and (mask ^ facet).bit_count() == 1)
    for check in (lambda: f_vector(L), lambda: h_vector(L), L.check_graded,
                  lambda: L.upper_covers(0)):
        with pytest.raises(NotGradedError, match="no upper cover") as failure:
            check()
        assert f"face {L.faces[p]} has no upper cover without" in str(failure.value)


# claw7's f-vector above the interpreter's RSS after imports, in MB.  One-shot
# runs (Python 3.11, Linux x86-64): 53.4 MB when every face key was built
# with the lattice from rank tuples, 25.1 MB with the walk's masks and keys
# built when read.
CLAW7_FVECTOR_MB = 36
CLAW7_FVECTOR = "lattice.f_vector(lattice.associahedron_face_lattice(corpus.claw(7)))[0]"
# The child reads its peak as VmHWM, not ru_maxrss: Linux carries the peak
# of the process that forked it (here the test runner) into ru_maxrss
# across exec, while VmHWM belongs to the child's own address space.
GUARD_CHILD = textwrap.dedent("""
    import resource
    import sys
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    from posetahedra import corpus, lattice, tubes

    def status_kb(field):
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith(field))

    after_imports = status_kb("VmRSS:")
    value = eval(sys.argv[1])
    print(value, (status_kb("VmHWM:") - after_imports) / 1024)
""")


def guarded_run(expression: str) -> tuple[str, float]:
    """Evaluate the expression in a fresh interpreter, capped at 1 GiB of
    address space; return its value as printed and the child's peak RSS
    less its RSS after imports, in MB."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", GUARD_CHILD, expression], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
                         check=True).stdout
    value, grown = out.split()
    return value, float(grown)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_claw7_fvector_memory_guard():
    """A fresh interpreter, capped at 1 GiB of address space, computes
    claw7's f-vector and reports its peak RSS less its RSS after imports."""
    f0, grown = guarded_run(CLAW7_FVECTOR)
    assert int(f0) == 5040
    assert grown < CLAW7_FVECTOR_MB, f"claw7 f-vector grew RSS by {grown} MB"


# The same measure with the cover pairs read off the masks, never stored.
# One-shot runs (Python 3.11, Linux x86-64): 25.0 MB with stored pairs,
# about 6 MB without.
CLAW7_FVECTOR_LAZY_COVERS_MB = 16


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_claw7_fvector_lazy_covers_memory_guard():
    """As ``test_claw7_fvector_memory_guard``, with a bound that only holds
    when no cover pair is stored."""
    f0, grown = guarded_run(CLAW7_FVECTOR)
    assert int(f0) == 5040
    assert grown <= CLAW7_FVECTOR_LAZY_COVERS_MB, f"claw7 f-vector grew RSS by {grown} MB"


# Counting claw7's maximal tubings, by the same measure.  One-shot runs
# (Python 3.11, Linux x86-64): 7.0 MB when every maximal tubing was built as
# a Tubing, 2.5 MB with the walk's masks and tubings built when read.
CLAW7_MAX_TUBINGS_COUNT_MB = 4.5


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_claw7_max_tubings_count_memory_guard():
    """As ``test_claw7_fvector_memory_guard``, for the count of claw7's
    maximal tubings, with a bound that only holds when none is built."""
    count, grown = guarded_run("len(tubes.enumerate_proper_tubings(corpus.claw(7), max_only=True))")
    assert int(count) == 5040
    assert grown <= CLAW7_MAX_TUBINGS_COUNT_MB, f"claw7 count grew RSS by {grown} MB"

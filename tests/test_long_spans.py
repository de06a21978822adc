"""A generator's span costs nothing.

The period budget bounds n, not how far apart the two ends of a generating
relation lie.  Every affine routine reads the shift matrix per residue and
the tube classes per member pair, so a host whose generator spans 10^9
periods runs as fast as one whose generator spans one.
"""

import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from posetahedra.affine import (
    AffineTube,
    build_affine_poset,
    cyclohedron_face_lattice,
    enumerate_affine_tubes,
    interior_witness,
    linear_extension,
)
from posetahedra.lattice import f_vector

K = 10**9


def long_span(k):
    """Period 2: 1 < 2 + 2k and 2 < 3, so the class {1, 2 + 2k} spans k periods."""
    return build_affine_poset(2, [(1, 2 + 2 * k), (2, 3)])


def long_cover(k):
    """Period 2: a chain 1 < 2 < 3 with a redundant relation 1 < 1 + 2k."""
    return build_affine_poset(2, [(1, 2), (2, 3), (1, 1 + 2 * k)])


def test_long_span_in_process():
    start = time.perf_counter()
    A = long_span(K)
    assert linear_extension(A) == {1: 2 * K - 2, 2: 1}
    assert interior_witness(A) == {1: F(2 * K - 3, 4), 2: F(3 - 2 * K, 4)}
    assert enumerate_affine_tubes(A) == (AffineTube((1, 2 + 2 * K)), AffineTube((2, 3)))
    assert f_vector(cyclohedron_face_lattice(A)) == (2, 1)
    assert time.perf_counter() - start < 1


def test_long_redundant_relation_in_process():
    """The relation 1 < 1 + 2k is no cover; its host has the f-vector of k = 1."""
    start = time.perf_counter()
    A = long_cover(K)
    assert A.cover_classes == long_cover(1).cover_classes == ((1, 2), (2, 3))
    assert f_vector(cyclohedron_face_lattice(A)) == f_vector(cyclohedron_face_lattice(long_cover(1)))
    assert time.perf_counter() - start < 1


GUARD_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from posetahedra.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="needs RLIMIT_AS")
@pytest.mark.parametrize("argv", [["faces", "--fvector"], ["realize"]])
def test_long_span_cli_under_a_memory_cap(tmp_path, argv):
    """A fresh interpreter capped at 1 GiB of address space runs the command
    on the host whose class spans 10^9 periods, well inside 30 s."""
    host = tmp_path / "long.json"
    host.write_text(json.dumps({"n": 2, "covers": [[1, 2 + 2 * K], [2, 3]]}))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", GUARD_CHILD, "cyclo", argv[0], str(host),
                           *argv[1:]], capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    if argv == ["realize"]:
        assert json.loads(proc.stdout)["vertices"] == [[f"-{K + 1}/8"], [f"{K + 1}/8"]]
    else:
        assert proc.stdout.split() == ["2", "1"]

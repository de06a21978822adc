"""The output of ``tubes FILE --max-tubings`` is pinned byte for byte.

The sha256 of standard output and the exit code, on four desk hosts; any
change to the tubing walk, to the order in which the maximal tubings are
served or to the command function that moves a tubing, a tube or a byte of
the JSON shows up here.
"""

import hashlib
import json

import pytest

from posetahedra import corpus
from posetahedra.cli import main
from posetahedra.serialize import poset_to_json

HOSTS = {"w5": corpus.w5(), "h6": corpus.h6(), "chain6": corpus.chain(6), "claw5": corpus.claw(5)}

# (number of maximal tubings, sha256 of standard output)
PINS = {
    "w5": (18, "26ebf30a705b7e7cd864e0f7e133235aa78c8fe9d2e06641b042e864ecb7cf1a"),
    "h6": (96, "7b269699eef97fb86e240208d54aee7aeb1bcf482302a6ce3ad8462921c7b08e"),
    "chain6": (42, "816cc770358f0249e6f7849611744140c6566a390b862bd51a8928b3ba00888e"),
    "claw5": (120, "34dda1984a40d9d66dfd88ec3c641794ebaf9e9726c2716a54dafb338335694c"),
}


@pytest.mark.parametrize("host", sorted(PINS))
def test_max_tubings_output_is_pinned(tmp_path, capsys, host):
    path = tmp_path / f"{host}.json"
    path.write_text(json.dumps(poset_to_json(HOSTS[host])))
    code = main(["tubes", str(path), "--max-tubings"])
    out = capsys.readouterr().out
    assert (code, len(json.loads(out)), hashlib.sha256(out.encode()).hexdigest()) == \
        (0, *PINS[host])

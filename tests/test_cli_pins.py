"""The output of the ``faces`` commands is pinned byte for byte.

The sha256 of standard output and the exit code of ``assoc faces`` and
``cyclo faces`` in each of their modes; any change to the tubing walks, the
face-lattice builders or the command functions that moves a face, an order
or a byte of the JSON shows up here.
"""

import hashlib
import json

import pytest

from posetahedra import corpus
from posetahedra.cli import main
from posetahedra.serialize import affine_poset_to_json, poset_to_json

HOSTS = {
    "chain4": poset_to_json(corpus.chain(4)),
    "w5": poset_to_json(corpus.w5()),
    "h6": poset_to_json(corpus.h6()),  # not flag: --flag-check prints a witness
    "cclaw3": affine_poset_to_json(corpus.circular_claw(3)),
    "cchain4": affine_poset_to_json(corpus.circular_chain(4)),
}

PINS = {
    ("assoc", "chain4", ""):
        "21b6a8cfdc0cbf4abb25f6a08bf598543d2358bce40578de0d48c9a03d91cbd0",
    ("assoc", "chain4", "--fvector"):
        "b47731671fb154ae91847fc531b2a471604950a292258c7dedfb300eaf24cf64",
    ("assoc", "chain4", "--hvector"):
        "05c9ace9c0535812f5b5386b05e47ccd1cbd4b5d0b6c330cdb6f32e5938d1fd2",
    ("assoc", "chain4", "--flag-check"):
        "aab8f9e30d2be3468f54d74a015dd13325c69f1f86fb747f6151da4392988bbe",
    ("assoc", "w5", ""):
        "f251d63a773d73c2f40c46aa29f9d9ac996b4961a94b2353531f7216094fee2e",
    ("assoc", "w5", "--fvector"):
        "a6a1cbb02571a6c779b1533530f91ccf9318eb1712b37245cb856b97ff8bf61e",
    ("assoc", "w5", "--hvector"):
        "8dd579d2a3f5de83c9135bc5f80d87550542e6d57612888cf9c64d4edcd2055b",
    ("assoc", "w5", "--flag-check"):
        "aab8f9e30d2be3468f54d74a015dd13325c69f1f86fb747f6151da4392988bbe",
    ("assoc", "h6", ""):
        "4ebf62f74216b611af977a9e7bda371dcc7029896e0bc72945d6e8c9f6b3b1e9",
    ("assoc", "h6", "--fvector"):
        "b990bc62583aae68b26831acca4b4e99dc60fe27b6baf604dd1726ab6ef695ef",
    ("assoc", "h6", "--hvector"):
        "6bf0dc9c90286a089da3caa07d124806cc0933b297d3ed50b1bb797a84eab0c7",
    ("assoc", "h6", "--flag-check"):
        "479d6ae1b68ae3f3b6fc0c7ecb905054891cad17f428f026a6a83ad928afd45b",
    ("cyclo", "cclaw3", ""):
        "b93fcc40ce967f67bab949cdd8d0dd933fde53066cc490cce43173ec716835b5",
    ("cyclo", "cclaw3", "--fvector"):
        "502424c3d81d9bfc4dc47ac6d4b6f41b22d95af1fcd8d54714f38923fab1d8ec",
    ("cyclo", "cclaw3", "--hvector"):
        "aeb1819bf4cf23af4cfecc204601d29e756f1db30a2d41df13548f6102b44af5",
    ("cyclo", "cchain4", ""):
        "20dcb37b93700675217a401232084ae84697c4fe446d1b74121e52109bd5ccfb",
    ("cyclo", "cchain4", "--fvector"):
        "e4572c58b990ecb814a76e965a8094a7e314e8b69c70a1730becd61cdf55412f",
    ("cyclo", "cchain4", "--hvector"):
        "440283dad9cf1103ce5b2333a07284ebc7bd7d86ba4b4a82e71a1daf1a6ad223",
}


@pytest.mark.parametrize("command,host,flag", PINS,
                         ids=[f"{c}-{h}-{f.lstrip('-') or 'json'}" for c, h, f in PINS])
def test_faces_output_is_pinned(tmp_path, capsys, command, host, flag):
    path = tmp_path / f"{host}.json"
    path.write_text(json.dumps(HOSTS[host]))
    code = main([command, "faces", str(path), *filter(None, [flag])])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, PINS[command, host, flag])

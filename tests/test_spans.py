"""Every library function that the benchmark's tracer wraps still exists.

``perfbench/spans.py`` names them as "module.function" or
"module.Class.method", and a traced run stops when one is missing.  Each
name is resolved here as the tracer resolves it, without installing the
tracer, so a change that removes or renames one fails the tests first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).parents[1] / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


@pytest.mark.parametrize("qualname", spans.SPANNED + spans.COUNTED)
def test_traced_name_resolves(qualname):
    module_name, *path = qualname.split(".")
    owner = importlib.import_module(f"posetahedra.{module_name}")
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        assert owner is not None, qualname
    assert callable(getattr(owner, path[-1], None)), qualname

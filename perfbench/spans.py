"""In-memory span tracer installed around the library's public functions.

The tracer wraps functions from outside the library: each wrapper replaces
the original in every loaded ``posetahedra.*`` module namespace that binds
it, because modules import each other's functions by name (``geometry``
calls its own ``affine_rank``, not ``linalg.affine_rank``).  Spans are kept
in memory and written as JSON lines after the pass; self time is derived
afterwards from the parent links.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Span-timed functions, as "module.function".
SPANNED = (
    "geometry.lattice_match",
    "geometry.rebuild_from_lattice",
    "geometry.stellar_subdivide",
    "geometry.admissible_tubings",
    "polytope.polytope_from_data",
    "polytope.facet_through",
    "polytope.polar_dual",
    "linalg.affine_rank",
    "linalg.hyperplane_through",
    "affine.affine_admissible_tubings",
    "affine.cyclohedron_face_lattice",
    "affine.realize_affine_cyclohedron",
    "compact.is_coherent",
    "compact.tubing_of",
    "compact.expand",
    "compact.collapse",
    "compact.t_max",
    "compact.stratum_point",
    "poset.res",
    "poset.build_poset",
    "tubes.enumerate_tubes",
    "tubes.enumerate_proper_tubings",
    "tubes.is_tubing",
    "tubes.tubing_tree",
    "lattice.associahedron_face_lattice",
    "lattice.f_vector",
    "lattice.h_vector",
    "lattice.is_flag_dual",
    "lattice.tubing_partitions",
    "lattice.order_polytope_face_lattice",
    "serialize.polytope_to_json",
    "serialize.dumps",
)

# Functions only counted: they run millions of times, and a span each would
# cost more than the work they do.
COUNTED = (
    "geometry.AdmissiblePoset.le",
    "poset.alpha",
)


def _faces(lattice) -> int:
    return len(lattice.faces)


# Counters fed from a function's result: (counter, function, measure).
RESULT_COUNTS = (
    ("geometry.admissible.count", "geometry.admissible_tubings", lambda adm: len(adm.elements)),
    ("geometry.stages", "geometry.stellar_subdivide", lambda _: 1),
    ("tubes.tubings", "tubes.enumerate_proper_tubings", len),
    ("lattice.faces", "lattice.associahedron_face_lattice", _faces),
    ("lattice.faces", "lattice.order_polytope_face_lattice", _faces),
    ("serialize.bytes", "serialize.dumps", len),
)


class MissingFunction(RuntimeError):
    """A listed function no longer exists; the layer cannot be measured."""


class Tracer:
    """Records spans while ``active``; one instance per traced pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.active = False
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, start, end, parent, raised)
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for qualname in SPANNED:
            self._replace(qualname, self._spanned)
        for qualname in COUNTED:
            self._replace(qualname, self._counted)

    def _replace(self, qualname: str, make) -> None:
        module_name, *path = qualname.split(".")
        module = importlib.import_module(f"posetahedra.{module_name}")
        owner = module
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                raise MissingFunction(qualname)
        original = getattr(owner, path[-1], None)
        if not callable(original):
            raise MissingFunction(qualname)
        wrapper = functools.wraps(original)(make(qualname, original))
        targets = [(owner, path[-1])]
        if owner is module:
            targets = [
                (mod, attr)
                for name, mod in list(sys.modules.items())
                if name == "posetahedra" or name.startswith("posetahedra.")
                for attr, value in list(vars(mod).items())
                if value is original
            ]
        for target, attr in targets:
            setattr(target, attr, wrapper)

    def _counted(self, qualname: str, original):
        counts = self.counts
        key = f"{qualname}.calls"
        counts[key] = 0
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def _spanned(self, qualname: str, original):
        index = len(self.names)
        self.names.append(qualname)
        measures = [(c, m) for c, f, m in RESULT_COUNTS if f == qualname]
        for counter, _ in measures:
            self.counts[counter] = 0
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            raised = True
            start = clock()
            try:
                result = original(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, raised)
            for counter, measure in measures:
                counts[counter] += measure(result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per function: inclusive seconds, self seconds and call count.

        Inclusive time counts only the outermost span of each function, so
        recursion is not counted twice; self time subtracts the direct
        children of each span.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for qualname in self.names:
            out[f"{qualname}.s"] = 0.0
            out[f"{qualname}.self_s"] = 0.0
            out[f"{qualname}.calls"] = 0
        for slot, (index, start, end, parent, _) in enumerate(self.spans):
            qualname = self.names[index]
            out[f"{qualname}.calls"] += 1
            out[f"{qualname}.self_s"] += end - start - child_time[slot]
            if not self._has_ancestor(parent, index):
                out[f"{qualname}.s"] += end - start
        out.update(self.counts)
        return out

    def _has_ancestor(self, slot: int, index: int) -> bool:
        while slot >= 0:
            span = self.spans[slot]
            if span[0] == index:
                return True
            slot = span[3]
        return False

    def write_jsonl(self, stream) -> None:
        for slot, (index, start, end, parent, raised) in enumerate(self.spans):
            stream.write(json.dumps({
                "span": slot, "name": self.names[index], "start": start, "end": end,
                "parent": parent, "pass": self.pass_id, "raised": raised,
            }) + "\n")

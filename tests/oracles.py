"""Independent brute-force oracles for the test suite.

Everything here is written from the definitions with no imports from the
package, so disagreements point at real bugs rather than shared mistakes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace


def closure(pairs):
    """Strict order pairs generated by the given relations (set of (i, j))."""
    rel = set(tuple(p) for p in pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return rel


def elements_of(pairs):
    return sorted({x for p in pairs for x in p})


def hasse(pairs):
    """Transitive reduction of the closure."""
    rel = closure(pairs)
    return sorted(
        (a, b) for a, b in rel
        if not any((a, m) in rel and (m, b) in rel for m in elements_of(pairs))
    )


def convex(rel, subset, universe):
    subset = set(subset)
    for j in universe:
        if j in subset:
            continue
        below = any((i, j) in rel for i in subset)
        above = any((j, k) in rel for k in subset)
        if below and above:
            return False
    return True


def connected(hasse_pairs, subset):
    subset = set(subset)
    if not subset:
        return False
    edges = [(a, b) for a, b in hasse_pairs if a in subset and b in subset]
    seen = {next(iter(sorted(subset)))}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            w = b if a == v else a if b == v else None
            if w is not None and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen == subset


def tubes(pairs, proper=False):
    universe = elements_of(pairs)
    rel = closure(pairs)
    hp = hasse(pairs)
    out = []
    for r in range(1, len(universe) + 1):
        if proper and not 1 < r < len(universe):
            continue
        for combo in itertools.combinations(universe, r):
            if convex(rel, combo, universe) and connected(hp, combo):
                out.append(tuple(combo))
    return out


def digraph_has_cycle(adjacency):
    color = {v: 0 for v in adjacency}

    def dfs(v):
        color[v] = 1
        for w in adjacency[v]:
            if color[w] == 1 or (color[w] == 0 and dfs(w)):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and dfs(v) for v in adjacency)


def tubing_ok(pairs, chosen):
    rel = closure(pairs)
    chosen = [frozenset(t) for t in chosen]
    for a, b in itertools.combinations(chosen, 2):
        if not (a <= b or b <= a or not (a & b)):
            return False
    adjacency = {
        a: [
            b for b in chosen
            if a != b and not (a & b) and any((i, j) in rel for i in a for j in b)
        ]
        for a in chosen
    }
    return not digraph_has_cycle(adjacency)


def tubings(pairs, proper_tubes_list):
    """All tubings over the given tube list (exponential: keep lists short)."""
    out = []
    for r in range(len(proper_tubes_list) + 1):
        for combo in itertools.combinations(proper_tubes_list, r):
            if tubing_ok(pairs, combo):
                out.append(frozenset(frozenset(t) for t in combo))
    return out


def admissible_le(adm, a, b):
    """Face order of admissible tubings as the per-pair loop over tubes.

    The definition the bitset index of ``geometry.AdmissiblePoset`` must match:
    melted tubes persist, frozen tubes may coarsen.
    """
    for t in a:
        if t in adm.melted:
            if t not in b:
                return False
        elif not any(t.issubset(s) for s in b if s not in adm.melted):
            return False
    return True


def affine_admissible_le(adm, a, b, class_contains):
    """The same order on periodic tubings; class_contains(A, outer, inner)."""
    for t in a:
        if adm.is_melted(t):
            if t not in b:
                return False
        elif not any(
            (not adm.is_melted(s)) and class_contains(adm.host, s, t) for s in b
        ):
            return False
    return True


# -- the compactification kernels before they ran on integers ---------------


def nested_pairs(tubes):
    """Every nested pair (inner, outer) of the given tubes, not only covers.

    ``tubes`` is the list of non-singleton tubes, sorted by (size, members).
    """
    pairs = []
    for inner, outer in itertools.permutations(tubes, 2):
        if inner.issubset(outer) and inner != outer:
            pairs.append((inner, outer))
    return tuple(pairs)


def is_coherent(c, pairs):
    """The nested-projection test on Fractions over the given pairs."""
    for inner, outer in pairs:
        big = c[outer]
        mean = sum((big[i] for i in inner.members), Fraction(0)) / len(inner)
        z = c[inner]
        pivot = next((i for i in inner.members if z[i] != 0), None)
        if pivot is None:  # zero component: not an order-polytope point
            return False, (inner, outer)
        zp = z[pivot]
        yp = big[pivot] - mean
        if yp * zp < 0:
            return False, (inner, outer)
        for i in inner.members:
            if (big[i] - mean) * zp != yp * z[i]:
                return False, (inner, outer)
    return True, None


def res(covers, members, x):
    """Normalized restriction on Fractions: centre on the subset, then divide
    by the sum of x_j - x_i over the covers inside it.  Returns None where
    that sum vanishes (the library raises DegenerateError there)."""
    members = tuple(sorted(set(members)))
    inside = set(members)
    scale = Fraction(0)
    for i, j in covers:
        if i in inside and j in inside:
            scale += Fraction(x[j]) - Fraction(x[i])
    if scale == 0:
        return None
    mean = sum((Fraction(x[i]) for i in members), Fraction(0)) / len(members)
    return {i: (Fraction(x[i]) - mean) / scale for i in members}


# -- the nesting tree before it was built in one sweep -----------------------


def tubing_tree(T, Tube):
    """The nesting tree of a tubing as (parent, children) plain dicts.

    Each node's parent is the smallest strictly larger node containing it,
    found by a search over all nodes.  ``Tube`` is the tube class; the full
    poset is the tube of all its elements.
    """
    P = T.host
    root = Tube(tuple(P.elements))
    nodes = {root} | set(T.tubes) | {Tube((e,)) for e in P.elements}
    ordered = sorted(nodes, key=lambda t: (-len(t), t.members))
    parent = {}
    for t in ordered:
        if t == root:
            continue
        candidates = [s for s in ordered if t != s and t.issubset(s)]
        parent[t] = min(candidates, key=lambda s: (len(s), s.members))
    children = {t: [] for t in ordered}
    for t, p in parent.items():
        children[p].append(t)
    children_t = {t: tuple(sorted(c, key=Tube.key)) for t, c in children.items()}
    return parent, children_t


# -- the Fraction row reduction that charts, solves and hyperplanes once used --


def rref(rows, ncols):
    """Reduced row echelon form and the pivot column indices."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def nullspace(rows, ncols):
    """Basis of the kernel; one vector per free column, free entry set to 1."""
    mat, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def rank(rows, ncols):
    return len(rref(rows, ncols)[1])


class LinAlgError(Exception):
    pass


def solve_unique(rows, rhs):
    """Solve A x = b when the solution exists and is unique."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    mat, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        raise LinAlgError("inconsistent system")
    if len(pivots) < ncols:
        raise LinAlgError("underdetermined system")
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = mat[r][ncols]
    return sol


def hyperplane_through(points):
    """The unique hyperplane n.x = b through the points, or None.

    Returns None when the points do not affinely span a hyperplane
    (codimension != 1).  The scale/orientation of (n, b) is arbitrary.
    """
    points = list(points)
    if not points:
        return None
    d = len(points[0])
    rows = [list(p) + [Fraction(-1)] for p in points]
    basis = nullspace(rows, d + 1)
    if len(basis) != 1:
        return None
    vec = basis[0]
    normal, offset = vec[:d], vec[d]
    if all(x == 0 for x in normal):
        return None
    return normal, offset


def primitive(normal, offset):
    """Scale (n, b) by a positive rational so entries are coprime integers."""
    entries = list(normal) + [offset]
    lcm = 1
    for e in entries:
        if e != 0:
            d = e.denominator
            lcm = lcm * d // _gcd(lcm, d)
    scaled = [e * lcm for e in entries]
    g = 0
    for e in scaled:
        g = _gcd(g, abs(e.numerator))
    if g > 1:
        scaled = [e / g for e in scaled]
    return scaled[:-1], scaled[-1]


def _gcd(a, b):
    a, b = int(a), int(b)
    while b:
        a, b = b, a % b
    return a


def oriented_facet(vertices, tight_ids):
    """(normal, offset) of the facet through the tight vertices, primitive
    and oriented with every other vertex beneath, or None when the tight
    vertices span no supporting hyperplane."""
    tight = set(tight_ids)
    plane = hyperplane_through([vertices[i] for i in sorted(tight)])
    if plane is None:
        return None
    normal, offset = plane
    values = [sum(n * x for n, x in zip(normal, v)) - offset
              for i, v in enumerate(vertices) if i not in tight]
    if not values or (any(x > 0 for x in values) and any(x < 0 for x in values)):
        return None
    if any(x > 0 for x in values):
        normal, offset = [-n for n in normal], -offset
    normal, offset = primitive(normal, offset)
    return tuple(normal), offset


# -- the tubing walks before they ran on one bitset tube complex -------------
#
# Copies of enumerate_proper_tubings (with creates_cycle), is_flag_dual and
# associahedron_face_lattice as they were, with the helpers they used.  The
# host enters only through its cover pairs and ``Tube`` is the tube class,
# so nothing here comes from the package.


def proper_tubes(P, Tube):
    """The proper tubes of P as ``Tube``s, in (size, members) order."""
    return [Tube(members) for members in tubes(P.covers, proper=True)]


def _nested_or_disjoint(a, b):
    return a.issubset(b) or b.issubset(a) or a.isdisjoint(b)


def _has_arrow(rel, a, b):
    """True iff some i in a is strictly below some j in b."""
    return any((i, j) in rel for i in a for j in b)


def _find_cycle(adjacency):
    done = set()
    for start in adjacency:
        if start in done:
            continue
        path, on_path = [start], {start}
        branches = [iter(adjacency[start])]
        while branches:
            for w in branches[-1]:
                if w in on_path:
                    return path[path.index(w):]
                if w not in done:
                    path.append(w)
                    on_path.add(w)
                    branches.append(iter(adjacency[w]))
                    break
            else:
                v = path.pop()
                on_path.discard(v)
                done.add(v)
                branches.pop()
    return None


def _d_graph(rel, tubes_, Tube):
    tubes_ = sorted(set(tubes_), key=Tube.key)
    out = {}
    for a in tubes_:
        targets = [b for b in tubes_ if a != b and a.isdisjoint(b) and _has_arrow(rel, a, b)]
        out[a] = tuple(targets)
    return out


def _is_tubing(rel, tubes_, Tube):
    tubes_ = sorted(set(tubes_), key=Tube.key)
    for a, b in itertools.combinations(tubes_, 2):
        if not _nested_or_disjoint(a, b):
            return False
    return _find_cycle(_d_graph(rel, tubes_, Tube)) is None


def _tubing_key(ts, Tube):
    return (len(ts), tuple(t.members for t in sorted(ts, key=Tube.key)))


def enumerate_proper_tubings(P, Tube, max_only=False):
    """Proper tubings as frozensets of ``Tube``s, in the library's order."""
    rel = closure(P.covers)
    tubes_ = proper_tubes(P, Tube)
    n = len(tubes_)
    target = len(elements_of(P.covers)) - 2
    compat = [[_nested_or_disjoint(a, b) for b in tubes_] for a in tubes_]
    arrow = [[a != b and a.isdisjoint(b) and _has_arrow(rel, a, b) for b in tubes_]
             for a in tubes_]

    chosen = []
    succ = {}
    results = []

    def creates_cycle(i):
        seen = set()
        stack = list(succ[i])
        while stack:
            v = stack.pop()
            if v == i:
                return True
            if v not in seen:
                seen.add(v)
                stack.extend(succ[v])
        return False

    def extend(start):
        if not max_only or len(chosen) == target:
            results.append(frozenset(tubes_[k] for k in chosen))
        if len(chosen) == target:
            return
        for i in range(start, n):
            if not all(compat[i][j] for j in chosen):
                continue
            succ[i] = {j for j in chosen if arrow[i][j]}
            for j in chosen:
                if arrow[j][i]:
                    succ[j].add(i)
            if not creates_cycle(i):
                chosen.append(i)
                extend(i + 1)
                chosen.pop()
            for j in chosen:
                succ[j].discard(i)
            del succ[i]

    extend(0)
    results.sort(key=lambda ts: _tubing_key(ts, Tube))
    return results


def is_flag_dual(P, Tube):
    """(ok, witness): witness is None when every pairwise compatible family
    of proper tubes is a tubing."""
    rel = closure(P.covers)
    tubes_ = proper_tubes(P, Tube)
    n = len(tubes_)
    pair_ok = [[_is_tubing(rel, (a, b), Tube) for b in tubes_] for a in tubes_]
    chosen = []
    witness = []

    def subsets_are_tubings(idxs):
        return all(
            _is_tubing(rel, [tubes_[k] for k in idxs if k != drop], Tube) for drop in idxs
        )

    def extend(start):
        for i in range(start, n):
            if not all(pair_ok[i][j] and pair_ok[j][i] for j in chosen):
                continue
            candidate = chosen + [i]
            if _is_tubing(rel, [tubes_[k] for k in candidate], Tube):
                chosen.append(i)
                if extend(i + 1):
                    return True
                chosen.pop()
            elif len(candidate) >= 3 and subsets_are_tubings(candidate):
                witness.append(tuple(tubes_[k] for k in candidate))
                return True
        return False

    if extend(0):
        return False, witness[0]
    return True, None


EMPTY = None  # the empty face in the oracle lattice


def associahedron_face_lattice(P, Tube):
    """(faces, dims, covers) with the empty face as ``EMPTY``."""
    n = len(elements_of(P.covers))
    tubings_ = enumerate_proper_tubings(P, Tube)
    keyed = {EMPTY: -1}
    for T in tubings_:
        keyed[T] = n - len(T) - 2
    covers = []
    for T in tubings_:
        for t in T:
            covers.append((T, T - {t}))
        if len(T) == n - 2:
            covers.append((EMPTY, T))
    return _lattice_of(keyed, covers)


def _lattice_of(keyed, covers):
    """(faces, dims, covers) as the old library's ``_build`` assembled them."""

    def face_sort_key(item):
        key, dim = item
        if key is EMPTY:
            return (dim, ())
        return (dim, tuple(sorted(t.members for t in key)))

    def id_key(key):
        if key is EMPTY:
            return ("EMPTY",)
        return ("SET", frozenset(key))

    items = sorted(keyed.items(), key=face_sort_key)
    faces = tuple(k for k, _ in items)
    dims = tuple(d for _, d in items)
    index = {id_key(k): i for i, k in enumerate(faces)}
    cover_pairs = tuple(sorted((index[id_key(a)], index[id_key(b)]) for a, b in covers))
    return faces, dims, cover_pairs


def cyclohedron_face_lattice(n, tubings):
    """(faces, dims, covers) of the cyclohedron of a period-n host, built
    from its proper periodic tubings (frozensets of class representatives)
    by the old library code."""
    keyed = {EMPTY: -1}
    for T in tubings:
        keyed[T] = n - len(T) - 1
    covers = []
    for T in tubings:
        for c in T:
            covers.append((T, T - {c}))
        if len(T) == n - 1:
            covers.append((EMPTY, T))
    return _lattice_of(keyed, covers)


def _partition_le(coarse, fine) -> bool:
    """face(coarse) inside face(fine): every fine block inside a coarse block."""
    if coarse is EMPTY:
        return True
    if fine is EMPTY:
        return False
    return all(any(f.issubset(c) for c in coarse) for f in fine)


def tubing_partitions(P, members, strict_blocks, enumerate_tubes, find_cycle, d_graph):
    """The old ``lattice.tubing_partitions`` (its cache left out), which ran
    ``d_graph`` and ``find_cycle`` on every partition."""
    ground = tuple(P.elements) if members is None else members
    inside = [t for t in enumerate_tubes(P) if t.as_set <= set(ground)]
    results = []
    chosen = []

    def extend(remaining: frozenset[int]) -> None:
        if not remaining:
            blocks = frozenset(chosen)
            if strict_blocks and len(blocks) == 1:
                return
            if len(blocks) > 1 and find_cycle(d_graph(P, blocks)) is not None:
                return
            results.append(blocks)
            return
        smallest = min(remaining)
        for t in inside:
            if smallest in t and t.as_set <= remaining:
                chosen.append(t)
                extend(remaining - t.as_set)
                chosen.pop()

    extend(frozenset(ground))
    results.sort(key=lambda bs: (len(bs), tuple(sorted(t.members for t in bs))))
    return tuple(results)


def order_polytope_face_lattice(n, parts):
    """(faces, dims, covers) of the order polytope of an n-element poset,
    built from its tubing partitions by the old library code: every pair of
    partitions in adjacent dimensions is compared block by block."""
    keyed = {}
    for T in parts:
        keyed[EMPTY if len(T) == 1 else T] = len(T) - 2
    by_dim = {}
    for key, d in keyed.items():
        by_dim.setdefault(d, []).append(key)
    covers = []
    for d in sorted(by_dim):
        if d + 1 not in by_dim:
            continue
        for lo in by_dim[d]:
            for hi in by_dim[d + 1]:
                if _partition_le(lo, hi):
                    covers.append((lo, hi))
    return _lattice_of(keyed, covers)


# -- affine tube classes ------------------------------------------------------
#
# A copy of enumerate_affine_tubes as it was, when it searched once for each
# value of proper_only.  The package's tube constructor, its error, the tube
# class and the line class enter as arguments.


def enumerate_affine_tubes(A, proper_only, make_affine_tube, NotATubeError, AffineTube, FULL):
    n, s = A.n, max(A.n, max(abs(s) for s in A.atom_spans))
    window = range(1, n + max(0, (n - 1)) * s + 1)
    found = []
    sizes = range(2 if proper_only else 1, n + 1)
    for size in sizes:
        for combo in itertools.combinations(window, size):
            if combo[0] > n:
                continue
            try:
                tube = make_affine_tube(A, combo)
            except NotATubeError:
                continue
            if tube.members == combo:
                found.append(tube)
    found = sorted(set(found), key=AffineTube.key)
    if not proper_only:
        found.append(FULL)
    return tuple(found)


# A copy of the Hasse diagram of AffinePoset as it was, when each call ran the
# cover test on every atom span.  The host enters as the first argument.


def cover_successors(A, i):
    out = []
    for span in A.atom_spans:
        j = i + span
        if A.lt(i, j) and A.is_cover(i, j):
            out.append(j)
    return tuple(sorted(set(out)))


def cover_classes(A):
    pairs = []
    for i in range(1, A.n + 1):
        pairs.extend((i, j) for j in cover_successors(A, i))
    return tuple(sorted(pairs))


def hasse_neighbors(A, i):
    ups = cover_successors(A, i)
    downs = []
    for span in A.atom_spans:
        j = i - span
        if A.lt(j, i) and A.is_cover(j, i):
            downs.append(j)
    return tuple(sorted(set(ups) | set(downs)))


# Copies of the affine cover and convexity tests as they were, when both
# listed every element strictly between two elements.  The host enters as
# the first argument.


def between(A, i, j):
    """All m with i < m < j strictly."""
    out = []
    for r in range(1, A.n + 1):
        lo = A.shift(i) + A.minshift[A.residue(i) - 1][r - 1]
        hi = A.shift(j) - A.minshift[r - 1][A.residue(j) - 1]
        for d in range(lo, hi + 1):
            m = r + d * A.n
            if m != i and m != j:
                out.append(m)
    return sorted(out)


def is_cover(A, i, j):
    return A.lt(i, j) and not between(A, i, j)


def affine_convex(A, members):
    """No element outside the members lies strictly between two of them."""
    members = set(members)
    return not any(A.lt(i, j) and any(m not in members for m in between(A, i, j))
                   for i, j in itertools.permutations(members, 2))


# A copy of class_contains as it was, when every pair of classes went
# through the shift scan, whatever their sizes.


def class_contains(A, outer, inner):
    """Some instance of outer contains the canonical instance of inner."""
    if outer.is_full:
        return True
    if inner.is_full:
        return False
    lo = (max(inner.members) - max(outer.members)) // A.n
    hi = (min(inner.members) - min(outer.members)) // A.n
    return any(inner.as_set <= outer.instance(d, A.n) for d in range(lo, hi + 1))


def affine_root_partitions(A, enumerate_affine_tubes, residues_of, AffineTube, _acyclic):
    """The old ``affine._affine_root_partitions`` (its cache left out), with
    its own backtracker over residue sets."""
    classes = enumerate_affine_tubes(A, proper_only=False)
    finite = [c for c in classes if not c.is_full]
    by_residue: dict[int, list[AffineTube]] = {r: [] for r in range(1, A.n + 1)}
    for cls in finite:
        by_residue[min(residues_of(A, cls))].append(cls)
    out: list[tuple[AffineTube, ...]] = []
    chosen: list[AffineTube] = []

    def extend(uncovered: frozenset[int]) -> None:
        if not uncovered:
            # blocks on disjoint residues are laminar, so only cycles can fail
            blocks = tuple(sorted(chosen, key=AffineTube.key))
            if _acyclic(A, blocks):
                out.append(blocks)
            return
        r = min(uncovered)
        for cls in by_residue[r]:
            rs = residues_of(A, cls)
            if rs <= uncovered:
                chosen.append(cls)
                extend(uncovered - rs)
                chosen.pop()

    extend(frozenset(range(1, A.n + 1)))
    return tuple(out)

# -- the compactification kernel on Tube-keyed rows ---------------------------
#
# The kernel as it was before it ran on tube positions: rows keyed by Tube,
# strata as tubing trees.  The bodies are copies of the old functions; the
# lines that differ are marked.  The package's unchanged pieces enter as
# arguments, and a point is the tuple (host, rows, tree).


def tube_keyed_kernel(Tube, Tubing, tubing_tree, is_tubing, homogeneous, has_arrow,
                      full_tube, nonsingleton_tubes, NotAdjacentError, NotInCollError,
                      RangeError, WrongFaceError, DegenerateError):
    """The old ``stratum_point``, ``t_max``, ``expand`` and ``collapse``;
    ``t_max`` returns ``float("inf")`` where it is unbounded."""

    class Point(tuple):  # marked: stands for ConfigPoint._trusted
        host = property(lambda self: self[0])
        rows = property(lambda self: self[1])
        tree = property(lambda self: self[2])

        @property
        def tubing(self):
            n = len(self.host.elements)
            return Tubing(self.host, frozenset(t for t in self.tree.parent if 1 < len(t) < n))

    def res_cleared(covers, members, num):
        scale = sum(num[j] - num[i] for i, j in covers)
        if scale == 0:
            raise DegenerateError(
                f"alpha vanishes on {list(members)}; coordinates are constant there"
            )
        k = len(members)
        total = sum(num[i] for i in members)
        den = k * scale
        tops = [k * num[i] - total for i in members]
        g = math.gcd(den, *tops)
        if den < 0:
            g = -g
        return (*(top // g for top in tops), den // g)

    def _host_index(P):  # marked: only the tables the fill reads
        tubes = nonsingleton_tubes(P)
        inside = {top: tuple(t for t in tubes if t.as_set < top.as_set) for top in tubes}
        covers = {t: tuple(P.covers_within(t.members)) for t in tubes}
        return SimpleNamespace(inside=inside, covers=covers)

    def _row(tube, vec):
        return homogeneous([vec[i] for i in tube.members])

    def _check_polytope_point(P, tube, vec):
        if set(vec) != tube.as_set:
            raise ValueError(f"component {tube} has wrong index set")
        row = _row(tube, vec)
        num = dict(zip(tube.members, row))  # zip drops D
        covers = P.covers_within(tube.members)
        if sum(num.values()) != 0:
            raise ValueError(f"component {tube} does not sum to zero")
        if sum(num[j] - num[i] for i, j in covers) != row[-1]:
            raise ValueError(f"component {tube} is not normalized")
        for i, j in covers:
            if num[i] > num[j]:
                raise ValueError(f"component {tube} is not order-preserving")
        return row

    def _level_blocks(P, members, x):
        unseen = set(members)
        blocks = []
        while unseen:
            start = min(unseen)
            level = x[start]
            comp = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for w in P.hasse_adjacency[v]:
                    if w in unseen and w not in comp and x[w] == level:
                        comp.add(w)
                        stack.append(w)
            unseen -= comp
            blocks.append(Tube(tuple(sorted(comp))))
        return frozenset(blocks)

    def _fill_from_tree(P, tree, rows, top=None):
        def owner_of(node):
            """Each element of the node mapped to the child holding it."""
            return {e: child for child in tree.children[node] for e in child.members}

        index = _host_index(P)
        top = tree.root if top is None else top
        owners = {top: owner_of(top)}
        nums = {}
        for tube in index.inside[top]:
            first, members = tube.members[0], tube.as_set
            node, owner = top, owners[top]
            while members <= (below := owner[first]).as_set:
                node = below
                if tube in rows:
                    break
                owner = owners.get(node)
                if owner is None:
                    owner = owners[node] = owner_of(node)
            if node is not top and tube in rows:  # a tree node, or carried
                continue
            num = nums.get(node)
            if num is None:
                # zip drops the common denominator that ends the row
                num = nums[node] = dict(zip(node.members, rows[node]))
            rows[tube] = res_cleared(index.covers[tube], tube.members, num)
        return Point((P, rows, tree))  # marked

    def _synthesize(P, T, tree, interior):
        rows = {}
        for tube in sorted(set(T.tubes) | {full_tube(P)}, key=Tube.key):
            if tube not in interior:
                raise WrongFaceError(f"missing interior point for {tube}")
            row = rows[tube] = _check_polytope_point(
                P, tube, {i: Fraction(v) for i, v in interior[tube].items()})  # marked: frac
            expected = frozenset(tree.children[tube])
            if _level_blocks(P, tube.members, dict(zip(tube.members, row))) != expected:
                raise WrongFaceError(
                    f"point for {tube} is constant on the wrong blocks"
                )
        return _fill_from_tree(P, tree, rows)

    def face_interior_point(P, tube, blocks):
        order = sorted(blocks, key=Tube.key)
        before = {b: {a for a in order if a != b and has_arrow(P, a, b)} for b in order}
        placed = set()
        height = {}
        for level in range(len(order)):
            b = next(b for b in order if b not in placed and before[b] <= placed)
            placed.add(b)
            height.update(dict.fromkeys(b.members, level))
        return res(P.covers, tube.members, height)  # marked: this module's res

    def canonical(P, T):  # marked: Stratum.canonical, returning (tree, interior)
        tree = tubing_tree(T)
        interior = {
            tube: face_interior_point(P, tube, tree.children[tube])
            for tube in sorted(set(T.tubes) | {full_tube(P)}, key=Tube.key)
        }
        return tree, interior

    def stratum_point(P, T):  # marked: Stratum.canonical(P, T).point()
        tree, interior = canonical(P, T)
        return _synthesize(P, T, tree, interior)

    def _boundary_pairs(P, tau, tau_plus):
        outside = tau_plus.as_set - tau.as_set
        up = [(i, j) for i in tau for j in outside if P.lt(i, j)]
        down = [(j, i) for j in outside for i in tau if P.lt(j, i)]
        return up, down

    def _require_adjacent(c, tau, tau_plus):
        tree = c.tree
        if tau not in tree.children or len(tau) < 2:
            raise NotAdjacentError(f"{tau} is not a non-singleton stratum tube")
        if tree.parent.get(tau) != tau_plus:
            raise NotAdjacentError(f"{tau_plus} is not the parent of {tau}")

    def _t_max_core(c, tau, tau_plus, up, down):
        v = dict(zip(tau.members, c.rows[tau]))
        u = dict(zip(tau_plus.members, c.rows[tau_plus]))
        ratios = [(v[i], u[j] - u[i]) for i, j in up] + [(-v[i], u[i] - u[j]) for j, i in down]
        top, gap = 0, 1  # the largest ratio so far, top / gap with gap > 0
        for n, g in ratios:
            if n * gap > top * g:
                top, gap = n, g
        if top == 0:
            return float("inf")
        return Fraction(c.rows[tau][-1] * gap, c.rows[tau_plus][-1] * top)

    def t_max(c, tau, tau_plus):
        _require_adjacent(c, tau, tau_plus)
        up, down = _boundary_pairs(c.host, tau, tau_plus)
        return _t_max_core(c, tau, tau_plus, up, down)

    def expand(c, tau, tau_plus, t):
        t = Fraction(t)  # marked: frac
        _require_adjacent(c, tau, tau_plus)
        P = c.host
        if t < 0 or t >= _t_max_core(c, tau, tau_plus, *_boundary_pairs(P, tau, tau_plus)):
            raise RangeError(f"need 0 <= t < t_max, got {t}")
        if t == 0:
            return c
        u, v = c.rows[tau_plus], c.rows[tau]
        num = {i: n * v[-1] * t.denominator for i, n in zip(tau_plus.members, u)}
        for i, n in zip(tau.members, v):
            num[i] += n * u[-1] * t.numerator
        rows = c.rows.copy()
        rows[tau_plus] = res_cleared(_host_index(P).covers[tau_plus], tau_plus.members, num)
        tree = tubing_tree(Tubing(P, c.tubing.tubes - {tau}))
        return _fill_from_tree(P, tree, rows, tau_plus)

    def collapse(c, tau, tau_plus):
        P = c.host
        T = c.tubing
        if tau in T.tubes:
            _require_adjacent(c, tau, tau_plus)
            return c, Fraction(0)

        bigger = Tubing(P, frozenset(T.tubes | {tau}))  # marked: Tubing.of unvalidated
        check = is_tubing(P, bigger.tubes)
        if not check:
            raise NotInCollError(f"adding {tau} is not a tubing: {check}")
        tree = tubing_tree(bigger)
        if tree.parent.get(tau) != tau_plus:
            raise NotAdjacentError(f"{tau_plus} would not be the parent of {tau}")

        u = dict(zip(tau_plus.members, c.rows[tau_plus]))
        k = len(tau)
        mean = sum(u[i] for i in tau.members)
        num = {i: mean if i in tau.as_set else k * n for i, n in u.items()}
        up, down = _boundary_pairs(P, tau, tau_plus)
        for i, j in up:
            if not mean < num[j]:
                raise NotInCollError(f"need avg < x[{j}] on {tau_plus}")
        for j, i in down:
            if not num[j] < mean:
                raise NotInCollError(f"need x[{j}] < avg on {tau_plus}")
        covers = _host_index(P).covers[tau_plus]
        rows = c.rows.copy()
        rows[tau_plus] = res_cleared(covers, tau_plus.members, num)
        point = _fill_from_tree(P, tree, rows, tau_plus)

        scale = sum(num[j] - num[i] for i, j in covers)
        W, E = point.rows[tau_plus][-1], point.rows[tau][-1]
        m = dict(zip(tau_plus.members, point.rows[tau_plus]))
        ratios = [(k * u[i] * W - m[i] * scale, v) for i, v in zip(tau.members, point.rows[tau]) if v]
        if not ratios or any(d * ratios[0][1] != ratios[0][0] * v for d, v in ratios):
            raise NotInCollError("recovered expansion scale is inconsistent")
        d, v = ratios[0]
        t = Fraction(E * d, scale * W * v)
        if not 0 < t < _t_max_core(point, tau, tau_plus, up, down):
            raise NotInCollError(f"recovered expansion scale {t} is outside (0, t_max)")
        return point, t

    return SimpleNamespace(stratum_point=stratum_point, canonical=canonical,
                           face_interior_point=face_interior_point,
                           t_max=t_max, expand=expand, collapse=collapse)


# -- enumerations before they ran on bitsets or the cached walk ---------------
#
# Copies of the old functions; the package's unchanged pieces enter as
# arguments.


def admissible_tubings(P, M, tube_system):
    """The old ``geometry.admissible_tubings``: tubings as unions of Tube sets,
    in the order of the elements of its admissible poset."""
    system = tube_system(P)
    memo = {}

    def subtrees(tube):
        if tube in memo:
            return memo[tube]
        options = []
        for blocks in system.partitions(tube):
            child_choices = [
                subtrees(block) if block in M else (frozenset({block}),) for block in blocks
            ]
            for combo in itertools.product(*child_choices):
                options.append(frozenset({tube}).union(*combo))
        memo[tube] = tuple(options)
        return memo[tube]

    return tuple(sorted(subtrees(system.root),
                        key=lambda T: tuple(sorted(t.members for t in T))))


def face_from_vertices(self, vertex_ids: Iterable[int], NotAFaceError) -> frozenset[int]:
    """The old ``RationalPolytope.face_from_vertices``, on a polytope whose
    ``incidence`` holds each facet's vertices as a frozenset."""
    wanted = frozenset(vertex_ids)
    containing = [inc for inc in self.incidence if wanted <= inc]
    if not containing:
        raise NotAFaceError("vertex set is not on any facet")
    face = frozenset(range(len(self.vertices)))
    for inc in containing:
        face &= inc
    return face


def walk_proper_tubings(P, max_only, walk, Tubing):
    """The old ``tubes.enumerate_proper_tubings``: max_only walks again, on
    an uncached ``walk`` of the host that lists the proper tubes and each
    tubing as a mask whose bit k stands for ``tubes[k]``."""
    tubes, masks, _ = walk(P)
    tubings = [[k for k in range(len(tubes)) if mask >> k & 1] for mask in masks]
    found = [ranks for ranks in tubings if not max_only or len(ranks) == len(P.elements) - 2]
    # a tubing's members in Tube.key order, as Tubing.sorted_tubes lists them
    found.sort(key=lambda ranks: (len(ranks), tuple(sorted((tubes[k].members for k in ranks),
                                                           key=lambda m: (len(m), m)))))
    return tuple(Tubing(P, frozenset(tubes[k] for k in ranks)) for ranks in found)


def enumerate_affine_tubings(A, max_only, enumerate_affine_tubes, class_nested_or_disjoint,
                             is_affine_tubing):
    """The old ``affine.enumerate_affine_tubings``: max_only walks again."""
    classes = enumerate_affine_tubes(A, proper_only=True)
    target = A.n - 1
    chosen = []
    out = []

    def extend(start):
        if not max_only or len(chosen) == target:
            out.append(frozenset(chosen))
        if len(chosen) == target:
            return
        for k in range(start, len(classes)):
            cand = classes[k]
            if all(class_nested_or_disjoint(A, cand, c) for c in chosen) \
                    and is_affine_tubing(A, chosen + [cand]):
                chosen.append(cand)
                extend(k + 1)
                chosen.pop()

    extend(0)
    out.sort(key=lambda T: (len(T), tuple(sorted(c.members for c in T))))
    return tuple(out)


def affine_tubing_check(AffineTube, class_nested_or_disjoint, class_contains, residues_of,
                        _children_partition, find_cycle):
    """The old ``affine.is_affine_tubing`` with its helpers ``_min_relation_shift``
    and ``_root_blocks_acyclic``: a Floyd–Warshall test on the root blocks,
    then a finite cycle check inside every class."""

    def _min_relation_shift(A, a, b):
        """Minimal d with i < j + dn for some i in a, j in b (an edge weight)."""
        best = None
        for i in a.members:
            for j in b.members:
                d = A.minshift[A.residue(i) - 1][A.residue(j) - 1] + A.shift(i) - A.shift(j)
                if j + d * A.n == i:
                    d += 1
                best = d if best is None else min(best, d)
        return best

    def _root_blocks_acyclic(A, blocks):
        """Cycle test for a periodic partition of the integers.

        Blocks of a partition are never nested, so for each ordered class pair
        the valid dependency edges are exactly the shifts at or above the
        minimal relation shift (same class: shift zero excluded).  A cycle in
        the infinite digraph exists iff some class cycle has total weight <= 0.
        """
        k = len(blocks)
        weight = [[0] * k for _ in range(k)]
        for x, a in enumerate(blocks):
            for y, b in enumerate(blocks):
                d0 = _min_relation_shift(A, a, b)
                if x == y and d0 == 0:
                    d0 = 1
                weight[x][y] = d0
        dist = [row[:] for row in weight]
        for m in range(k):
            for x in range(k):
                for y in range(k):
                    if dist[x][m] + dist[m][y] < dist[x][y]:
                        dist[x][y] = dist[x][m] + dist[m][y]
                        if x == y and dist[x][y] <= 0:
                            return False
        return all(dist[x][x] > 0 for x in range(k))

    def is_affine_tubing(A, classes):
        """Validity of the periodic family generated by the given classes.

        Pairwise laminarity over all shifts, then acyclicity localized by the
        nesting tree: finite dependency checks inside every class, and the
        weighted test on the root partition formed by the maximal classes.
        """
        classes = sorted(set(classes), key=AffineTube.key)
        if any(c.is_full for c in classes):
            return False
        for a, b in itertools.combinations_with_replacement(classes, 2):
            if not class_nested_or_disjoint(A, a, b):
                return False

        maximal = [
            c for c in classes
            if not any(o != c and class_contains(A, o, c) for o in classes)
        ]
        covered = set().union(*(residues_of(A, c) for c in maximal)) if maximal else set()
        root_blocks = tuple(sorted(
            maximal + [AffineTube((r,)) for r in range(1, A.n + 1) if r not in covered],
            key=AffineTube.key,
        ))
        if not _root_blocks_acyclic(A, root_blocks):
            return False

        for tube in classes:
            blocks = [frozenset(b) for b in _children_partition(A, classes, tube)]
            depends = {
                a: [b for b in blocks if a != b and any(A.lt(i, j) for i in a for j in b)]
                for a in blocks
            }
            if find_cycle(depends) is not None:
                return False
        return True

    return is_affine_tubing


def ideal_filter_splits(P, is_ideal, is_connected):
    """The old ``poset.ideal_filter_splits`` (its element budget left out),
    with ``is_ideal`` above."""
    n = len(P.elements)
    splits = []
    for mask in range(1, (1 << n) - 1):
        ideal = tuple(P.elements[k] for k in range(n) if mask >> k & 1)
        if not is_ideal(P, ideal):
            continue
        filt = tuple(e for e in P.elements if e not in set(ideal))
        if is_connected(P, ideal) and is_connected(P, filt):
            splits.append((ideal, filt))
    splits.sort(key=lambda s: (len(s[0]), s[0]))
    return splits


def is_ideal(P, subset):
    """The old ``poset.is_ideal``, which the old splits called."""
    inside = set(subset)
    return all(i in inside for j in inside for i in P.elements if P.lt(i, j))


def order_polytope(P, ideal_filter_splits, nullspace, Chart, Facet, polytope_from_data,
                   affine_rank, DegenerateError):
    """The old ``geometry.order_polytope``, with its ``_sigma_alpha_chart``."""

    def _sigma_alpha_chart(P, base):
        """Chart of the affine plane {sum x = 0, alpha_P x = 1} anchored at base."""
        ids = P.elements
        weight = {e: Fraction(0) for e in ids}
        for i, j in P.covers:
            weight[j] += 1
            weight[i] -= 1
        rows = [[Fraction(1)] * len(ids), [weight[e] for e in ids]]
        basis = tuple(tuple(v) for v in nullspace(rows, len(ids)))
        return Chart(ids=ids, base=tuple(base[e] for e in ids), basis=basis)

    n = len(P.elements)
    splits = ideal_filter_splits(P)
    ambient_vertices = []
    for ideal, filt in splits:
        e = sum(1 for i, j in P.covers if i in set(ideal) and j in set(filt))
        a = Fraction(-len(filt), e * n)
        b = Fraction(len(ideal), e * n)
        ambient_vertices.append({x: (a if x in set(ideal) else b) for x in P.elements})
    centroid = {
        e: sum((v[e] for v in ambient_vertices), Fraction(0)) / len(ambient_vertices)
        for e in P.elements
    }
    chart = _sigma_alpha_chart(P, centroid)
    vertices = [chart.to_chart(v) for v in ambient_vertices]
    if n == 2:
        return polytope_from_data(0, vertices[:1], (), chart, vertex_labels=(splits[0],))

    facets = []
    for i, j in P.covers:
        # x_j - x_i >= 0 becomes <B^T(e_i - e_j), u> <= base_j - base_i
        normal = tuple(vec[P.elements.index(i)] - vec[P.elements.index(j)] for vec in chart.basis)
        offset = centroid[j] - centroid[i]
        facets.append(Facet(normal, offset, label=(i, j)))
    poly = polytope_from_data(n - 2, vertices, facets, chart, vertex_labels=tuple(splits))
    if affine_rank(poly.vertices) != n - 2:
        raise DegenerateError("order polytope has unexpected dimension")
    return poly


def affine_order_polytope(A, c, maximal_proper_classes, nullspace, Chart, Facet,
                          polytope_from_data):
    """The old ``affine.affine_order_polytope``."""
    n = A.n
    c = Fraction(c)
    if c <= 0:
        raise ValueError("period increment must be positive")
    ids = tuple(range(1, n + 1))
    vertices_ambient = []
    vlabels = maximal_proper_classes(A)
    for cls in vlabels:
        ks = {}
        for m in cls.members if not cls.is_full else ():
            ks[A.residue(m)] = A.shift(m)
        if A.n == 1:
            ks = {1: 0}
        v0 = sum(ks.values()) * c / n
        vertices_ambient.append({i: v0 - ks[i] * c for i in ids})
    base = {
        i: sum((v[i] for v in vertices_ambient), Fraction(0)) / len(vertices_ambient)
        for i in ids
    }
    basis = tuple(tuple(v) for v in nullspace([[Fraction(1)] * n], n))
    chart = Chart(ids=ids, base=tuple(base[i] for i in ids), basis=basis)
    verts = [chart.to_chart(v) for v in vertices_ambient]
    if n == 1:
        return polytope_from_data(0, verts[:1], (), chart, vertex_labels=vlabels)
    facets = []
    for i, j in A.cover_classes:
        rj = A.residue(j)
        if rj == i:
            continue
        normal = tuple(vec[i - 1] - vec[rj - 1] for vec in chart.basis)
        offset = A.shift(j) * c - (base[i] - base[rj])
        facets.append(Facet(normal, offset, label=(i, j)))
    return polytope_from_data(n - 1, verts, facets, chart, vertex_labels=vlabels)


def tubing_walk(P, tube_table, walk_tubings, is_tubing):
    """``tubes.tubing_walk`` before candidates with no arrow out or none in
    skipped the reach bookkeeping: every candidate scans the chosen reach
    sets and rebuilds them.  Uncached; the package's table, backtracker and
    tubing check come in as arguments."""
    table = tube_table(P)
    tubes = table.tubes[:-1]
    arrow, arrow_in = table.arrow, table.arrow_in
    witness = []

    def grow(chosen, reach, i):
        out, into = arrow[i], arrow_in[i]
        reached = 1 << i
        for j, r in zip(chosen, reach):
            if out >> j & 1:
                reached |= r
        if not reached & into:
            return [r | reached if r & into else r for r in reach] + [reached]
        two_cycles = out & into
        if witness or len(chosen) < 2 or any(two_cycles >> j & 1 for j in chosen):
            return None  # a witness is known, or a pair of the candidate is no tubing
        family = [tubes[k] for k in chosen] + [tubes[i]]
        if all(is_tubing(P, family[:d] + family[d + 1:]) for d in range(len(family))):
            witness.append(tuple(family))
        return None

    return (*walk_tubings(tubes, table.compat, grow), witness[0] if witness else None)

"""Independent brute-force oracles for the test suite.

Everything here is written from the definitions with no imports from the
package, so disagreements point at real bugs rather than shared mistakes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


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

    The definition the bitset index of ``geometry.FaceOrder`` must match:
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


# -- the Fraction hyperplane solve before facets were solved in integers -----


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

"""The GL(5,2) orbits of spreads and the census of one spread's partners.

`_collineations` finds every g in GL(5,2) that sends one spread onto
another, `spread_orbits` certifies the four orbits of spreads by
orbit-stabilizer, and `_partner_census` censuses the type-X representative
against its partners once per process, which
`doubling.exhaustive_xx_census` scales to every type-X first spread.  Only
that census imports this module, when it runs.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

from .doubling import PatternCensus, pattern_census
from .gf2geom import span
from .pg42 import N_LINES, tables
from .spreads import (
    Spread,
    SpreadAnomaly,
    _clique_extend,
    _regulus_solids,
    classify,
)

__all__ = ["spread_orbits"]

# Generators of GL(5,2) as point tables: ``span`` of the rows of the cyclic
# coordinate shift e_i -> e_{i+1} and of the transvection e1 -> e1 + e2.
_GENERATORS = (tuple(span((2, 4, 8, 16, 1))), tuple(span((3, 2, 4, 8, 16))))
_GL_ORDER = (32 - 1) * (32 - 2) * (32 - 4) * (32 - 8) * (32 - 16)  # |GL(5,2)|


def _line_permutations() -> tuple:
    """Per generator, the line permutation as a tuple: entry i is the line
    id of the image of line i."""
    t = tables()
    return tuple(tuple(t.image(l, g) for l in t.lines) for g in _GENERATORS)


def _collineations(s: Spread, t: Spread) -> Iterator[tuple]:
    """Every g in GL(5,2) with g(s) = t, as its 32 point images g[x]; as an
    int-row matrix, g is (g[1], g[2], g[4], g[8], g[16]).  A backtrack
    search over images of a basis (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005): two points on each of lines a, b of
    s go to two points on each of two lines of t, which fixes g(z) for the
    point z where a line c of s meets the solid <a, b>; a point p of c off
    it goes to the line of t through g(z).  A g is kept iff it sends the
    other six lines of s into t; it is then invertible, as a g of rank 4
    would send a, b and those six onto 8 lines of t in one solid, which
    holds at most 3 lines of a spread.
    """
    a, b, *rest = [l.points() for l in s.lines]
    solid = span(a[:2] + b[:2])
    c = next(c for c in rest if not set(c) <= set(solid))
    z, p, _ = sorted(c, key=lambda x: x not in solid)
    basis = solid + [x ^ p for x in solid]
    coord = sorted(range(32), key=basis.__getitem__)  # basis[coord[x]] == x
    checks = [(coord[l[0]], coord[l[1]]) for l in rest if l is not c]
    # the index of each point's line in t, or a mark of its own off those lines
    tl = [l.points() for l in t.lines]
    label = [next((k for k, l in enumerate(tl) if x in l), 9 + x) for x in range(32)]
    pairs = [list(itertools.permutations(l, 2)) for l in tl]
    for ka, kb in itertools.permutations(range(9), 2):
        for q in itertools.product(pairs[ka], pairs[kb]):
            image = span(q[0] + q[1])
            kc = label[image[coord[z]]]
            for q5 in tl[kc] if kc < 9 else ():
                g = image + [x ^ q5 for x in image]
                if all(label[g[i]] == label[g[j]] for i, j in checks):
                    yield tuple([g[m] for m in coord])


def _kept(s: Spread, t: Spread) -> Iterator[tuple]:
    """The g of `_collineations` (s, t), each checked through `Tables.image`
    to send the lines of s onto those of t, else a SpreadAnomaly."""
    image, want = tables().image, set(t.line_ids)
    for g in _collineations(s, t):
        try:
            ok = {image(l, g) for l in s.lines} == want
        except KeyError:  # an image that is no line
            ok = False
        if not ok:
            raise SpreadAnomaly(
                f"a collineation found does not send {s.line_ids} onto {t.line_ids}"
            )
        yield g


@functools.cache
def spread_orbits() -> tuple:
    """The GL(5,2) orbits of spreads as (representative, |Stab|) pairs: the
    first spreads through line 0 and j, the lowest line disjoint from it, in
    lexicographic order, not isomorphic to an earlier one of the same type.
    Orbit-stabilizer (Kaski and Östergård, *Classification Algorithms for
    Codes and Designs*, 2006), certified at run time or a SpreadAnomaly: the
    generators carry {0, j} onto all P = 8,680 pairs of disjoint lines, so,
    as a spread holds 36 of them, there are N = P N(0, j) / 36 spreads; the
    orbits, of |GL(5,2)| / |Stab| spreads each, add up to N (collineations
    keep types, so no two representatives share an orbit).  Each stabilizer
    element and isomorphism witness is checked as it is found (`_kept`)."""
    adj = tables().adjacency
    j = (adj[0] & -adj[0]).bit_length() - 1
    pairs = sum(a.bit_count() for a in adj) // 2
    # the orbit of {0, j}: the pair {a < b} is marked at a * N_LINES + b
    perms, seen, todo = _line_permutations(), bytearray(N_LINES * N_LINES), [j]
    seen[j] = 1
    while todo:
        a, b = divmod(todo.pop(), N_LINES)
        for p in perms:
            x, y = sorted((p[a], p[b]))
            if not seen[k := x * N_LINES + y]:
                seen[k] = 1
                todo.append(k)
    if seen.count(1) != pairs:
        raise SpreadAnomaly(
            f"the generators carry the pair (0, {j}) onto {seen.count(1)} of "
            f"the {pairs} pairs of disjoint lines"
        )
    through = sum(1 for _ in _clique_extend(adj, [0, j], adj[0] & adj[j]))
    orbits, found = [], 0
    for row in _clique_extend(adj, [0, j], adj[0] & adj[j]):
        s = Spread.from_line_ids(row)
        same = [r for r, _ in orbits if classify(r).tag == classify(s).tag]
        if not any(next(_kept(r, s), 0) for r in same):
            orbits.append((s, sum(1 for _ in _kept(s, s))))
            found += _GL_ORDER // orbits[-1][1]
            if 36 * found >= pairs * through:
                break
    if 36 * found != pairs * through or any(_GL_ORDER % k for _, k in orbits):
        raise SpreadAnomaly(
            f"orbits with stabilizers of orders {[k for _, k in orbits]} hold "
            f"{found} spreads, not {pairs} x {through} / 36"
        )
    return tuple(orbits)


def _has_common_line(ids) -> bool:
    """Does one of the lines with these 9 ids lie on 4 regulus solids
    (`spreads._regulus_solids` of their ``line_solids`` masks)?  For the
    lines of a spread that holds iff its type is X (`spreads._classify`),
    and the test builds no reguli."""
    ls = tables().line_solids
    masks = [ls[i] for i in ids]
    three = _regulus_solids(masks)[1]
    return any((m & three).bit_count() == 4 for m in masks)


@functools.cache
def _partner_census(s1: Spread) -> PatternCensus:
    """The census of ``s1`` against its partners, once per process: the
    type-X spreads of lines outside ``s1.perp_bits``, as orthogonality is
    symmetric.  A row becomes a ``Spread`` only if it has a common line
    (`_has_common_line`); ``pattern_census`` types those in full."""
    rows = _clique_extend(tables().adjacency, [], (1 << N_LINES) - 1 & ~s1.perp_bits)
    partners = (Spread.from_line_ids(r) for r in rows if _has_common_line(r))
    return pattern_census((s1, s2) for s2 in partners)



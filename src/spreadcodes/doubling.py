"""Doubling codes S1 ∪ (S2)^⊥ and their intersection-pattern census.

A doubling code takes the 9 lines of one spread together with the 9 dual
planes of another; it is optimal (minimum subspace distance 3) iff no line
of the first spread is contained in a dual plane of the second.  For a
type-X first spread, each codeword plane B is profiled by its
*intersection pattern*: per regulus of S1, how many of the regulus' 3
lines meet B, sorted descending, plus whether B meets the common line and
how many holes of S1 it contains.

The exhaustive census histograms the patterns of all 9 planes of every
ordered optimal pair of type-X spreads, by symmetry over the one orbit of
type-X spreads among the GL(5,2) orbits of `spread_orbits`, which counts
the spreads twice through one pair of disjoint lines.  It types candidate
partners on their line ids and builds a ``Spread`` for type-X rows only.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from .gf2geom import Subspace, span
from .pg42 import N_LINES, tables
from .spreads import Spread, SpreadAnomaly, _classify, _clique_extend
from .spreads import classify, dual_spread

__all__ = [
    "DoublingCode",
    "Verdict",
    "IntersectionPattern",
    "PatternCensus",
    "validate_doubling",
    "min_distance",
    "intersection_pattern",
    "pattern_census",
    "optimal_pairs",
    "exhaustive_xx_census",
    "spread_orbits",
    "ALLOWED_PATTERNS",
    "NINTH_PLANE_PATTERNS",
    "ELIMINATED_PATTERN",
    "OPEN_PATTERN",
]

# the six patterns a codeword plane of an optimal type-X pair may show, each
# with its (meets_common, hole_count) combination
PATTERN_HOLES = {
    (2, 2, 2, 0): (False, 1),
    (2, 2, 1, 1): (False, 1),
    (3, 3, 1, 1): (True, 2),
    (2, 2, 2, 2): (True, 2),
    (3, 3, 2, 2): (True, 0),
    (3, 3, 3, 1): (True, 0),
}
ALLOWED_PATTERNS = tuple(PATTERN_HOLES)
# patterns available to the distinguished ninth plane (dual of S2's common line)
NINTH_PLANE_PATTERNS = ALLOWED_PATTERNS[:5]
ELIMINATED_PATTERN = (3, 2, 2, 1)
OPEN_PATTERN = (3, 3, 3, 1)


class Verdict(NamedTuple):
    """Outcome of validating a doubling pair.

    ``witness`` is a (line_index, plane_index) pair with the line of s1
    contained in the dual plane of s2, present iff not optimal.
    """

    optimal: bool
    witness: Optional[Tuple[int, int]] = None


class DoublingCode:
    """The 18 codewords of S1 ∪ (S2)^⊥."""

    __slots__ = ("s1", "s2", "planes")

    def __init__(self, s1: Spread, s2: Spread):
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "s2", s2)
        object.__setattr__(self, "planes", dual_spread(s2))

    def __setattr__(self, *a):
        raise AttributeError("DoublingCode is immutable")

    @property
    def codewords(self) -> tuple:
        return self.s1.lines + self.planes

    def __repr__(self):
        return f"DoublingCode({self.s1.id}, {self.s2.id})"


def _conflicts(s1: Spread, s2: Spread) -> int:
    """The lines of s1 inside a dual plane of s2, as a bit set: 0 iff the
    pair is optimal."""
    return s1.line_bits & s2.perp_bits


def validate_doubling(s1: Spread, s2: Spread) -> Verdict:
    """Optimal iff no line of s1 is contained in a dual plane of s2.

    Containment is the only way a codeword pair of S1 ∪ (S2)^⊥ can fall
    below distance 3, so this check is equivalent to the full pairwise
    distance sweep (which `min_distance` performs independently).  It is
    one AND of the spreads' bit sets; only on failure is the first witness
    in (line, plane) order looked up in ``tables().plane_lines``.
    """
    hit = _conflicts(s1, s2)
    if hit:
        plane_lines = tables().plane_lines
        for i, a in enumerate(s1.line_ids):
            if hit >> a & 1:
                j = next(
                    j for j, b in enumerate(s2.line_ids) if plane_lines[b] >> a & 1
                )
                return Verdict(False, (i, j))
    return Verdict(True)


def min_distance(code: DoublingCode) -> int:
    """Minimum pairwise subspace distance over all 18 codewords, on their
    point masks: d(U, V) = dim U + dim V - 2 dim(U ∩ V) (``subspace_distance``
    is the same formula on ``Subspace`` objects), each codeword's dimension
    taken once.  The meet's mask has 2**dim bits, so its dimension is the
    bit length of that count minus one."""
    cws = [(c.mask, c.dim) for c in code.codewords]
    return min(
        da + db + 2 - 2 * (a & b).bit_count().bit_length()
        for (a, da), (b, db) in itertools.combinations(cws, 2)
    )


class IntersectionPattern(NamedTuple):
    """Per-regulus meet counts of a plane against a type-X spread."""

    counts: tuple  # descending 4-tuple
    meets_common: bool
    hole_count: int


def intersection_pattern(
    plane: Subspace, s1: Spread, stype=None
) -> IntersectionPattern:
    """Pattern of a codeword plane against the reguli of a type-X spread."""
    if plane.n != 5 or plane.dim != 3:
        raise ValueError("need a plane of PG(4,2)")
    if stype is None:
        stype = classify(s1)
    if stype.tag != "X":
        raise ValueError("intersection patterns are defined for type-X spreads")
    pm = plane.mask
    counts = sorted(
        (sum(1 for i in t if (pm & s1.lines[i].mask) > 1) for t in stype.reguli),
        reverse=True,
    )
    return IntersectionPattern(
        tuple(counts),
        (pm & s1.lines[stype.distinguished].mask) > 1,
        (pm & s1.hole_mask).bit_count(),
    )


class PatternCensus(NamedTuple):
    """Histogram of intersection patterns over a set of doubling pairs.

    Keys of ``histogram`` are (counts, meets_common, holes, is_ninth)
    tuples where ``is_ninth`` marks the plane dual to the second spread's
    common line.
    """

    histogram: dict
    pair_count: int = 0
    s1_count: int = 0

    @property
    def plane_count(self) -> int:
        return sum(self.histogram.values())

    def by_pattern(self) -> dict:
        out = {}
        for (counts, _m, _h, _n), c in self.histogram.items():
            out[counts] = out.get(counts, 0) + c
        return out

    @property
    def open_pattern_count(self) -> int:
        return self.by_pattern().get(OPEN_PATTERN, 0)

    @property
    def eliminated_pattern_count(self) -> int:
        return self.by_pattern().get(ELIMINATED_PATTERN, 0)

    @property
    def violations(self) -> list:
        """The histogram's entries that break the characterization."""
        out = []
        for (counts, meets, holes, ninth), c in self.histogram.items():
            if counts not in ALLOWED_PATTERNS:
                out.append(("pattern outside allowed set", counts, c))
                continue
            if PATTERN_HOLES[counts] != (meets, holes):
                out.append(
                    ("hole/pattern pairing violated", counts, meets, holes, c)
                )
            if ninth and counts not in NINTH_PLANE_PATTERNS:
                out.append(("ninth-plane pattern outside its set", counts, c))
        return out


def pattern_census(pairs: Iterable[Tuple[Spread, Spread]]) -> PatternCensus:
    """Pattern census over an explicit stream of validated optimal (X,X)
    pairs; the patterns need a type-X S1, the ninth plane a type-X S2."""
    hist = {}
    pair_count = 0
    for s1, s2 in pairs:
        t1, t2 = classify(s1), classify(s2)
        if (t1.tag, t2.tag) != ("X", "X"):
            raise ValueError(
                f"pair of types ({t1.tag},{t2.tag}) does not match ('X', 'X')"
            )
        v = validate_doubling(s1, s2)
        if not v.optimal:
            raise ValueError(f"pair is not optimal (witness {v.witness})")
        for j, plane in enumerate(dual_spread(s2)):
            pat = intersection_pattern(plane, s1)
            ninth = j == t2.distinguished
            key = (pat.counts, pat.meets_common, pat.hole_count, ninth)
            hist[key] = hist.get(key, 0) + 1
        pair_count += 1
    return PatternCensus(hist, pair_count)


def optimal_pairs(
    spread_db: Sequence[Spread], type_filter: Tuple[str, str] = ("X", "X")
) -> Iterator[Tuple[int, int]]:
    """Stream the index pairs (i, j) of optimal doubling pairs from a
    spread list, S1 and S2 of the types ``type_filter``.

    Pairs are tried in database order by the bit-set test of
    `validate_doubling`, without looking up witnesses.  Diagonal pairs
    (i, i) are included when they validate.
    """
    tags = [classify(s).tag for s in spread_db]
    cols = [j for j, t in enumerate(tags) if t == type_filter[1]]
    for i, t in enumerate(tags):
        if t != type_filter[0]:
            continue
        s1 = spread_db[i]
        for j in cols:
            if not _conflicts(s1, spread_db[j]):
                yield i, j


# ---------------------------------------------------------------------------
# exhaustive (X,X) census

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


@functools.cache
def _partner_census(s1: Spread) -> PatternCensus:
    """The census of ``s1`` against its partners, once per process: the
    type-X spreads (typed by `spreads._classify` before any ``Spread`` is
    built) of lines outside ``s1.perp_bits``, as orthogonality is symmetric."""
    rows = _clique_extend(tables().adjacency, [], (1 << N_LINES) - 1 & ~s1.perp_bits)
    partners = (Spread.from_line_ids(r) for r in rows if _classify(r).tag == "X")
    return pattern_census((s1, s2) for s2 in partners)


def exhaustive_xx_census(limit: Optional[int] = None) -> PatternCensus:
    """Census over every ordered optimal (X,X) pair, by symmetry.

    For g in GL(5,2), the map (S1, S2) -> (g S1, g^-T S2) sends optimal
    (X,X) pairs to optimal (X,X) pairs: collineations keep spread types,
    and g u . g^-T v = u . v keeps every line-in-dual-plane containment.
    The dual plane of g^-T l is g applied to the dual plane of l, and g
    carries the reguli, common line and holes of S1 to those of g S1, so
    each plane keeps its counts, meets-common flag and hole count; g^-T
    carries the common line of S2 to that of g^-T S2, so the ninth flag is
    kept too.  So S2 -> g^-T S2 is a pattern-keeping bijection from the
    partners of S1 (the type-X spreads with no line orthogonal to a line
    of S1) onto those of g S1, and all S1 in one orbit have the same
    histogram.  `spread_orbits` gives the one orbit of type-X spreads and
    its size without enumerating it, so the census of n first spreads is
    the histogram of its representative (`_partner_census`) times n.

    ``limit`` takes only the first ``limit`` type-X spreads as S1 (for
    smoke tests); by default all of them.
    """
    xs = [(s, _GL_ORDER // k) for s, k in spread_orbits() if classify(s).tag == "X"]
    if len(xs) != 1:
        raise SpreadAnomaly(f"{len(xs)} orbits of type-X spreads, expected one")
    ((s1, n_x),) = xs
    n = n_x if limit is None else max(0, min(limit, n_x))
    if not n:
        return PatternCensus({})
    one = _partner_census(s1)
    return PatternCensus(
        {key: c * n for key, c in one.histogram.items()}, one.pair_count * n, n
    )

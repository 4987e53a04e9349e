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
type-X spreads among the GL(5,2) orbits of `orbits.spread_orbits`, which
counts the spreads twice through one pair of disjoint lines.  The orbit
layer lives in `spreadcodes.orbits`, which `exhaustive_xx_census` imports
when it runs, so no other command compiles it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from .gf2geom import Subspace
from .pg42 import tables
from .spreads import Spread, SpreadAnomaly, classify, dual_spread

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
    from .orbits import _GL_ORDER, _partner_census, spread_orbits

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

"""Doubling codes S1 ∪ (S2)^⊥ and their intersection-pattern census.

A doubling code takes the 9 lines of one spread together with the 9 dual
planes of another; it is optimal (minimum subspace distance 3) iff no line
of the first spread is contained in a dual plane of the second.  For a
type-X first spread, each codeword plane B is profiled by its
*intersection pattern*: per regulus of S1, how many of the regulus' 3
lines meet B, sorted descending, plus whether B meets the common line and
how many holes of S1 it contains.

The exhaustive census histograms the patterns of all 9 planes of every
ordered optimal pair of type-X spreads.  It counts by symmetry: the
type-X spreads form one GL(5,2) orbit, certified at run time, and a
collineation carries the optimal partners of S1 onto those of its image
with every plane's pattern kept, so the census is the histogram of one
representative S1 times the number of type-X spreads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .gf2geom import Subspace, act_subspace, subspace_distance
from .pg42 import N_LINES, tables
from .spreads import (
    Spread,
    SpreadAnomaly,
    classify,
    classify_all,
    dual_spread,
    holes,
)

__all__ = [
    "DoublingCode",
    "Verdict",
    "IntersectionPattern",
    "PatternCensus",
    "validate_doubling",
    "min_distance",
    "hole_count",
    "intersection_pattern",
    "pattern_census",
    "doubling_search",
    "exhaustive_xx_census",
    "ALLOWED_PATTERNS",
    "NINTH_PLANE_PATTERNS",
    "ELIMINATED_PATTERN",
    "OPEN_PATTERN",
]

# the six patterns a codeword plane of an optimal type-X pair may show
ALLOWED_PATTERNS = (
    (2, 2, 2, 0),
    (2, 2, 1, 1),
    (3, 3, 1, 1),
    (2, 2, 2, 2),
    (3, 3, 2, 2),
    (3, 3, 3, 1),
)
# patterns available to the distinguished ninth plane (dual of S2's common line)
NINTH_PLANE_PATTERNS = ALLOWED_PATTERNS[:5]
ELIMINATED_PATTERN = (3, 2, 2, 1)
OPEN_PATTERN = (3, 3, 3, 1)

# expected (meets_common, hole_count) combination per pattern
PATTERN_HOLES = {
    (2, 2, 2, 0): (False, 1),
    (2, 2, 1, 1): (False, 1),
    (3, 3, 1, 1): (True, 2),
    (2, 2, 2, 2): (True, 2),
    (3, 3, 2, 2): (True, 0),
    (3, 3, 3, 1): (True, 0),
}


@dataclass(frozen=True)
class Verdict:
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

    def verdict(self) -> Verdict:
        return validate_doubling(self.s1, self.s2)

    @property
    def is_optimal(self) -> bool:
        return self.verdict().optimal

    def min_distance(self) -> int:
        return min_distance(self)

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
    """Minimum pairwise subspace distance over all 18 codewords."""
    cw = code.codewords
    return min(
        subspace_distance(a, b) for a, b in itertools.combinations(cw, 2)
    )


def _pattern_parts(plane: Subspace, s1: Spread, stype=None):
    if stype is None:
        stype = classify(s1)
    if stype.tag != "X":
        raise ValueError("intersection patterns are defined for type-X spreads")
    pm = plane.mask
    common = s1.lines[stype.distinguished]
    meets = (pm & common.mask) > 1
    hole_ct = sum(1 for h in holes(s1) if pm >> h & 1)
    raw = tuple(
        sum(1 for i in t if (pm & s1.lines[i].mask) > 1) for t in stype.reguli
    )
    return raw, meets, hole_ct


@dataclass(frozen=True)
class IntersectionPattern:
    """Per-regulus meet counts of a plane against a type-X spread."""

    counts: tuple  # descending 4-tuple
    raw: tuple  # in the spread's regulus order, for debugging
    meets_common: bool
    hole_count: int


def intersection_pattern(
    plane: Subspace, s1: Spread, stype=None
) -> IntersectionPattern:
    """Pattern of a codeword plane against the reguli of a type-X spread."""
    raw, meets, hole_ct = _pattern_parts(plane, s1, stype)
    return IntersectionPattern(
        tuple(sorted(raw, reverse=True)), raw, meets, hole_ct
    )


def hole_count(plane: Subspace, s1: Spread, stype=None) -> Tuple[bool, int]:
    """(meets_common, holes_in_plane), constrained to the three legal cases.

    For a codeword plane of a valid optimal partner the combination must be
    (False, 1), (True, 0) or (True, 2); anything else raises SpreadAnomaly.
    """
    _, meets, hole_ct = _pattern_parts(plane, s1, stype)
    if (meets, hole_ct) not in ((False, 1), (True, 0), (True, 2)):
        raise SpreadAnomaly(
            f"hole trichotomy violated: meets_common={meets}, holes={hole_ct}"
        )
    return meets, hole_ct


@dataclass
class PatternCensus:
    """Histogram of intersection patterns over a set of doubling pairs.

    Keys of ``histogram`` are (counts, meets_common, holes, is_ninth)
    tuples where ``is_ninth`` marks the plane dual to the second spread's
    common line.
    """

    histogram: dict
    pair_count: int = 0
    violations: list = field(default_factory=list)
    s1_count: int = 0

    @property
    def plane_count(self) -> int:
        return sum(self.histogram.values())

    def by_pattern(self) -> dict:
        out = {}
        for (counts, _m, _h, _n), c in self.histogram.items():
            out[counts] = out.get(counts, 0) + c
        return out

    def ninth_by_pattern(self) -> dict:
        out = {}
        for (counts, _m, _h, ninth), c in self.histogram.items():
            if ninth:
                out[counts] = out.get(counts, 0) + c
        return out

    @property
    def open_pattern_count(self) -> int:
        return self.by_pattern().get(OPEN_PATTERN, 0)

    @property
    def eliminated_pattern_count(self) -> int:
        return self.by_pattern().get(ELIMINATED_PATTERN, 0)

    def check(self) -> list:
        """Recompute the violation list from the histogram."""
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


def pattern_census(
    pairs: Iterable[Tuple[Spread, Spread]], type_filter: Tuple[str, str] = ("X", "X")
) -> PatternCensus:
    """Pattern census over an explicit stream of validated optimal pairs."""
    hist = {}
    census = PatternCensus(hist)
    last = None
    for s1, s2 in pairs:
        if s1 is not last:  # a census streams many pairs with one S1
            last, t1 = s1, classify(s1)
        t2 = classify(s2)
        if (t1.tag, t2.tag) != type_filter:
            raise ValueError(
                f"pair of types ({t1.tag},{t2.tag}) does not match {type_filter}"
            )
        v = validate_doubling(s1, s2)
        if not v.optimal:
            raise ValueError(f"pair is not optimal (witness {v.witness})")
        planes = dual_spread(s2)
        for j, plane in enumerate(planes):
            pat = intersection_pattern(plane, s1, t1)
            ninth = j == t2.distinguished
            key = (pat.counts, pat.meets_common, pat.hole_count, ninth)
            hist[key] = hist.get(key, 0) + 1
        census.pair_count += 1
    census.violations = census.check()
    return census


def doubling_search(
    spread_db: Sequence[Spread],
    type_filter: Tuple[str, str] = ("X", "X"),
    limit: Optional[int] = None,
) -> Iterator[DoublingCode]:
    """Stream optimal doubling codes over ordered pairs from a spread list.

    Pairs are tried in database order by the bit-set test of
    `validate_doubling`, without looking up witnesses.  Diagonal pairs
    (s, s) are included when they validate.
    """
    tags = [classify(s).tag for s in spread_db]
    cols = [s2 for s2, tag in zip(spread_db, tags) if tag == type_filter[1]]
    emitted = 0
    for s1, tag in zip(spread_db, tags):
        if tag != type_filter[0]:
            continue
        for s2 in cols:
            if not _conflicts(s1, s2):
                yield DoublingCode(s1, s2)
                emitted += 1
                if limit is not None and emitted >= limit:
                    return


# ---------------------------------------------------------------------------
# exhaustive (X,X) census

# Generators of GL(5,2); row i is the image of basis vector i + 1.
_GENERATORS = (
    # cyclic coordinate shift e_i -> e_{i+1}
    ((0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (1, 0, 0, 0, 0)),
    # transvection e1 -> e1 + e2
    ((1, 1, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
)

# _BINOM[i, k] = C(i, k + 1): by the combinatorial number system, the sum
# over an ascending row of 9 distinct line ids is a distinct int64 per row
_BINOM = np.array(
    [[math.comb(i, k + 1) for k in range(9)] for i in range(N_LINES)], dtype=np.int64
)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    return _BINOM[rows, np.arange(9)].sum(axis=1)


def _line_permutation(m) -> np.ndarray:
    """perm[i] is the line id of the image of line i under the matrix ``m``."""
    t = tables()
    return np.array([t.id_of(act_subspace(l, m)) for l in t.lines], dtype=np.int16)


def _certify_orbit(rows: np.ndarray) -> None:
    """Certify that the generators carry row 0 onto every row.

    ``rows`` are distinct spreads as ascending line-id rows.  Each row's
    image under each generator must be a row, and a breadth-first search
    from row 0 must reach all rows; otherwise SpreadAnomaly.
    """
    keys = _row_keys(rows)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    images = []
    for g in _GENERATORS:
        img = _row_keys(np.sort(_line_permutation(g)[rows], axis=1))
        pos = np.minimum(np.searchsorted(sorted_keys, img), len(rows) - 1)
        outside = np.flatnonzero(sorted_keys[pos] != img)
        if outside.size:
            r = rows[outside[0]]
            raise SpreadAnomaly(
                f"a GL(5,2) generator maps spread {Spread.from_line_ids(r).id} "
                f"(line ids {r.tolist()}) outside the {len(rows)} type-X spreads"
            )
        images.append(order[pos])
    seen = np.zeros(len(rows), dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        step = np.concatenate([img[frontier] for img in images])
        frontier = np.unique(step[~seen[step]])
        seen[frontier] = True
    orbit = int(seen.sum())
    if orbit != len(rows):
        raise SpreadAnomaly(
            f"the orbit of type-X spread #0 has {orbit} members, "
            f"but there are {len(rows)} type-X spreads"
        )


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
    histogram.  Once the type-X spreads are certified to be one orbit of
    the generated group, the census of n first spreads is the histogram of
    type-X spread #0 times n.

    ``limit`` takes only the first ``limit`` type-X spreads as S1 (for
    smoke tests); by default all of them.
    """
    bulk = classify_all()
    x_rows = bulk.line_ids[bulk.types == 0]
    _certify_orbit(x_rows)
    n = len(x_rows) if limit is None else max(0, min(limit, len(x_rows)))
    census = PatternCensus({}, s1_count=n)
    if n:
        forbidden = tables().perp[x_rows[0]].any(axis=0)
        partners = x_rows[~forbidden[x_rows].any(axis=1)]
        s1 = Spread.from_line_ids(x_rows[0])
        one = pattern_census((s1, Spread.from_line_ids(r)) for r in partners)
        census.histogram = {key: c * n for key, c in one.histogram.items()}
        census.pair_count = one.pair_count * n
    census.violations = census.check()
    return census

"""Maximal partial line spreads of PG(4,2).

A spread here is an ordered list of 9 pairwise-disjoint lines (the maximum
possible), leaving 4 uncovered points (holes).  The 9 lines always group
into exactly 4 reguli, and the way the lines distribute over those reguli
separates spreads into three types:

* ``X``       -- one line lies on all 4 reguli (the *common line*),
* ``E``       -- three lines lie on 2 reguli each and themselves form one
                 of the reguli (the *distinguished regulus*),
* ``IDelta``  -- three lines lie on 2 reguli each but do not form a
                 regulus; the distinguished regulus is then the unique one
                 all of whose lines lie on just that regulus.

A regulus is three lines in one solid, read from ``tables().line_solids``.
One kernel types the spread with 9 given line ids (`_classify`), so a caller
holding ids types them before it builds any ``Spread``; ``classify`` caches
its result on the object.  The vectorized bulk pipeline (`classify_all`)
types an array of spreads at once, such as the full exhaustive enumeration;
it alone imports numpy, when called.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .gf2geom import _bits
from .pg42 import N_LINES, tables

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Spread",
    "SpreadError",
    "ParseError",
    "SpreadAnomaly",
    "SpreadType",
    "is_regulus",
    "classify",
    "holes",
    "dual_spread",
    "verify_regulus_free_extension",
    "all_spread_line_ids",
    "classify_all",
    "BulkClassification",
]

class SpreadError(ValueError):
    """Input does not satisfy the spread axioms."""


class ParseError(ValueError):
    """Malformed spread file; carries the 1-based source line number.  It is
    defined here, not in the parser (`spreadfile`, which re-exports it), so
    that the command line maps it to its exit code without loading the
    parser."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SpreadAnomaly(RuntimeError):
    """A structural fact that should hold for every spread failed.

    Raised instead of guessing, so that any violation of the classification
    this code relies on is loud.
    """


class Spread:
    """An ordered list of 9 pairwise-disjoint lines of PG(4,2), built from
    their ids by ``from_line_ids``.

    The stored order is preserved (examples are referenced by position);
    identity is order-independent via the sorted canonical line IDs.
    ``lines`` are the ``tables().lines`` objects of ``line_ids``.
    ``line_bits`` and ``perp_bits`` are 155-bit sets of line IDs: the
    spread's own lines, and the lines inside its dual planes (read from
    ``tables().plane_lines``).  ``hole_mask`` is the point mask of the
    points on no line.  ``classify`` stores the type in ``_type``.
    """

    __slots__ = ("lines", "line_ids", "line_bits", "perp_bits", "hole_mask", "_type")

    def __init__(self, *args, **kwargs):
        raise TypeError("a Spread is built from its line ids by Spread.from_line_ids")

    def __setattr__(self, *a):
        raise AttributeError("Spread is immutable")

    @classmethod
    def from_line_ids(cls, ids: Sequence[int]) -> "Spread":
        # indexed like tables().lines: a negative id counts from the end,
        # one out of range raises IndexError
        ids = [range(N_LINES)[i] for i in ids]
        if len(ids) != 9:
            raise SpreadError(f"expected 9 lines, got {len(ids)}")
        t = tables()
        lines = tuple([t.lines[i] for i in ids])
        line_bits = perp_bits = 0
        cover = 1
        for i, l in zip(ids, lines):
            line_bits |= 1 << i
            perp_bits |= t.plane_lines[i]
            cover |= l.mask
        if cover.bit_count() != 28:  # 27 points and the zero vector: _disjoint
            adj = t.adjacency
            a, b = next(
                (a, b)
                for a, b in itertools.combinations(range(9), 2)
                if not adj[ids[a]] >> ids[b] & 1
            )
            raise SpreadError(
                f"lines {a + 1} and {b + 1} intersect: {lines[a]!r}, {lines[b]!r}"
            )
        s = cls.__new__(cls)
        object.__setattr__(s, "line_ids", tuple(ids))
        object.__setattr__(s, "lines", lines)
        object.__setattr__(s, "line_bits", line_bits)
        object.__setattr__(s, "perp_bits", perp_bits)
        object.__setattr__(s, "hole_mask", ((1 << 32) - 1) & ~cover)
        object.__setattr__(s, "_type", None)
        return s

    @property
    def key(self) -> tuple:
        """Order-independent identity: sorted canonical line IDs."""
        return tuple(sorted(self.line_ids))

    @property
    def id(self) -> str:
        h = hashlib.sha256(",".join(map(str, self.key)).encode()).hexdigest()
        return h[:12]

    def __eq__(self, other):
        return isinstance(other, Spread) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Spread(id={self.id})"


def _disjoint(ids) -> bool:
    """Are the lines with these ids pairwise disjoint?  A line has 3 points,
    so k lines are iff their point masks cover 3k points plus bit 0, the
    zero vector (a repeated id covers its points once).

    A plane's id is its dual line's, and two planes of PG(4,2) meet in
    exactly a point iff their dual lines are disjoint, so on plane ids this
    asks whether the planes pairwise meet in a point.
    """
    lines = tables().lines
    cover = 1
    for a in ids:
        cover |= lines[a].mask
    return cover.bit_count() == 3 * len(ids) + 1


def holes(s: Spread) -> tuple:
    """The 4 points covered by no line of the spread, ascending; its 9
    lines cover 27 points, as ``Spread.from_line_ids`` checks."""
    return _bits(s.hole_mask)


def is_regulus(ids: Sequence[int]) -> bool:
    """True iff the three lines with these ids are pairwise disjoint and lie
    in one solid (their ``line_solids`` masks share a bit)."""
    ls = tables().line_solids
    a, b, c = ids
    return _disjoint(ids) and (ls[a] & ls[b] & ls[c]) != 0


def _regulus_solids(masks):
    """The solids holding two or more, and three or more, of the lines with
    these ``line_solids`` masks (ints, or numpy arrays elementwise), by a
    bit-sliced count: (twos, three).  Three disjoint lines form a regulus iff
    they lie in one solid: iff ``three`` is nonzero."""
    ones = twos = three = 0
    for m in masks:
        three |= twos & m
        twos |= ones & m
        ones |= m
    return twos, three


class SpreadType(NamedTuple):
    """Classification of a spread.

    ``distinguished`` is the common-line index for type X, or the index
    triple of the distinguished regulus for types E and IDelta.
    """

    tag: str  # "X" | "E" | "IDelta"
    distinguished: object
    reguli: tuple
    counts: tuple  # per-line regulus-membership counts


def classify(s: Spread) -> SpreadType:
    """Type a spread by its per-line regulus-membership counts, once per
    ``Spread`` object (`_classify` of its line ids): the type gives
    positions in the stored line order, so equal spreads stored in other
    orders are typed apart."""
    if s._type is None:
        object.__setattr__(s, "_type", _classify(s.line_ids))
    return s._type


def _classify(ids) -> SpreadType:
    """The type of the spread with these 9 line ids, in their order, by one
    pass over their ``line_solids`` masks: each position joins the group of
    every regulus solid on its line, and its count is the number of them.
    The 4 groups are the reguli, as sorted index triples in ascending order;
    anything else raises SpreadAnomaly."""
    ls = tables().line_solids
    masks = [ls[i] for i in ids]
    three = _regulus_solids(masks)[1]
    by_solid, counts = {}, []
    for i, m in enumerate(masks):
        m &= three
        counts.append(m.bit_count())
        while m:
            solid = m & -m
            m ^= solid
            by_solid.setdefault(solid, []).append(i)
    regs = sorted(map(tuple, by_solid.values()))
    if [len(t) for t in regs] != [3] * 4:
        raise SpreadAnomaly(f"lines of the regulus solids: {regs}, expected 4 triples")
    regs, counts = tuple(regs), tuple(counts)
    multiset = tuple(sorted(counts, reverse=True))
    if multiset == (4, 1, 1, 1, 1, 1, 1, 1, 1):
        return SpreadType("X", counts.index(4), regs, counts)
    if multiset == (2, 2, 2, 1, 1, 1, 1, 1, 1):
        two = tuple(i for i in range(9) if counts[i] == 2)
        if two in regs:
            return SpreadType("E", two, regs, counts)
        ones = [t for t in regs if all(counts[i] == 1 for i in t)]
        if len(ones) != 1:
            raise SpreadAnomaly(f"IDelta spread without unique count-1 regulus: {ones}")
        return SpreadType("IDelta", ones[0], regs, counts)
    raise SpreadAnomaly(f"regulus-membership counts {multiset} match no type")


def _opposite_regulus_ids(ids) -> tuple:
    """Ids of the transversals of the regulus with line ids ``ids``.

    A line meets line i iff it is not in ``adjacency[i]``; the AND of the
    three complemented rows leaves out the three lines themselves, as each
    is disjoint from the other two.  Ascending line id.
    """
    adj = tables().adjacency
    meet = (1 << N_LINES) - 1
    for i in ids:
        meet &= ~adj[i]
    if meet.bit_count() != 3:
        raise SpreadAnomaly(f"regulus with {meet.bit_count()} transversals")
    return _bits(meet)


def dual_spread(s: Spread) -> tuple:
    """Dual planes of the spread's lines (same order), from ``tables().planes``."""
    planes = tables().planes
    return tuple(planes[i] for i in s.line_ids)


def _clique_extend(adj, cur, cand):
    """Lexicographic enumeration of all 9-cliques extending ``cur``."""
    need = 9 - len(cur)
    if need == 0:
        yield tuple(cur)
        return
    c = cand
    while c:
        if c.bit_count() < need:
            return
        j = (c & -c).bit_length() - 1
        c ^= 1 << j
        cur.append(j)
        yield from _clique_extend(adj, cur, c & adj[j])
        cur.pop()


def verify_regulus_free_extension(ids8: Sequence[int], plane: int) -> bool:
    """Check the two halves of the partition-extension property.

    Preconditions: 8 pairwise-disjoint lines (ids in ``tables().lines``)
    whose union, together with the plane (an id in ``tables().planes``),
    partitions the 31 points, both checked on one cover mask of the 8 lines,
    else SpreadError: they are disjoint iff it has 25 bits (24 points and
    the zero vector), and then partition the points with the plane iff it
    shares only bit 0 with the plane's mask, as 24 + 7 = 31.  Returns True
    iff the 8 lines contain no regulus and *every* line of the plane
    extends them to a type-X spread.

    With no regulus in the 8 lines, each regulus of the 8 plus a line k is k
    and two of the 8 in a solid: k is the common line (type X) iff it lies in
    4 solids holding two of the 8 (``twos``); as every spread has 4 reguli,
    any other count raises SpreadAnomaly.
    """
    if len(ids8) != 8:
        raise ValueError("need exactly 8 lines")
    t = tables()
    cover = 1
    for i in ids8:
        cover |= t.lines[i].mask
    if cover.bit_count() != 25:
        raise SpreadError("the 8 lines are not pairwise disjoint")
    if cover & t.planes[plane].mask != 1:
        raise SpreadError("a line meets the plane; not a partition")

    twos, three = _regulus_solids([t.line_solids[i] for i in ids8])
    if three:
        return False
    for k in _bits(t.plane_lines[plane]):
        n = (twos & t.line_solids[k]).bit_count()
        if n != 4:
            raise SpreadAnomaly(f"line {k} is on {n} reguli with the 8 lines, not 4")
    return True


# ---------------------------------------------------------------------------
# bulk pipeline over the exhaustive enumeration

@functools.cache
def all_spread_line_ids() -> np.ndarray:
    """Line-ID array of every size-9 spread, shape (M, 9), lexicographic:
    the 9-cliques of `_clique_extend`, read without a list of row tuples,
    cached after the first call (the enumeration takes about a minute)."""
    import numpy as np

    rows = _clique_extend(tables().adjacency, [], (1 << N_LINES) - 1)
    flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int16)
    return flat.reshape(-1, 9)


class BulkClassification(NamedTuple):
    """Vectorized classification of a batch of spreads."""

    line_ids: np.ndarray  # (M, 9) int16
    n_reguli: np.ndarray  # (M,) int8
    counts: np.ndarray  # (M, 9) int8 regulus-membership counts per position
    types: np.ndarray  # (M,) uint8: 0 = X, 1 = E, 2 = IDelta
    common_pos: np.ndarray  # (M,) int8, position of the common line, -1 if not X

    TAGS = ("X", "E", "IDelta")

    def type_counts(self) -> dict:
        return {tag: int((self.types == k).sum()) for k, tag in enumerate(self.TAGS)}


def classify_all(arr: Optional[np.ndarray] = None) -> BulkClassification:
    """Classify a (M, 9) array of spreads at once.

    Mirrors `_classify` row by row, vectorized: the count of regulus
    solids runs on the columns of ``line_solids`` masks, and a position's
    count is the number of regulus solids on its line.  Without ``arr`` it
    classifies the full enumeration, once per process.
    """
    import numpy as np

    if arr is None:
        return _classify_enumeration()
    masks = np.array(tables().line_solids, dtype=np.uint32)[arr]
    three = _regulus_solids(masks.T)[1]
    # keep only the regulus solids of each row
    masks &= three[:, None]
    counts = np.bitwise_count(masks).astype(np.int8)
    n_reguli = np.bitwise_count(three).astype(np.int8)
    # 4 solids of 3 lines and no count 0 leave (4, 1, ..., 1) for maximum 4
    # and (2, 2, 2, 1, ..., 1) for maximum 2
    mx = counts.max(axis=1)
    ok = (n_reguli == 4) & (counts.sum(axis=1) == 12) & (counts.min(axis=1) > 0)
    if not (ok & ((mx == 4) | (mx == 2))).all():
        raise SpreadAnomaly("bulk classification: regulus counts that match no type")
    is_x = mx == 4
    types = np.where(is_x, 0, 2).astype(np.uint8)
    common_pos = np.where(is_x, counts.argmax(axis=1), -1).astype(np.int8)
    # type E iff the lines at the three count-2 positions form a regulus;
    # only the other rows have such positions, three each, in row order
    triple = masks[counts == 2].reshape(-1, 3)
    types[np.flatnonzero(~is_x)[_regulus_solids(triple.T)[1] != 0]] = 1
    return BulkClassification(arr, n_reguli, counts, types, common_pos)


@functools.cache
def _classify_enumeration() -> BulkClassification:
    return classify_all(all_spread_line_ids())

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

The module provides both object-level operations on single spreads and a
vectorized bulk pipeline (numpy) over the full exhaustive enumeration.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .gf2geom import Subspace, rref
from .pg42 import N_LINES, tables

__all__ = [
    "Spread",
    "SpreadError",
    "SpreadAnomaly",
    "SpreadType",
    "is_regulus",
    "reguli",
    "classify",
    "holes",
    "opposite_regulus",
    "dual_spread",
    "disjointness_graph",
    "find_maximal_spreads",
    "verify_regulus_free_extension",
    "all_spread_line_ids",
    "classify_all",
    "BulkClassification",
]

_TRIPLES = tuple(itertools.combinations(range(9), 3))
_TRIPLE_ID = {t: i for i, t in enumerate(_TRIPLES)}
_TRIPLE_I, _TRIPLE_J, _TRIPLE_K = np.array(_TRIPLES).T


class SpreadError(ValueError):
    """Input does not satisfy the spread axioms."""


def _check_count(lines) -> None:
    if len(lines) != 9:
        raise SpreadError(f"expected 9 lines, got {len(lines)}")


class SpreadAnomaly(RuntimeError):
    """A structural fact that should hold for every spread failed.

    Raised instead of guessing, so that any violation of the classification
    this code relies on is loud.
    """


class Spread:
    """An ordered list of 9 pairwise-disjoint lines of PG(4,2).

    The stored order is preserved (examples are referenced by position);
    identity is order-independent via the sorted canonical line IDs.
    ``lines`` are the ``tables().lines`` objects of ``line_ids``.
    ``line_bits`` and ``perp_bits`` are 155-bit sets of line IDs: the
    spread's own lines, and the lines inside its dual planes (read from
    ``tables().plane_lines``).
    """

    __slots__ = ("lines", "line_ids", "line_bits", "perp_bits")

    def __init__(self, lines: Sequence[Subspace]):
        lines = tuple(lines)
        _check_count(lines)
        line_id = tables().line_id
        ids = []
        for l in lines:
            if l.n != 5 or l.dim != 2:
                raise SpreadError(f"not a line of PG(4,2): {l!r}")
            ids.append(line_id[l.mask])
        self._set_ids(ids)

    def __setattr__(self, *a):
        raise AttributeError("Spread is immutable")

    @classmethod
    def from_line_ids(cls, ids: Sequence[int]) -> "Spread":
        # indexed like tables().lines: a negative id counts from the end,
        # one out of range raises IndexError
        ids = [range(N_LINES)[i] for i in ids]
        _check_count(ids)
        s = cls.__new__(cls)
        s._set_ids(ids)
        return s

    def _set_ids(self, ids: list) -> None:
        """Store the 9 ids once they are pairwise-disjoint lines."""
        t = tables()
        adj = t.adjacency
        for a in range(8):
            row = adj[ids[a]]
            for b in range(a + 1, 9):
                if not row >> ids[b] & 1:
                    la, lb = t.lines[ids[a]], t.lines[ids[b]]
                    raise SpreadError(
                        f"lines {a + 1} and {b + 1} intersect: {la!r}, {lb!r}"
                    )
        line_bits = perp_bits = 0
        for i in ids:
            line_bits |= 1 << i
            perp_bits |= t.plane_lines[i]
        object.__setattr__(self, "line_ids", tuple(ids))
        object.__setattr__(self, "lines", tuple(t.lines[i] for i in ids))
        object.__setattr__(self, "line_bits", line_bits)
        object.__setattr__(self, "perp_bits", perp_bits)

    @property
    def key(self) -> tuple:
        """Order-independent identity: sorted canonical line IDs."""
        return tuple(sorted(self.line_ids))

    @property
    def id(self) -> str:
        h = hashlib.sha256(",".join(map(str, self.key)).encode()).hexdigest()
        return h[:12]

    @property
    def cover_mask(self) -> int:
        m = 0
        for l in self.lines:
            m |= l.mask
        return m & ~1

    def __eq__(self, other):
        return isinstance(other, Spread) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Spread(id={self.id})"


def holes(s: Spread) -> tuple:
    """The 4 points covered by no line of the spread, ascending."""
    m = ~s.cover_mask
    out = [v for v in range(1, 32) if m >> v & 1]
    if len(out) != 4:
        raise SpreadAnomaly(f"expected 4 holes, found {len(out)}")
    return tuple(out)


def is_regulus(l1: Subspace, l2: Subspace, l3: Subspace) -> bool:
    """True iff the three lines are pairwise disjoint and span a solid."""
    for l in (l1, l2, l3):
        if l.n != 5 or l.dim != 2:
            raise ValueError(f"not a line of PG(4,2): {l!r}")
    if (l1.mask & l2.mask) != 1 or (l1.mask & l3.mask) != 1 or (l2.mask & l3.mask) != 1:
        return False
    return len(rref(l1.basis + l2.basis + l3.basis)) == 4


def _is_regulus_ids(a, b, c):
    """Elementwise: do disjoint lines with ids a, b, c form a regulus?

    The third line lies in the solid the first two span; two table lookups
    that work on numpy arrays of ids alike.
    """
    t = tables()
    return t.line_in_solid[t.join_solid[a, b], c]


def reguli(s: Spread) -> tuple:
    """All regulus triples of the spread, as sorted index triples.

    Every size-9 spread has exactly 4; anything else raises SpreadAnomaly.
    """
    ids = np.array(s.line_ids)
    hits = _is_regulus_ids(ids[_TRIPLE_I], ids[_TRIPLE_J], ids[_TRIPLE_K])
    out = tuple(_TRIPLES[k] for k in np.flatnonzero(hits))
    if len(out) != 4:
        raise SpreadAnomaly(f"spread has {len(out)} reguli, expected 4")
    return out


@dataclass(frozen=True)
class SpreadType:
    """Classification of a spread.

    ``distinguished`` is the common-line index for type X, or the index
    triple of the distinguished regulus for types E and IDelta.
    """

    tag: str  # "X" | "E" | "IDelta"
    distinguished: object
    reguli: tuple
    counts: tuple  # per-line regulus-membership counts

    @property
    def common_index(self) -> Optional[int]:
        return self.distinguished if self.tag == "X" else None


def classify(s: Spread) -> SpreadType:
    """Type a spread by its per-line regulus-membership counts."""
    regs = reguli(s)
    counts = [0] * 9
    for t in regs:
        for i in t:
            counts[i] += 1
    multiset = tuple(sorted(counts, reverse=True))
    if multiset == (4, 1, 1, 1, 1, 1, 1, 1, 1):
        return SpreadType("X", counts.index(4), regs, tuple(counts))
    if multiset == (2, 2, 2, 1, 1, 1, 1, 1, 1):
        two = tuple(i for i in range(9) if counts[i] == 2)
        if two in regs:
            return SpreadType("E", two, regs, tuple(counts))
        ones = [t for t in regs if all(counts[i] == 1 for i in t)]
        if len(ones) != 1:
            raise SpreadAnomaly(
                f"IDelta spread without unique count-1 regulus: {ones}"
            )
        return SpreadType("IDelta", ones[0], regs, tuple(counts))
    raise SpreadAnomaly(f"regulus-membership counts {multiset} match no type")


def opposite_regulus(lines3: Sequence[Subspace]) -> tuple:
    """The 3 transversals of a regulus (lines meeting all three of it)."""
    l1, l2, l3 = lines3
    if not is_regulus(l1, l2, l3):
        raise ValueError("not a regulus")
    p3 = l3.mask
    out = set()
    for p1 in l1.points():
        for p2 in l2.points():
            if p3 >> (p1 ^ p2) & 1:
                out.add(rref((p1, p2)))
    if len(out) != 3:
        raise SpreadAnomaly(f"regulus with {len(out)} transversals")
    return tuple(Subspace(b, 5) for b in sorted(out))


def dual_spread(s: Spread) -> tuple:
    """Dual planes of the spread's lines (same order), from ``tables().planes``."""
    planes = tables().planes
    return tuple(planes[i] for i in s.line_ids)


def spread_from_planes(planes: Sequence[Subspace]) -> Spread:
    """The spread whose lines are the duals of the given 9 planes, looked up
    in ``tables().plane_id``; SpreadError if one is not a plane of PG(4,2)."""
    ids = list(map(tables().plane_id.get, planes))
    if None in ids:
        raise SpreadError(f"not a plane of PG(4,2): {planes[ids.index(None)]!r}")
    return Spread.from_line_ids(ids)


def disjointness_graph() -> tuple:
    """Adjacency of the 155-node line-disjointness graph.

    Returned as a tuple of 155 bitmasks over line IDs; bit j of entry i is
    set iff lines i and j are disjoint.
    """
    return tables().adjacency


def _clique_extend(adj, cur, cand, out_size=9):
    """Lexicographic enumeration of all cliques of size ``out_size``."""
    need = out_size - len(cur)
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
        yield from _clique_extend(adj, cur, c & adj[j], out_size)
        cur.pop()


def find_maximal_spreads(
    mode: str = "exhaustive",
    seed: Optional[Spread] = None,
    count: Optional[int] = None,
    rng_seed: Optional[int] = None,
) -> Iterator[Spread]:
    """Stream size-9 spreads found by clique search on the disjointness graph.

    * ``exhaustive``: every size-9 spread exactly once, lexicographic in
      line IDs.
    * ``seeded``: all spreads sharing at least one line with ``seed``
      (deduplicated); the seed itself is always among the results.
    * ``sample``: ``count`` distinct spreads from randomized greedy clique
      completions, deterministic for a fixed ``rng_seed``.
    """
    t = tables()
    adj = t.adjacency
    full = (1 << N_LINES) - 1
    if mode == "exhaustive":
        for ids in _clique_extend(adj, [], full):
            yield Spread.from_line_ids(ids)
    elif mode == "seeded":
        if seed is None:
            raise ValueError("seeded mode requires a seed spread")
        emitted = set()
        for anchor in sorted(seed.line_ids):
            # cliques containing `anchor`: search its neighborhood
            for rest in _clique_extend(adj, [], adj[anchor], out_size=8):
                ids = tuple(sorted((anchor,) + rest))
                if ids not in emitted:
                    emitted.add(ids)
                    yield Spread.from_line_ids(ids)
    elif mode == "sample":
        if count is None:
            raise ValueError("sample mode requires a count")
        rng = random.Random(rng_seed)
        emitted = set()
        attempts = 0
        while len(emitted) < count:
            attempts += 1
            if attempts > 1000 * (count + 10):
                raise RuntimeError("sampling failed to reach requested count")
            cur, cand = [], full
            while cand and len(cur) < 9:
                choices = []
                c = cand
                while c:
                    j = (c & -c).bit_length() - 1
                    c ^= 1 << j
                    choices.append(j)
                j = rng.choice(choices)
                cur.append(j)
                cand &= adj[j]
            if len(cur) == 9:
                key = tuple(sorted(cur))
                if key not in emitted:
                    emitted.add(key)
                    yield Spread.from_line_ids(cur)
    else:
        raise ValueError(f"unknown mode {mode!r}")


def verify_regulus_free_extension(lines8: Sequence[Subspace], plane: Subspace) -> bool:
    """Check the two halves of the partition-extension property.

    Preconditions: 8 pairwise-disjoint lines whose union, together with the
    plane, partitions the 31 points.  Returns True iff the 8 lines contain
    no regulus and *every* line of the plane extends them to a type-X
    spread.
    """
    lines8 = tuple(lines8)
    if len(lines8) != 8:
        raise ValueError("need exactly 8 lines")
    if plane.n != 5 or plane.dim != 3:
        raise ValueError("need a plane of PG(4,2)")
    cover = 1
    for i, l in enumerate(lines8):
        if l.dim != 2:
            raise ValueError("inputs must be lines")
        for m in lines8[i + 1 :]:
            if (l.mask & m.mask) != 1:
                raise SpreadError("the 8 lines are not pairwise disjoint")
        if (l.mask & plane.mask) != 1:
            raise SpreadError("a line meets the plane; not a partition")
        cover |= l.mask
    if (cover | plane.mask) != (1 << 32) - 1:
        raise SpreadError("lines and plane do not partition the point set")

    for t in itertools.combinations(lines8, 3):
        if is_regulus(*t):
            return False
    plane_lines = [
        Subspace((p1, p2), 5)
        for p1, p2 in itertools.combinations(plane.points(), 2)
    ]
    seen = set()
    for pl in plane_lines:
        if pl.basis in seen:
            continue
        seen.add(pl.basis)
        st = classify(Spread(lines8 + (pl,)))
        if st.tag != "X":
            return False
    return True


# ---------------------------------------------------------------------------
# bulk pipeline over the exhaustive enumeration

@functools.cache
def all_spread_line_ids() -> np.ndarray:
    """Line-ID array of every size-9 spread, shape (M, 9), lexicographic.

    Cached in memory after the first call (the enumeration takes about a
    minute).
    """
    adj = tables().adjacency
    rows = list(_clique_extend(adj, [], (1 << N_LINES) - 1))
    return np.array(rows, dtype=np.int16)


@dataclass
class BulkClassification:
    """Vectorized classification of a batch of spreads."""

    line_ids: np.ndarray  # (M, 9) int16
    n_reguli: np.ndarray  # (M,) int8
    counts: np.ndarray  # (M, 9) int8 regulus-membership counts per position
    types: np.ndarray  # (M,) uint8: 0 = X, 1 = E, 2 = IDelta
    common_pos: np.ndarray  # (M,) int8, position of the common line, -1 if not X

    TAGS = ("X", "E", "IDelta")

    def type_counts(self) -> dict:
        out = {}
        for code, tag in enumerate(self.TAGS):
            out[tag] = int((self.types == code).sum())
        return out


def classify_all(arr: Optional[np.ndarray] = None) -> BulkClassification:
    """Classify a (M, 9) array of spreads at once.

    Mirrors :func:`classify` but vectorized: a triple (i,j,k) is a regulus
    iff line k lies in the solid spanned by lines i and j, the table lookup
    that :func:`reguli` makes too.  Without ``arr`` it classifies the full
    enumeration, once per process.
    """
    if arr is None:
        return _classify_enumeration()
    m = len(arr)
    counts = np.zeros((m, 9), dtype=np.int8)
    n_reguli = np.zeros(m, dtype=np.int8)
    # remember per-spread which count-2 triple to re-test for type E
    for i, j, k in _TRIPLES:
        r = _is_regulus_ids(arr[:, i], arr[:, j], arr[:, k])
        n_reguli += r
        counts[:, i] += r
        counts[:, j] += r
        counts[:, k] += r
    if not (n_reguli == 4).all():
        raise SpreadAnomaly("bulk classification found a spread without 4 reguli")

    mx = counts.max(axis=1)
    types = np.full(m, 2, dtype=np.uint8)
    is_x = mx == 4
    types[is_x] = 0
    common_pos = np.full(m, -1, dtype=np.int8)
    common_pos[is_x] = counts[is_x].argmax(axis=1)

    rest = np.flatnonzero(~is_x)
    if rest.size:
        if not (mx[rest] == 2).all():
            raise SpreadAnomaly("bulk classification: unexpected count multiset")
        pos3 = np.nonzero(counts[rest] == 2)[1].reshape(-1, 3)
        tids = np.fromiter(
            (_TRIPLE_ID[tuple(row)] for row in pos3), dtype=np.int16, count=len(pos3)
        )
        # re-evaluate exactly the candidate triple per remaining spread
        is_e = np.zeros(rest.size, dtype=bool)
        for tid in np.unique(tids):
            i, j, k = _TRIPLES[tid]
            sel = rest[tids == tid]
            is_e[tids == tid] = _is_regulus_ids(arr[sel, i], arr[sel, j], arr[sel, k])
        types[rest[is_e]] = 1
    return BulkClassification(arr, n_reguli, counts, types, common_pos)


@functools.cache
def _classify_enumeration() -> BulkClassification:
    return classify_all(all_spread_line_ids())

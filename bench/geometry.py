"""PG(4,2) geometry written apart from ``spreadcodes``, for inputs and checks.

Points are the integers 1..31; bit ``i-1`` of a point is coordinate ``i``,
as in the program's spread files.  A subspace is held as its point mask:
bit ``v`` is set iff point ``v`` lies in it (no bit for the zero vector).
Nothing here imports ``spreadcodes``, so the checks built on this module
share no code with the program they check.
"""

from __future__ import annotations

import itertools
import math
import random
import re

import numpy as np

TYPES = ("X", "E", "IDelta")

# |GL(5,2)| = (2^5 - 1)(2^5 - 2)(2^5 - 4)(2^5 - 8)(2^5 - 16)
GL5_ORDER = math.prod(32 - 2**i for i in range(5))


def dot(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


def points(mask: int) -> list:
    return [v for v in range(1, 32) if mask >> v & 1]


def dim(mask: int) -> int:
    """Vector dimension of a subspace given by its point mask."""
    return (mask.bit_count() + 1).bit_length() - 1


def line(a: int, b: int) -> int:
    return 1 << a | 1 << b | 1 << (a ^ b)


LINES = tuple(sorted({line(a, b) for a in range(1, 32) for b in range(a + 1, 32)}))
assert len(LINES) == 155


def perp(l: int, m: int) -> bool:
    """Every point of ``l`` is orthogonal to every point of ``m``.

    For lines this says that ``l`` lies in the dual plane of ``m``, which is
    what makes a doubling pair non-optimal.
    """
    return all(dot(a, b) == 0 for a in points(l) for b in points(m))


def span(mask_a: int, mask_b: int) -> int:
    """Point mask of the span of two subspaces."""
    pa, pb = points(mask_a), points(mask_b)
    out = mask_a | mask_b
    for a in pa:
        for b in pb:
            out |= 1 << (a ^ b)
    return out


def dual(mask: int) -> int:
    """Point mask of the orthogonal complement of a subspace."""
    pts = points(mask)
    return sum(1 << v for v in range(1, 32) if all(dot(v, p) == 0 for p in pts))


def is_regulus(a: int, b: int, c: int) -> bool:
    """Three pairwise-disjoint lines inside one solid."""
    if a & b or a & c or b & c:
        return False
    return c & ~span(a, b) == 0


def reguli(lines9) -> list:
    """Index triples of the spread's lines that form a regulus."""
    return [t for t in itertools.combinations(range(9), 3)
            if is_regulus(*(lines9[i] for i in t))]


def spread_type(lines9) -> str:
    """Type of a 9-line spread from its regulus-membership counts."""
    regs = reguli(lines9)
    if len(regs) != 4:
        raise ValueError(f"spread with {len(regs)} reguli")
    counts = [sum(i in t for t in regs) for i in range(9)]
    if max(counts) == 4:
        return "X"
    two = tuple(i for i in range(9) if counts[i] == 2)
    return "E" if two in regs else "IDelta"


def common_line(lines9) -> int:
    """The line of a type-X spread that lies on all 4 of its reguli."""
    regs = reguli(lines9)
    on_all = [i for i in range(9) if all(i in t for t in regs)]
    if len(on_all) != 1:
        raise ValueError("not a type-X spread")
    return lines9[on_all[0]]


def optimal(s1, s2) -> bool:
    """S1 ∪ (S2)^⊥ has minimum distance 3: no line of S1 in a dual plane of S2."""
    return not any(perp(l, m) for l in s1 for m in s2)


def perp_table():
    """``t[a, b]``: line ``LINES[a]`` lies in the dual plane of line ``LINES[b]``."""
    return np.array([[perp(a, b) for b in LINES] for a in LINES], dtype=bool)


LINE_INDEX = {m: k for k, m in enumerate(LINES)}


def partners(table, rows1, rows2):
    """``out[i, j]``: spreads ``rows1[i]`` and ``rows2[j]`` form an optimal pair.

    Rows are spreads as arrays of indices into ``LINES``; a pair is optimal
    iff no line of the first is in the set its lines forbid for the second.
    """
    forbidden = table[rows1].any(axis=1)  # (n1, 155)
    return ~forbidden[:, rows2].any(axis=2)


def subspace_distance(u: int, v: int) -> int:
    """dim U + dim V - 2 dim(U ∩ V), from point-mask popcounts."""
    return dim(u) + dim(v) - 2 * dim(u & v)


# ---------------------------------------------------------------------------
# collineations


def random_gl5(rng: random.Random) -> tuple:
    """A uniformly random invertible 5x5 matrix, as the images of e1..e5."""
    while True:
        cols = tuple(rng.randrange(1, 32) for _ in range(5))
        if len(span_of(cols)) == 32:
            return cols


def span_of(vectors) -> set:
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return out


def point_map(cols) -> list:
    """``perm[v]`` = image of vector ``v`` under the matrix with these columns."""
    perm = [0] * 32
    for v in range(32):
        for i in range(5):
            if v >> i & 1:
                perm[v] ^= cols[i]
    return perm


def inverse_transpose(cols) -> tuple:
    """Columns of g^{-T}; dot(g a, g^{-T} b) = dot(a, b) for all a, b."""
    perm = point_map(cols)
    inv = [0] * 32
    for v in range(32):
        inv[perm[v]] = v
    inv_cols = [inv[1 << i] for i in range(5)]
    # column r of (g^-1)^T is row r of g^-1
    return tuple(sum((inv_cols[i] >> r & 1) << i for i in range(5)) for r in range(5))


def image(mask: int, perm) -> int:
    out = 0
    for v in points(mask):
        out |= 1 << perm[v]
    return out


# ---------------------------------------------------------------------------
# spread files


def token(v: int) -> str:
    """Spread-file token of a point: the coordinates it has set, e.g. ``125``."""
    return "".join(str(i + 1) for i in range(5) if v >> i & 1)


def format_spread(lines9) -> str:
    return ",".join("{" + ",".join(token(v) for v in points(l)) + "}" for l in lines9)


def _point(tok: str) -> int:
    v = 0
    for ch in tok.strip():
        v ^= 31 if ch == "u" else 1 << (int(ch) - 1)
    return v


def parse_spreads(text: str) -> list:
    """Spreads of a spread file as lists of 9 line masks, in file order."""
    out, cur = [], []
    for raw in text.splitlines() + [""]:
        body = raw.split("#", 1)[0].strip()
        if body:
            for grp in re.findall(r"\{([^{}]*)\}", body):
                pts = [_point(t) for t in grp.split(",")]
                cur.append(sum(1 << p for p in pts))
        elif cur:
            out.append(cur)
            cur = []
    return out


def random_spread(rng: random.Random) -> list:
    """A random 9-line spread by greedy clique completion, with restarts."""
    while True:
        chosen, cand = [], list(LINES)
        while cand and len(chosen) < 9:
            l = rng.choice(cand)
            chosen.append(l)
            cand = [m for m in cand if not m & l]
        if len(chosen) == 9:
            return chosen

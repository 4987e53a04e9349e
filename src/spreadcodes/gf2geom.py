"""Exact linear algebra over GF(2) for small ambient dimensions.

Vectors are plain Python ints: bit ``i-1`` holds coordinate ``i``, so the
bitstring ``01001`` (coordinate 1 first) is the integer ``0b10010 = 18``.
Subspaces are canonicalized by reduced row echelon form and additionally
carry a point-membership bitmask, which makes meets and disjointness tests
single AND operations.

Points also have a compact textual form used throughout the command-line
tools: a token is a string of generator symbols whose mod-2 sum is the
vector, where ``1``..``5`` name the canonical basis vectors and ``u`` is
the all-ones vector.  For example ``25`` is ``01001`` and ``3u`` is
``11011``.
"""

from __future__ import annotations

import functools
import itertools

__all__ = [
    "Subspace",
    "meet",
    "join",
    "dual",
    "subspace_distance",
    "enumerate_subspaces",
    "rref_bases",
    "parse_point",
    "format_point",
    "point_to_bitstring",
    "rref",
    "rank",
    "span",
    "gaussian_binomial",
]


def rref(vectors) -> tuple:
    """Canonical reduced-row-echelon basis of the span of ``vectors``.

    The pivot of each row is its lowest set bit, set in no other row.  The
    rows stay reduced as each vector joins: it is reduced by the rows, and
    if it is nonzero its pivot is cleared from the rows that hold it.  One
    sort by pivot at the end makes equal subspaces give identical tuples.
    """
    rows = []
    for v in vectors:
        for b in rows:
            if v & (b & -b):
                v ^= b
        if v:
            p = v & -v
            rows = [b ^ v if b & p else b for b in rows]
            rows.append(v)
    return tuple(sorted(rows, key=lambda x: x & -x))


def rank(vectors) -> int:
    return len(rref(vectors))


def _bits(m: int) -> tuple:
    """The positions of the set bits of ``m``, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def span(vectors) -> list:
    """Entry m is the XOR of the vectors at the set bits of m.

    Of a basis, it lists the subspace's vectors by their coordinates; of the
    rows of a matrix M (row i the image of bit i), it is M's point table,
    entry x the product x M.  Such a table is the one form of a collineation
    here: g sends v to g[v], and "x then y" sends v to y[x[v]].
    """
    out = [0]
    for v in vectors:
        out += [x ^ v for x in out]
    return out


class Subspace:
    """A subspace of GF(2)^n, canonical under RREF.

    Immutable and hashable; two Subspace objects are equal iff they are the
    same subspace of the same ambient space.
    """

    __slots__ = ("n", "basis", "mask")

    def __init__(self, vectors, n: int):
        if n < 1 or n > 12:
            raise ValueError(f"unsupported ambient dimension {n}")
        basis = rref(vectors)
        # rows are sorted by their lowest bit, so any row may hold the highest
        if max(basis, default=0) >> n:
            raise ValueError("vector outside ambient space")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "mask", sum(1 << v for v in span(basis)))

    def __setattr__(self, *args):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def points(self):
        """The nonzero vectors of the subspace, ascending."""
        return _bits(self.mask & ~1)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < (1 << self.n) and bool(self.mask >> v & 1)

    def __le__(self, other: "Subspace") -> bool:
        _check_ambient(self, other)
        return (self.mask & ~other.mask) == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.n, self.basis))

    def __repr__(self):
        gens = ",".join(format_point(v, self.n) for v in self.basis)
        return f"Subspace({self.n}, <{gens}>)"


def _check_ambient(u: Subspace, v: Subspace):
    if u.n != v.n:
        raise ValueError(f"mixed ambient dimensions {u.n} and {v.n}")


def meet(u: Subspace, v: Subspace) -> Subspace:
    """Intersection of two subspaces."""
    _check_ambient(u, v)
    return Subspace(_bits(u.mask & v.mask & ~1), u.n)


def join(u: Subspace, v: Subspace) -> Subspace:
    """Span of the union of two subspaces."""
    _check_ambient(u, v)
    return Subspace(u.basis + v.basis, u.n)


def dual(u: Subspace) -> Subspace:
    """Orthogonal complement under the standard dot product.

    Read off the RREF basis: each pivot occurs in exactly one row, so for a
    non-pivot coordinate c the vector e_c plus the pivots of the rows with
    bit c set is orthogonal to every row.  These n - dim vectors are
    independent (each has its own non-pivot coordinate) and span the
    complement.
    """
    pivots = 0
    for b in u.basis:
        pivots |= b & -b
    gens = []
    for c in range(u.n):
        bit = 1 << c
        if not pivots & bit:
            v = bit
            for b in u.basis:
                if b & bit:
                    v |= b & -b
            gens.append(v)
    return Subspace(gens, u.n)


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """d(U,V) = dim U + dim V - 2 dim(U ∩ V)."""
    _check_ambient(u, v)
    inter = u.mask & v.mask
    dim_meet = inter.bit_count().bit_length() - 1
    return u.dim + v.dim - 2 * dim_meet


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(2)^n."""
    num = den = 1
    for i in range(k):
        num *= 2 ** (n - i) - 1
        den *= 2 ** (k - i) - 1
    return num // den


def rref_bases(n: int, k: int) -> list:
    """The canonical bases (see ``rref``) of all k-dimensional subspaces of
    GF(2)^n as int tuples, ascending: the order of ``enumerate_subspaces``.

    Enumerates RREF matrices directly: choose the pivot columns, then the
    entries right of each pivot outside the pivot columns.  Each such
    matrix is already in ``rref`` form, one per subspace.
    """
    if k < 0 or k > n:
        raise ValueError(f"dimension {k} out of range for ambient {n}")
    out = []
    for piv in itertools.combinations(range(n), k):
        free = [
            (r, c)
            for r, p in enumerate(piv)
            for c in range(p + 1, n)
            if c not in piv
        ]
        for bits in range(1 << len(free)):
            rows = [1 << p for p in piv]
            for idx, (r, c) in enumerate(free):
                if bits >> idx & 1:
                    rows[r] |= 1 << c
            out.append(tuple(rows))
    if len(out) != (want := gaussian_binomial(n, k)):
        from .spreads import SpreadAnomaly  # spreads imports this module

        raise SpreadAnomaly(f"{len(out)} {k}-subspaces of GF(2)^{n}, not {want}")
    out.sort()
    return out


@functools.cache
def enumerate_subspaces(n: int, k: int):
    """All k-dimensional subspaces of GF(2)^n, each exactly once, sorted
    by canonical basis, which fixes a deterministic ID order used
    everywhere else."""
    return tuple(Subspace(b, n) for b in rref_bases(n, k))


# ---------------------------------------------------------------------------
# compact point notation


@functools.cache
def _generators(n: int) -> dict:
    """Symbol to vector: the one table that parse_point and format_point read."""
    return {**{str(i + 1): 1 << i for i in range(n)}, "u": (1 << n) - 1}


def parse_point(token: str, n: int = 5) -> int:
    """Parse a compact point token such as ``25`` or ``3u``.

    The token is a nonempty string of symbols of `_generators` (n) with
    none repeated; its value is the mod-2 sum of the named generators,
    which must not be the zero vector (``12345u`` sums to it), so that it
    is the inverse of ``format_point``.
    """
    if not token:
        raise ValueError("empty point token")
    if len(set(token)) != len(token):
        raise ValueError(f"repeated symbol in point token {token!r}")
    gens = _generators(n)
    v = 0
    for ch in token:
        if ch not in gens:
            raise ValueError(f"unknown symbol {ch!r} in point token {token!r}")
        v ^= gens[ch]
    if not v:
        raise ValueError(f"point token {token!r} is the zero vector")
    return v


@functools.cache
def _format_table(n: int):
    table = {}
    for size in (1, 2, 3):
        for combo in itertools.combinations(_generators(n).items(), size):
            v = 0
            for _, g in combo:
                v ^= g
            if v and v not in table:
                table[v] = "".join(sym for sym, _ in combo)
    return table


def format_point(v: int, n: int = 5) -> str:
    """Compact token for a point; shortest decomposition into ≤3 generators.

    Falls back to the raw bitstring if no such decomposition exists (cannot
    happen for n ≤ 6).
    """
    if not 0 < v < (1 << n):
        raise ValueError(f"not a point of GF(2)^{n}: {v}")
    tok = _format_table(n).get(v)
    return tok if tok is not None else point_to_bitstring(v, n)


def point_to_bitstring(v: int, n: int = 5) -> str:
    """Bitstring with coordinate 1 leftmost, e.g. 18 -> '01001' for n=5."""
    return "".join("1" if v >> i & 1 else "0" for i in range(n))

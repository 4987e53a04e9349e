"""Two construction pipelines for optimal (5,3) doubling codes over GF(2).

HKK pipeline: lift a rank-distance-2 Gabidulin code of 3x3 matrices to 64
planes of PG(5,2), pick a shortening point P and hyperplane H together
with two extra planes E (through P) and E' (inside H), shorten everything
to PG(4,2), and read the result as 9 lines plus 9 planes.  E and E' both
come from the 99 planes of PG(5,2) that meet every codeword in at most a
point (subspace distance >= 4).

CPS pipeline: a fixed order-6 matrix group G acting on PG(4,2); a good
line orbit (6 pairwise-disjoint lines) completed by a regulus gives the
line codewords, a good plane orbit plus 3 planes spanned by the opposite
regulus' lines and a point N gives the plane codewords.  Two variants
rearrange which regulus contributes lines vs planes, or replace one of
the 3 non-orbit planes.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, NamedTuple, Optional, Tuple

from .doubling import DoublingCode, intersection_pattern, validate_doubling
from .gf2geom import Subspace, _bits, _line_masks, rref_bases, span
from .pg42 import N_LINES, tables
from .spreads import (
    Spread,
    SpreadAnomaly,
    SpreadError,
    _disjoint,
    _opposite_regulus_ids,
    classify,
    is_regulus,
    verify_regulus_free_extension,
)

__all__ = [
    "LiftedGabidulinCode",
    "build_lifted_gabidulin",
    "HKKConfig",
    "hkk_configs",
    "hkk_build",
    "hkk_pattern_check",
    "HKK_NINTH_PATTERNS",
    "HKK_OTHER_PATTERNS",
    "cps_group",
    "cps_orbits",
    "CPSOrbits",
    "CPSConfig",
    "cps_build",
    "cps_regulus_check",
]


# ---------------------------------------------------------------------------
# GF(8) arithmetic (modulus x^3 + x + 1) and the lifted Gabidulin code

_GF8_MOD = 0b1011


def _gf8_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & 8:
            a ^= _GF8_MOD
        b >>= 1
    return r


class LiftedGabidulinCode(NamedTuple):
    """64 planes of PG(5,2): row spaces of [I3 | M] over a rank-metric code."""

    codewords: tuple  # 64 Subspace, ambient 6
    matrices: tuple  # 64 matrices as 3-tuples of 3-bit row ints
    special_plane: Subspace  # coordinates 4..6, disjoint from every codeword


def _gab_matrix(a0: int, a1: int) -> tuple:
    """3x3 GF(2) matrix of z -> a0*z + a1*z^2 on the basis (1, x, x^2)."""
    cols = [_gf8_mul(a0, b) ^ _gf8_mul(a1, _gf8_mul(b, b)) for b in (1, 2, 4)]
    return tuple(
        sum(((cols[j] >> i) & 1) << j for j in range(3)) for i in range(3)
    )


def _far(a: int, b: int) -> bool:
    """Are the planes of PG(5,2) with point masks ``a`` and ``b`` at subspace
    distance >= 4?  The distance is 6 - 2 dim(a ∩ b), so they must meet in
    at most a point: at most two set bits (zero and a point) in common."""
    return (a & b).bit_count() <= 2


@functools.cache
def build_lifted_gabidulin() -> LiftedGabidulinCode:
    """Construct the lifted (6,3,2) Gabidulin code, deterministic order.

    Message coefficients (a0, a1) run lexicographically over GF(8)^2; the
    lift [I3 | M] of a matrix M is already a canonical basis.  The
    rank-distance >= 2 property is checked exhaustively on the lifts, as
    d_S(lift A, lift B) = 2 d_R(A, B): every pair of codewords is ``_far``,
    that is no two share a line, so the 64 codewords hold 64 * 7 = 448
    distinct lines.
    """
    matrices = []
    codewords = []
    for a0 in range(8):
        for a1 in range(8):
            rows = _gab_matrix(a0, a1)
            matrices.append(rows)
            basis = tuple((1 << i) | (rows[i] << 3) for i in range(3))
            codewords.append(Subspace.from_rref(basis, 6))
    lines = {m for c in codewords for m in _line_masks(*c.basis)}
    if len(lines) != 7 * len(codewords):
        raise SpreadAnomaly("rank distance below 2 in Gabidulin code")
    special = Subspace.from_rref((8, 16, 32), 6)
    if any(c.mask & special.mask != 1 for c in codewords):
        raise SpreadAnomaly("Gabidulin codeword meets the special plane")
    return LiftedGabidulinCode(tuple(codewords), tuple(matrices), special)


# ---------------------------------------------------------------------------
# point-hyperplane shortening


def _shorten_mask(xm: int, p: int, hm: int, coord: dict) -> Optional[int]:
    """The point mask after shortening of the subspace with point mask
    ``xm``, at the point ``p`` and the hyperplane with point mask ``hm``;
    None if it is dropped.  A subspace inside H stays whole, one through
    ``p`` is cut to its meet with H, and the image takes the coordinates
    of ``coord``, which maps each vector of H to its coordinates in H's RREF
    basis (``span`` of that basis, inverted)."""
    if xm & ~hm and not xm >> p & 1:
        return None
    out = 0
    for v in _bits(xm & hm):
        out |= 1 << coord[v]
    return out


# ---------------------------------------------------------------------------
# HKK configuration search and assembly

HKK_NINTH_PATTERNS = ((3, 3, 1, 1), (2, 2, 2, 2))
HKK_OTHER_PATTERNS = ((2, 2, 2, 0), (2, 2, 1, 1), (3, 3, 2, 2), (3, 3, 3, 1))


class HKKConfig(NamedTuple):
    """A valid shortening configuration.

    Invariants: p outside the special plane S and outside h; h does not
    contain S; e contains p; e_prime lies in h; e and e_prime meet S in at
    least a line, that is they are far from every Gabidulin codeword (see
    ``_far_planes``), and they are far from each other.
    """

    p: int
    h: Subspace
    e: Subspace
    e_prime: Subspace


@functools.cache
def _far_planes() -> tuple:
    """The 99 planes of PG(5,2) far from every Gabidulin codeword as
    (canonical basis, point mask) pairs, in canonical-basis order (the
    order of ``enumerate_subspaces``).  The 64
    codewords pairwise share no line and none meets the special plane S
    (``build_lifted_gabidulin`` checks both), so their 448 lines are the
    lines that miss S: a plane is far from them all iff it meets S in at
    least a line.  These are S and 14 planes through each line of S.  As
    S = <8, 16, 32>, the RREF rows with a pivot (lowest bit) below bit 3 span
    a space of dimension 3 - dim(plane ∩ S): at most one may have it.  A
    plane other than S has the rows (v, a, b): (a, b) the RREF basis of its
    line in S, v any of 7 low parts plus 0 or the one bit of S that is no
    pivot of a or b, so 7 * 7 * 2 = 98 planes.  These rows are the RREF
    basis: each pivot is set in its own row only."""
    out = [(8, 16, 32)]
    for a, b in rref_bases(3, 2):  # the lines of S, shifted down by 3 bits
        q = (7 ^ (a & -a) ^ (b & -b)) << 3
        out += [(v | h, a << 3, b << 3) for v in range(1, 8) for h in (0, q)]
    return _with_masks(sorted(out))


@functools.cache
def _hyperplanes() -> tuple:
    """The 63 hyperplanes of PG(5,2) as (canonical basis, point mask) pairs,
    in canonical-basis order."""
    return _with_masks(rref_bases(6, 5))


def _with_masks(bases) -> tuple:
    """(basis, point mask) for each basis."""
    return tuple((b, sum(1 << v for v in span(b))) for b in bases)


@functools.cache
def _subspace6(basis: tuple) -> Subspace:
    """The subspace of GF(2)^6 with this canonical basis, built once."""
    return Subspace.from_rref(basis, 6)


def hkk_configs(mode: str = "first") -> Iterator[HKKConfig]:
    """Enumerate valid HKK configurations.

    Every candidate comes from one list, the 99 planes far from the
    Gabidulin code, which are the planes meeting the special plane S in at
    least a line (``_far_planes``): E runs over those through p, E' over
    those inside h (so E' ∩ S = h ∩ S), and a valid pair is far apart.

    Deterministic order: p ascending, h ascending (canonical hyperplane
    order), then e_prime ascending, e ascending.  Mode ``first`` emits the
    first-fit (e_prime, e) per (p, h); ``all`` emits every valid pair.
    """
    if mode not in ("first", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    far = _far_planes()
    sm = build_lifted_gabidulin().special_plane.mask
    for p in range(1, 64):
        if sm >> p & 1:
            continue
        es = [(e, em) for e, em in far if em >> p & 1]
        for h, hm in _hyperplanes():
            if (sm & ~hm) == 0 or hm >> p & 1:
                continue
            valid = (
                HKKConfig(p, _subspace6(h), _subspace6(e), _subspace6(ep))
                for ep, epm in far
                if not epm & ~hm
                for e, em in es
                if _far(em, epm)
            )
            yield from itertools.islice(valid, 1 if mode == "first" else None)


class HKKResult(NamedTuple):
    code: DoublingCode
    config: HKKConfig
    l2_image: Subspace  # the line (special ∩ h) after re-coordinatization


def hkk_build(
    mode: str = "first",
    limit: Optional[int] = None,
    stats: Optional[dict] = None,
) -> Iterator[HKKResult]:
    """Assemble doubling codes from HKK configurations.

    The nine lines are the 8 shortened Gabidulin codewords through P plus
    the image of E ∩ H (stored last); the nine planes are the 8 kept
    Gabidulin codewords plus the image of E' (stored last).  Only codes
    that form two spreads and validate optimal are emitted;
    ``stats['discarded']`` counts the rest when a dict is supplied.  With
    E and E' drawn from the 99 far planes none is discarded: all 56,448
    configurations of mode ``all`` give optimal codes.
    """
    gab = build_lifted_gabidulin()
    t = tables()
    cw = [c.mask for c in gab.codewords]
    ph = None
    emitted = 0
    for cfg in hkk_configs(mode=mode):
        if limit is not None and emitted >= limit:
            return
        p, hm = cfg.p, cfg.h.mask
        if (p, hm) != ph:
            # the shortened Gabidulin part depends on (P, H) only, and mode
            # ``all`` gives all configurations of one (P, H) in a row
            ph = p, hm
            coord = {v: c for c, v in enumerate(span(cfg.h.basis))}
            # a codeword through P becomes a line (4 point-mask bits), one
            # inside H stays a plane (8 bits)
            gab_lines, gab_planes = [], []
            for xm in cw:
                m = _shorten_mask(xm, p, hm, coord)
                if m is not None:
                    if m.bit_count() == 4:
                        gab_lines.append(t.line_id[m])
                    else:
                        gab_planes.append(t.plane_id[m])
            # special ∩ H lies in H, so shortening keeps it whole
            l2 = t.line_id[_shorten_mask(gab.special_plane.mask & hm, p, hm, coord)]
        # E goes through P and E' lies in H
        e = t.line_id[_shorten_mask(cfg.e.mask, p, hm, coord)]
        e_prime = t.plane_id[_shorten_mask(cfg.e_prime.mask, p, hm, coord)]
        try:
            s1 = Spread.from_line_ids(gab_lines + [e])
            s2 = Spread.from_line_ids(gab_planes + [e_prime])
        except SpreadError:
            s1 = s2 = None
        if s1 is None or not validate_doubling(s1, s2).optimal:
            if stats is not None:
                stats["discarded"] = stats.get("discarded", 0) + 1
            continue
        yield HKKResult(DoublingCode(s1, s2), cfg, t.lines[l2])
        emitted += 1


class HKKPatternReport(NamedTuple):
    ninth_pattern: tuple
    other_patterns: tuple  # 8 tuples
    ninth_meets_common: bool
    s1_tag: str
    s2_tag: str
    common_is_ninth_line: bool
    regulus_free: bool
    planes_disjoint_from_l2: bool

    @property
    def ok(self) -> bool:
        return (
            self.ninth_pattern in HKK_NINTH_PATTERNS
            and all(p in HKK_OTHER_PATTERNS for p in self.other_patterns)
            and self.ninth_meets_common
            and self.regulus_free
            and self.planes_disjoint_from_l2
        )


def hkk_pattern_check(result: HKKResult) -> HKKPatternReport:
    """Profile an HKK code: ninth-plane pattern, other patterns, structure.
    Both spreads must be of type X, or SpreadAnomaly names their types."""
    code = result.code
    s1 = code.s1
    t1 = classify(s1)
    t2 = classify(code.s2)
    if (t1.tag, t2.tag) != ("X", "X"):
        raise SpreadAnomaly(f"HKK code of spread types {t1.tag}/{t2.tag}, not X/X")
    pats = [intersection_pattern(pl, s1) for pl in code.planes]
    ninth = pats[8]
    t = tables()  # α9 is the plane of the common line and the 4 holes
    alpha9 = t.plane_id[s1.lines[t1.distinguished].mask | s1.hole_mask]
    regfree = verify_regulus_free_extension(s1.line_ids[:8], alpha9)
    l2m = result.l2_image.mask
    disj = all((pl.mask & l2m) == 1 for pl in code.planes[:8])
    return HKKPatternReport(
        ninth_pattern=ninth.counts,
        other_patterns=tuple(p.counts for p in pats[:8]),
        ninth_meets_common=ninth.meets_common,
        s1_tag=t1.tag,
        s2_tag=t2.tag,
        common_is_ninth_line=(t1.distinguished == 8),
        regulus_free=regfree,
        planes_disjoint_from_l2=disj,
    )


# ---------------------------------------------------------------------------
# CPS pipeline


def _cps_matrix(b: int, c: int, d: int) -> tuple:
    """The group matrix at a=1, alpha=1 (block [[1, 0, 0], [0, C, bC],
    [0, 0, C]] shape), as int rows: row i is the image of basis vector
    i + 1 (bit i), and ``gf2geom.span`` of the rows is its point table.

    The scalar block C = [[c, d], [d, c+d]] with det = c^2 + cd + d^2 = 1.
    """
    rows = (c | d << 1, d | (c ^ d) << 1)  # the rows of C as 2-bit ints
    return (1,) + tuple(r << 1 | b * r << 3 for r in rows) + tuple(r << 3 for r in rows)


def cps_group() -> list:
    """The order-6 CPS group over GF(2) as point tables, with its axioms
    verified; x then y sends v to ``y[x[v]]``."""
    group = [
        tuple(span(_cps_matrix(b, c, d)))
        for b in (0, 1)
        for (c, d) in ((1, 0), (0, 1), (1, 1))
    ]
    if len(set(group)) != 6:
        raise SpreadAnomaly("CPS group must have 6 elements")
    ident = tuple(range(32))
    if group[0] != ident:
        raise SpreadAnomaly("M_{1,0,1,0} must be the identity")
    for x in group:
        products = {tuple([y[v] for v in x]) for y in group}
        if not products <= set(group):
            raise SpreadAnomaly("CPS group not closed under product")
        if ident not in products:
            raise SpreadAnomaly("CPS group element without inverse")
    return group


class CPSOrbits(NamedTuple):
    """Orbits as tuples of ids of ``tables()``: a line by its line id, a
    plane by the line id of its dual line."""

    line_orbits: tuple
    plane_orbits: tuple
    good_line_orbits: tuple  # indices into line_orbits
    good_plane_orbits: tuple


def _by_basis(subspaces, ids) -> tuple:
    """The ids in canonical-basis order of ``subspaces[id]``, the order of
    ``enumerate_subspaces``."""
    return tuple(sorted(ids, key=lambda i: subspaces[i].basis))


@functools.cache
def cps_orbits() -> CPSOrbits:
    """Orbits of the CPS group on lines and planes, with goodness tags.

    A size-6 line orbit is good iff its lines are pairwise disjoint; a
    size-6 plane orbit is good iff its planes pairwise meet in exactly a
    point.  The group acts on ids through ``Tables.image``; orbits and
    their members come in canonical-basis order.
    """
    group = cps_group()
    t = tables()

    def orbits_of(subspaces):
        seen = set()
        out = []
        for i in _by_basis(subspaces, range(N_LINES)):
            if i in seen:
                continue
            orb = _by_basis(subspaces, {t.image(subspaces[i], m) for m in group})
            seen.update(orb)
            out.append(orb)
        good = tuple(k for k, o in enumerate(out) if len(o) == 6 and _disjoint(o))
        return tuple(out), good

    lorbs, good_l = orbits_of(t.lines)
    porbs, good_p = orbits_of(t.planes)
    return CPSOrbits(lorbs, porbs, good_l, good_p)


class CPSConfig(NamedTuple):
    """A CPS code's variant, N and replaced plane index (``replace_plane``).
    The rest is in the code: ``code.s1.line_ids`` is the good line orbit L1,
    then its completing regulus (R2; R1 for ``swap_reguli``), and
    ``code.s2.line_ids`` the good plane orbit P1, then the 3 other planes."""

    variant: str
    point_n: int
    replaced_index: Optional[int] = None


@functools.cache
def _completing_reguli(l1) -> tuple:
    """Regulus triples (``is_regulus``) of line ids disjoint from the 6 orbit
    line ids ``l1``, ascending, once per orbit and process; the candidates
    are the AND of the orbit lines' ``adjacency`` rows."""
    cand = functools.reduce(int.__and__, (tables().adjacency[i] for i in l1))
    return tuple(filter(is_regulus, itertools.combinations(_bits(cand), 3)))


@functools.cache
def _planes_through(i: int) -> tuple:
    """The 7 planes through line ``i`` in canonical-basis order (plane j holds
    line i iff line j lies in plane i, by symmetry), and the map from each of
    the 28 points N off line i to the one of them that holds it, <i, N>."""
    t = tables()
    th = _by_basis(t.planes, _bits(t.plane_lines[i]))
    return th, {n: j for j in th for n in _bits(t.planes[j].mask & ~t.lines[i].mask)}


def cps_build(
    variant: str = "basic",
    limit: Optional[int] = None,
) -> Iterator[Tuple[DoublingCode, CPSConfig]]:
    """Enumerate validated CPS doubling codes for one variant.

    ``basic``: lines L1 ∪ R2, planes P1 ∪ {<l,N> : l ∈ R1}.
    ``swap_reguli``: lines L1 ∪ R1, planes P1 ∪ {<l,N> : l ∈ R2}.
    ``replace_plane``: basic, with one non-orbit plane replaced by another
    plane through the same regulus line that is not inside the regulus'
    carrier solid.
    Over GF(2) a good line orbit has two completing reguli, each the other's
    opposite, so ``swap_reguli`` emits ``basic``'s codes, each pair swapped.

    Codes are emitted in deterministic order (line orbit, regulus, N,
    plane orbit, then replacement choices); only configurations whose
    assembled code validates optimal are emitted.  A plane set completes a
    good plane orbit, itself pairwise disjoint, to a dual spread iff it is
    disjoint and lies in the AND of the orbit's ``adjacency`` rows.

    Every line spread emitted, and every ``basic``/``swap_reguli`` dual
    spread, is a good orbit completed by a regulus and hence of type X or
    E, never IDelta; ``TestCPSCompletionCertificate`` in
    ``tests/test_constructions.py`` checks this by enumeration.
    """
    if variant not in ("basic", "swap_reguli", "replace_plane"):
        raise ValueError(f"unknown variant {variant!r}")
    orbits = cps_orbits()
    t = tables()
    plane_orbits = []
    for i in orbits.good_plane_orbits:
        p1 = orbits.plane_orbits[i]
        adj_and = functools.reduce(int.__and__, (t.adjacency[j] for j in p1))
        plane_orbits.append((p1, adj_and))
    emitted = 0
    for li in orbits.good_line_orbits:
        l1 = orbits.line_orbits[li]
        for r2 in _completing_reguli(l1):
            r1 = _opposite_regulus_ids(r2)
            if variant == "swap_reguli":
                spread_part, plane_part = r1, r2
            else:
                spread_part, plane_part = r2, r1
            # r2 is disjoint from l1, and r1 covers the same 9 points of
            # the carrier solid as r2: either completes l1 to a spread
            s1 = Spread.from_line_ids(l1 + spread_part)
            # a plane lies in the carrier solid iff its dual line holds the
            # solid's dual point, bit p - 1 of both lines' ``line_solids``
            carrier_point = (t.line_solids[r1[0]] & t.line_solids[r1[1]]).bit_length()
            through, plane_of = zip(*map(_planes_through, plane_part))
            # N runs over the 22 points off the three lines, ascending
            for n in sorted(set(plane_of[0]).intersection(*plane_of[1:])):
                base = tuple(m[n] for m in plane_of)
                if variant in ("basic", "swap_reguli"):
                    choices = [(None, base)]
                else:
                    choices = [
                        (k, base[:k] + (alt,) + base[k + 1 :])
                        for k in range(3)
                        for alt in through[k]
                        if alt != base[k] and not t.lines[alt].mask >> carrier_point & 1
                    ]
                choices = [
                    (replaced, pset, sum(1 << i for i in pset))
                    for replaced, pset in choices
                    if _disjoint(pset)
                ]
                for p1, adj_and in plane_orbits:
                    for replaced, pset, bits in choices:
                        if limit is not None and emitted >= limit:
                            return
                        if bits & ~adj_and:
                            continue
                        s2 = Spread.from_line_ids(p1 + pset)
                        if not validate_doubling(s1, s2).optimal:
                            continue
                        yield DoublingCode(s1, s2), CPSConfig(variant, n, replaced)
                        emitted += 1


def cps_regulus_check(code: DoublingCode) -> bool:
    """Do the duals of the 3 non-orbit planes (stored last), that is the
    last 3 lines of ``code.s2``, form a regulus?"""
    return is_regulus(code.s2.line_ids[6:])

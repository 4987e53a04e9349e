"""Precomputed incidence tables for PG(4,2).

Everything here is derived once from the canonical line enumeration and
shared read-only by the search, census and construction code.  Line IDs
are indices into ``enumerate_subspaces(5, 2)``; a plane is indexed by the
ID of its dual line, and a solid by the ID of its dual point (point value
minus one).  The duals of lines and of planes are read from ``planes`` and
``plane_id``.  The solids through line k are the points of its dual plane:
bit p - 1 of ``line_solids[k]``, that plane's point mask shifted past the
zero vector.  Two disjoint lines span the one solid their masks share.

A line is found by its point mask (``1 | 1 << a | 1 << b | 1 << (a ^ b)`` for
two of its points a, b; bit 0 stands for the zero vector) in ``line_id``,
which the spread-file parser reads without building a subspace; a plane is
found by its point mask in ``plane_id``.  ``Tables.image`` maps a line or
plane to the ID of its image under a collineation, given as its point table
(``gf2geom.span`` of a matrix's rows), through the same lookups, so a group
acts on IDs.  The lines inside each plane are one 155-bit int per
plane in ``plane_lines``, so "no line of a set lies in any plane of
another" is a single AND.  Only ``line_mask`` needs numpy, on first access.
"""

from __future__ import annotations

import functools
import threading

from .gf2geom import Subspace, _bits, _line_masks, enumerate_subspaces

__all__ = ["Tables", "tables"]

N_LINES = 155


class Tables:
    """Incidence tables for the lines/planes/solids of PG(4,2).

    ``line_id`` maps a line's point mask to its ID; ``planes[i]`` is the
    dual of line i and ``plane_id`` maps that plane's point mask back to i;
    bit k of ``plane_lines[j]`` is set iff line k lies in plane j, that is
    iff lines k and j are orthogonal (a symmetric relation); bit k of
    ``adjacency[j]`` is set iff lines k and j are distinct and disjoint.
    """

    def __init__(self):
        lines = enumerate_subspaces(5, 2)
        self.lines = lines
        self.line_id = line_id = {l.mask: i for i, l in enumerate(lines)}

        # dual planes: plane i is the orthogonal complement of line i, the
        # meet of the hyperplanes orthogonal to its two basis rows; perp[v]
        # is the point mask of the hyperplane orthogonal to v
        perp = [
            sum(1 << x for x in range(32) if not (x & v).bit_count() & 1)
            for v in range(32)
        ]
        by_mask = {p.mask: p for p in enumerate_subspaces(5, 3)}
        self.planes = tuple(
            by_mask[perp[a] & perp[b]] for a, b in (l.basis for l in lines)
        )
        self.plane_id = {p.mask: i for i, p in enumerate(self.planes)}

        self.line_solids = tuple(p.mask >> 1 for p in self.planes)

        # plane_lines[j]: the 7 lines inside plane j (the dual of line j),
        # read off its basis; line i lies in the dual plane of line j iff
        # lines i and j are orthogonal
        plane_lines = tuple(
            sum(1 << line_id[m] for m in _line_masks(*p.basis)) for p in self.planes
        )
        self.plane_lines = plane_lines

        # disjointness graph as 155-bit candidate masks (python ints): two
        # distinct lines meet iff a plane holds both, and the planes through
        # line i are the set bits of plane_lines[i]
        every = (1 << N_LINES) - 1
        adj = []
        for through in plane_lines:
            met = 0
            for j in _bits(through):
                met |= plane_lines[j]
            adj.append(every & ~met)
        self.adjacency = tuple(adj)

    @functools.cached_property
    def line_mask(self):
        """The lines' point masks as a uint32 numpy array."""
        import numpy as np

        return np.array([l.mask for l in self.lines], dtype=np.uint32)

    def image(self, s: Subspace, g) -> int:
        """The ID of the image of the line or plane ``s`` under the
        collineation with point table ``g`` (v goes to ``g[v]``; see
        ``gf2geom.span``): the image's point mask, looked up in ``line_id``
        or ``plane_id``.  As a plane's ID is its dual line's, the image of
        ``planes[l]`` has the ID of the image of line l under g^-T."""
        mask = 1
        for v in s.points():
            mask |= 1 << g[v]
        return (self.line_id if s.dim == 2 else self.plane_id)[mask]


_lock = threading.Lock()
_tables = None


def tables() -> Tables:
    """The shared table singleton, built on first use (2.3–2.5 ms in a
    fresh process on 2 cores, Python 3.11.7)."""
    global _tables
    if _tables is None:
        with _lock:
            if _tables is None:
                _tables = Tables()
    return _tables

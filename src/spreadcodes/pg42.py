"""Precomputed incidence tables for PG(4,2).

Everything here is derived once from the canonical line enumeration and
shared read-only by the search and census code.  Line IDs are indices into
``enumerate_subspaces(5, 2)``; a plane is indexed by the ID of its dual
line, and a solid by the ID of its dual point (point value minus one).
The duals of lines and of planes are read from ``planes`` and ``plane_id``.

A line is found by its point mask (``1 | 1 << a | 1 << b | 1 << (a ^ b)`` for
two of its points a, b; bit 0 stands for the zero vector) in ``line_id``,
which the spread-file parser reads without building a subspace.  The lines
inside each plane are one 155-bit int per plane in ``plane_lines``, so
"no line of a set lies in any plane of another" is a single AND.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from .gf2geom import Subspace, dot, dual, enumerate_subspaces

__all__ = ["Tables", "tables"]

N_POINTS = 31
N_LINES = 155


class Tables:
    """Incidence tables for the lines/planes/solids of PG(4,2).

    ``line_id`` maps a line's point mask to its ID; ``planes[i]`` is the
    dual of line i and ``plane_id`` maps each plane back to i; bit k of
    ``plane_lines[j]`` is set iff line k lies in plane j, and ``perp`` is
    the same incidence as a (line, plane) boolean array.
    """

    def __init__(self):
        lines = enumerate_subspaces(5, 2)
        assert len(lines) == N_LINES
        self.lines = lines
        self.line_id = {l.mask: i for i, l in enumerate(lines)}
        self.line_mask = np.array([l.mask for l in lines], dtype=np.uint32)

        # dual planes: plane i is the orthogonal complement of line i
        self.planes = tuple(dual(l) for l in lines)
        self.plane_id = {p: i for i, p in enumerate(self.planes)}
        self.plane_mask_sorted = np.sort(
            np.array([p.mask for p in enumerate_subspaces(5, 3)], dtype=np.uint32)
        )

        # disjointness graph as 155-bit candidate masks (python ints)
        adj = []
        lm = [l.mask for l in lines]
        for i in range(N_LINES):
            m = 0
            for j in range(N_LINES):
                if i != j and (lm[i] & lm[j]) == 1:
                    m |= 1 << j
            adj.append(m)
        self.adjacency = tuple(adj)

        # solids, indexed by dual point p-1
        line_in_solid = np.zeros((N_POINTS, N_LINES), dtype=bool)
        for p in range(1, 32):
            sm = 0
            for v in range(32):
                if dot(v, p) == 0:
                    sm |= 1 << v
            for k in range(N_LINES):
                line_in_solid[p - 1, k] = (lm[k] & ~sm) == 0
        self.line_in_solid = line_in_solid

        # join_solid[i,j]: for disjoint lines i,j the solid they span,
        # as the index of its dual point; -1 when the lines meet.  The
        # dual point spans l_i^⊥ ∩ l_j^⊥, so the meet of the two dual
        # planes' masks is {0, p} and p - 1 is its bit length minus 2.
        pm = [p.mask for p in self.planes]
        join_solid = np.full((N_LINES, N_LINES), -1, dtype=np.int16)
        for i in range(N_LINES):
            ai = adj[i]
            for j in range(N_LINES):
                if ai >> j & 1:
                    join_solid[i, j] = (pm[i] & pm[j]).bit_length() - 2
        self.join_solid = join_solid

        # plane_lines[j] and perp[:, j]: the 7 lines inside plane j (the
        # dual of line j), one per pair of its points; line i lies in the
        # dual plane of line j iff lines i and j are orthogonal
        line_id = self.line_id
        plane_lines = []
        perp = np.zeros((N_LINES, N_LINES), dtype=bool)
        for j, p in enumerate(self.planes):
            inside = {
                line_id[1 | 1 << a | 1 << b | 1 << (a ^ b)]
                for a, b in itertools.combinations(p.points(), 2)
            }
            plane_lines.append(sum(1 << i for i in inside))
            perp[list(inside), j] = True
        self.plane_lines = tuple(plane_lines)
        self.perp = perp

    def id_of(self, line: Subspace) -> int:
        return self.line_id[line.mask]


_lock = threading.Lock()
_tables = None


def tables() -> Tables:
    """The shared table singleton, built on first use (about 0.03 s)."""
    global _tables
    if _tables is None:
        with _lock:
            if _tables is None:
                _tables = Tables()
    return _tables

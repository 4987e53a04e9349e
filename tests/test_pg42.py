"""The incidence tables against their definitions, recomputed by rref/dot."""

import numpy as np

from spreadcodes.gf2geom import dot, enumerate_subspaces, rref
from spreadcodes.pg42 import N_LINES, tables


def _solid_index(vectors) -> int:
    """Index (dual point minus one) of the solid spanned by ``vectors``."""
    basis = rref(vectors)
    assert len(basis) == 4
    (p,) = [p for p in range(1, 32) if all(dot(v, p) == 0 for v in basis)]
    return p - 1


class TestTables:
    def test_planes_are_dual_lines(self):
        t = tables()
        for line, plane in zip(t.lines, t.planes):
            orth = {v for v in range(1, 32) if all(dot(v, b) == 0 for b in line.basis)}
            assert plane.dim == 3 and set(plane.points()) == orth
        assert sorted(p.mask for p in t.planes) == t.plane_mask_sorted.tolist()
        assert t.plane_mask_sorted.tolist() == sorted(
            p.mask for p in enumerate_subspaces(5, 3)
        )

    def test_plane_id_inverts_planes(self):
        t = tables()
        for p in enumerate_subspaces(5, 3):
            assert t.planes[t.plane_id[p]] == p
        assert len(t.plane_id) == N_LINES

    def test_join_solid(self):
        t = tables()
        want = np.full((N_LINES, N_LINES), -1, dtype=np.int16)
        for i, a in enumerate(t.lines):
            for j, b in enumerate(t.lines):
                if len(rref(a.basis + b.basis)) == 4:
                    want[i, j] = _solid_index(a.basis + b.basis)
        assert t.join_solid.dtype == want.dtype
        assert (t.join_solid == want).all()

    def test_perp(self):
        t = tables()
        want = np.array(
            [
                [all(dot(x, y) == 0 for x in a.basis for y in b.basis) for b in t.lines]
                for a in t.lines
            ]
        )
        assert t.perp.dtype == want.dtype
        assert (t.perp == want).all()

    def test_line_in_solid(self):
        t = tables()
        for p in range(1, 32):
            for k, line in enumerate(t.lines):
                inside = all(dot(v, p) == 0 for v in line.basis)
                assert t.line_in_solid[p - 1, k] == inside

    def test_plane_lines_match_perp(self):
        t = tables()
        for j, bits in enumerate(t.plane_lines):
            inside = [k for k in range(N_LINES) if bits >> k & 1]
            assert len(inside) == 7
            assert inside == np.flatnonzero(t.perp[:, j]).tolist()

    def test_line_id_keys_are_point_masks(self):
        t = tables()
        assert len(t.line_id) == N_LINES
        for i, line in enumerate(t.lines):
            a, b, c = line.points()
            assert t.line_id[1 | 1 << a | 1 << b | 1 << c] == i == t.id_of(line)

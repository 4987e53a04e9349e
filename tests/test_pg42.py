"""The incidence tables against their definitions, recomputed by rref/dot."""

from spreadcodes import doubling
from spreadcodes.constructions import cps_group
from conftest import dot
from spreadcodes.gf2geom import Subspace, enumerate_subspaces, rref, span
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
        assert sorted(p.mask for p in t.planes) == sorted(
            p.mask for p in enumerate_subspaces(5, 3)
        )

    def test_plane_id_inverts_planes(self):
        t = tables()
        for p in enumerate_subspaces(5, 3):
            assert t.planes[t.plane_id[p.mask]] == p
        assert len(t.plane_id) == N_LINES

    def test_image_matches_rref_oracle(self):
        """``image`` on every line and plane, under the point tables of the
        CPS group and the GL(5,2) generators, against the image subspace
        built by rref from the images of a basis."""
        t = tables()
        for g in cps_group() + list(doubling._GENERATORS):
            for table in (t.lines, t.planes):
                for s in table:
                    want = Subspace([g[v] for v in s.basis], 5)
                    assert table[t.image(s, g)] == want

    def test_plane_image_is_the_dual_line_image_under_inverse_transpose(self):
        """As a plane's id is its dual line's, ``image`` of ``planes[l]``
        under g is the id of the image of line l under g^-T, the table h
        with h[u] . g[w] = u . w for all u, w."""
        t = tables()
        for g in cps_group() + list(doubling._GENERATORS):
            h = span(
                next(
                    v
                    for v in range(32)
                    if all(dot(v, g[w]) == dot(e, w) for w in range(32))
                )
                for e in (1, 2, 4, 8, 16)
            )
            for l in range(N_LINES):
                assert t.image(t.planes[l], g) == t.image(t.lines[l], h)

    def test_join_solid(self):
        """Two lines span a solid iff their ``line_solids`` masks share
        exactly one bit, and that bit is the spanned solid (dual point minus
        one); lines that meet share the 3 or 7 solids through their span."""
        t = tables()
        ls = t.line_solids
        for i, a in enumerate(t.lines):
            for j, b in enumerate(t.lines):
                common = ls[i] & ls[j]
                if len(rref(a.basis + b.basis)) == 4:
                    assert common == 1 << _solid_index(a.basis + b.basis)
                else:
                    assert common.bit_count() in (3, 7)

    def test_line_in_solid(self):
        """Bit p - 1 of ``line_solids[k]`` is set iff line k lies in the
        solid with dual point p: ``dot`` with p is 0 on every basis vector
        of the line."""
        t = tables()
        for k, line in enumerate(t.lines):
            want = sum(
                1 << p - 1
                for p in range(1, 32)
                if all(dot(v, p) == 0 for v in line.basis)
            )
            assert t.line_solids[k] == want

    def test_adjacency_matches_disjointness_oracle(self):
        """Bit j of ``adjacency[i]`` is set iff lines i and j are distinct
        and disjoint: their point masks share only the zero vector."""
        t = tables()
        lm = [l.mask for l in t.lines]
        for i in range(N_LINES):
            want = 0
            for j in range(N_LINES):
                if i != j and lm[i] & lm[j] == 1:
                    want |= 1 << j
            assert t.adjacency[i] == want
        assert len(t.adjacency) == N_LINES

    def test_perp(self):
        """Bit k of ``plane_lines[j]`` is set iff lines k and j are
        orthogonal, by ``dot`` on their bases."""
        t = tables()
        for j, b in enumerate(t.lines):
            inside = [k for k in range(N_LINES) if t.plane_lines[j] >> k & 1]
            want = [
                k
                for k, a in enumerate(t.lines)
                if all(dot(x, y) == 0 for x in a.basis for y in b.basis)
            ]
            assert inside == want

    def test_plane_lines_match_perp(self):
        """``plane_lines[j]`` holds the seven lines inside ``planes[j]``,
        the perp of line j."""
        t = tables()
        for j, bits in enumerate(t.plane_lines):
            inside = [k for k in range(N_LINES) if bits >> k & 1]
            want = [k for k, a in enumerate(t.lines) if a <= t.planes[j]]
            assert len(inside) == 7
            assert inside == want

    def test_line_id_keys_are_point_masks(self):
        t = tables()
        assert len(t.line_id) == N_LINES
        for i, line in enumerate(t.lines):
            a, b, c = line.points()
            assert t.line_id[1 | 1 << a | 1 << b | 1 << c] == i
        # the uint32 array of the same masks, for indexing by id arrays
        assert t.line_mask.dtype.name == "uint32"
        assert t.line_mask.tolist() == [l.mask for l in t.lines]

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from conftest import act_vector, dot
from spreadcodes import orbits
from spreadcodes.constructions import _cps_matrix, cps_group
from spreadcodes.gf2geom import (
    Subspace,
    dual,
    enumerate_subspaces,
    format_point,
    gaussian_binomial,
    join,
    meet,
    parse_point,
    point_to_bitstring,
    rank,
    rref,
    rref_bases,
    span,
    subspace_distance,
)


def random_subspace(rng, n, k=None):
    if k is None:
        k = rng.randint(0, n)
    return Subspace([rng.randrange(1, 1 << n) for _ in range(k)], n)


def brute_force_dual(u):
    """Oracle for ``dual``: scan all 2^n vectors for those orthogonal to u."""
    pts = [v for v in range(1, 1 << u.n) if all(dot(v, b) == 0 for b in u.basis)]
    return Subspace(pts, u.n)


@st.composite
def subspaces(draw, count=1, max_n=12):
    """``count`` random subspaces of one GF(2)^n, 1 <= n <= max_n."""
    n = draw(st.integers(1, max_n))
    vectors = st.lists(st.integers(0, (1 << n) - 1), max_size=n)
    out = tuple(Subspace(draw(vectors), n) for _ in range(count))
    return out if count > 1 else out[0]


class TestPointNotation:
    def test_examples(self):
        # the module docstring's example: 25 is 01001, the integer 18
        assert parse_point("25") == 18
        assert parse_point("3u") == 0b11011  # 11011 read right to left
        assert parse_point("1") == 1
        assert parse_point("u") == 0b11111

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_point("")
        with pytest.raises(ValueError):
            parse_point("22")
        with pytest.raises(ValueError):
            parse_point("9")
        with pytest.raises(ValueError):
            parse_point("x")
        # digits other than the ASCII symbols of the table: an Arabic-Indic
        # three and a superscript two
        for token in ("\u0663", "\u00b2"):
            with pytest.raises(ValueError, match="unknown symbol"):
                parse_point(token)
        # tokens that sum to 0, which format_point has no token for either
        for token, n in (("12345u", 5), ("u54321", 5), ("123456u", 6)):
            with pytest.raises(ValueError, match=f"{token!r} is the zero vector"):
                parse_point(token, n)

    def test_round_trip_all_points(self):
        for v in range(1, 32):
            assert parse_point(format_point(v)) == v
        for v in range(1, 64):
            assert parse_point(format_point(v, 6), 6) == v

    def test_round_trip_every_point_for_n_up_to_9(self):
        # a token may need more than 3 symbols from n = 7 on (1234 in
        # GF(2)^7); each one reads back as its point
        for n in range(1, 10):
            tokens = [format_point(v, n) for v in range(1, 1 << n)]
            assert [parse_point(t, n) for t in tokens] == list(range(1, 1 << n))
            assert all(t.isalnum() and len(set(t)) == len(t) for t in tokens)
        assert format_point(0b1111, 7) == "1234"

    def test_n_above_9_is_refused(self):
        # at n = 10 the symbol 10 would also read as the token 1 then 0,
        # and at n = 12 the token 12 as e1 + e2 and as e12
        for n in (10, 12):
            with pytest.raises(ValueError, match="point notation covers"):
                format_point(1, n)
            for token in ("1", "10", "12"):
                with pytest.raises(ValueError, match="point notation covers"):
                    parse_point(token, n)
        # a subspace of GF(2)^10 shows its basis as bitstrings instead
        assert repr(Subspace([1 << 9, 1], 10)) == (
            "Subspace(10, <1000000000,0000000001>)"
        )
        assert repr(Subspace([1 << 8, 1], 9)) == "Subspace(9, <1,9>)"

    def test_bitstring_convention(self):
        # coordinate 1 is the leftmost character
        assert point_to_bitstring(parse_point("25")) == "01001"
        assert point_to_bitstring(1) == "10000"


class TestRref:
    def test_canonical_uniqueness(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.choice((5, 6))
            s = random_subspace(rng, n)
            # re-span from random combinations of basis vectors
            pts = list(s.points()) or [0]
            alt = Subspace([rng.choice(pts) for _ in range(8)], n)
            if set(alt.points()) == set(s.points()):
                assert alt.basis == s.basis

    def test_reduced_rows_span_the_input(self):
        """On seeded vector lists with zeros and repeats, n <= 8: the rows
        are sorted by pivot, each pivot (its row's lowest bit) is set in no
        other row, the rows span what the input spans, and a shuffled input
        gives the same tuple."""
        rng = random.Random(25)
        for _ in range(1000):
            n = rng.randint(1, 8)
            vs = [rng.randrange(1 << n) for _ in range(rng.randint(0, 8))]
            vs += [0] * rng.randint(0, 2) + rng.choices(vs, k=min(len(vs), 2))
            rows = rref(vs)
            pivots = [b & -b for b in rows]
            assert 0 not in pivots and pivots == sorted(set(pivots))
            assert all(sum(bool(b & p) for b in rows) == 1 for p in pivots)
            assert set(span(rows)) == set(span(vs))
            rng.shuffle(vs)
            assert rref(vs) == rows

    def test_span_size(self):
        rng = random.Random(8)
        for _ in range(200):
            s = random_subspace(rng, 5)
            assert len(s.points()) == 2**s.dim - 1


class TestSpan:
    def test_point_tables_match_matrix_product_oracle(self):
        """``span`` of a matrix's rows is its point table, entry x the
        product x M by ``act_vector``: for the GL(5,2) generators, the six
        CPS matrices and seeded random invertible matrices."""
        generators = [(2, 4, 8, 16, 1), (3, 2, 4, 8, 16)]
        cps = [
            _cps_matrix(b, c, d)
            for b in (0, 1)
            for (c, d) in ((1, 0), (0, 1), (1, 1))
        ]
        rng = random.Random(14)
        drawn = []
        while len(drawn) < 200:
            m = tuple(rng.randrange(1, 32) for _ in range(5))
            if rank(m) == 5:
                drawn.append(m)
        for m in generators + cps + drawn:
            assert span(m) == [act_vector(x, m) for x in range(32)]
        # and these are the tables the program acts by
        assert orbits._GENERATORS == tuple(tuple(span(m)) for m in generators)
        assert cps_group() == [tuple(span(m)) for m in cps]

    def test_mask_matches_brute_force_membership(self):
        """``Subspace(b, n).mask`` of every subspace with n <= 5: bit v is
        set iff adding v to the basis keeps its rank."""
        checked = 0
        for n in range(1, 6):
            for k in range(n + 1):
                for b in rref_bases(n, k):
                    want = sum(
                        1 << v for v in range(1 << n) if rank(b + (v,)) == k
                    )
                    assert Subspace(b, n).mask == want
                    checked += 1
        assert checked == 2 + 5 + 16 + 67 + 374

    def test_from_rref_matches_the_reducing_constructor(self):
        """``Subspace.from_rref`` on every canonical basis with n <= 6
        builds what ``Subspace(b, n)`` builds, in basis and in mask, as
        ``enumerate_subspaces`` does."""
        checked = 0
        for n in range(1, 7):
            for k in range(n + 1):
                for b, s in zip(rref_bases(n, k), enumerate_subspaces(n, k)):
                    want = Subspace(b, n)
                    for got in (Subspace.from_rref(b, n), s):
                        assert (got.n, got.basis, got.mask) == (n, want.basis, want.mask)
                        assert got == want and hash(got) == hash(want)
                    checked += 1
        assert checked == 3289


class TestLatticeOps:
    def test_span_examples(self):
        l = Subspace([parse_point("1"), parse_point("25")], 5)
        assert set(l.points()) == {
            parse_point("1"),
            parse_point("25"),
            parse_point("125"),
        }
        assert Subspace([], 5).dim == 0
        v = parse_point("34")
        assert Subspace([v, v], 5).points() == (v,)

    def test_meet_join_basic(self):
        rng = random.Random(9)
        for _ in range(100):
            u = random_subspace(rng, 5)
            assert meet(u, u) == u
            assert join(u, Subspace([], 5)) == u

    def test_vector_outside_ambient_rejected(self):
        # RREF sorts rows by their lowest bit: here the out-of-range row
        # (33 = bits 0 and 5) comes first, so the last row alone looks fine
        assert rref((33, 2)) == (33, 2)
        for vectors in ((33, 2), (2, 33), (35, 2), (64,)):
            with pytest.raises(ValueError, match="outside ambient"):
                Subspace(vectors, 5)
        # in GF(2)^6 the same vectors are a line of PG(5,2), not of PG(4,2)
        line = Subspace((33, 2), 6)
        assert line.points() == (2, 33, 35)

    def test_mixed_ambient_rejected(self):
        u = Subspace([1], 5)
        v = Subspace([1], 6)
        for op in (meet, join, subspace_distance):
            with pytest.raises(ValueError):
                op(u, v)

    def test_modular_law_all_line_pairs(self):
        lines = enumerate_subspaces(5, 2)
        for u, v in itertools.combinations(lines, 2):
            m, j = meet(u, v), join(u, v)
            assert m.dim + j.dim == u.dim + v.dim

    def test_plane_pairs_meet_dim(self):
        rng = random.Random(10)
        planes = enumerate_subspaces(5, 3)
        for _ in range(300):
            u, v = rng.sample(planes, 2)
            assert meet(u, v).dim in (1, 2)


class TestLatticeLaws:
    @given(subspaces(count=3))
    def test_modularity_duality_and_metric(self, uvw):
        u, v, w = uvw
        assert meet(u, v).dim + join(u, v).dim == u.dim + v.dim
        assert dual(meet(u, v)) == join(dual(u), dual(v))
        d = subspace_distance
        assert d(u, v) == d(v, u) == d(dual(u), dual(v))
        assert (d(u, v) == 0) == (u == v)
        assert d(u, w) <= d(u, v) + d(v, w)


class TestDuality:
    def test_dual_examples(self):
        assert dual(Subspace(range(1, 32), 5)).dim == 0
        d = dual(Subspace([1, 2], 5))
        assert d == Subspace([4, 8, 16], 5)

    def test_involution(self):
        rng = random.Random(11)
        for _ in range(500):
            u = random_subspace(rng, rng.choice((5, 6)))
            assert dual(dual(u)) == u
            assert dual(u).dim == u.n - u.dim

    def test_matches_brute_force_oracle_ambient_1_to_6(self):
        checked = 0
        for n in range(1, 7):
            for k in range(n + 1):
                for u in enumerate_subspaces(n, k):
                    assert dual(u) == brute_force_dual(u), u
                    checked += 1
        assert checked == 3289

    @given(subspaces())
    def test_matches_brute_force_oracle_random(self, u):
        assert dual(u) == brute_force_dual(u)
        assert dual(dual(u)) == u

    def test_anti_isomorphism_line_pairs(self):
        lines = enumerate_subspaces(5, 2)
        for u, v in itertools.combinations(lines, 2):
            assert dual(meet(u, v)) == join(dual(u), dual(v))


class TestDistance:
    def test_examples(self):
        l1 = Subspace([1, 2], 5)
        l2 = Subspace([4, 8], 5)
        assert subspace_distance(l1, l1) == 0
        assert subspace_distance(l1, l2) == 4
        p = Subspace([1, 2, 4], 5)
        assert subspace_distance(l1, p) == 1

    def test_symmetry_and_duality(self):
        rng = random.Random(12)
        for _ in range(1000):
            u = random_subspace(rng, 5)
            v = random_subspace(rng, 5)
            d = subspace_distance(u, v)
            assert d == subspace_distance(v, u)
            assert d == subspace_distance(dual(u), dual(v))
            assert (d == 0) == (u == v)

    def test_triangle_inequality(self):
        rng = random.Random(13)
        for _ in range(1000):
            u, v, w = (random_subspace(rng, 5) for _ in range(3))
            assert subspace_distance(u, w) <= subspace_distance(
                u, v
            ) + subspace_distance(v, w)


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,k,count",
        [(5, 1, 31), (5, 2, 155), (5, 3, 155), (5, 4, 31), (6, 5, 63)],
    )
    def test_counts(self, n, k, count):
        assert len(enumerate_subspaces(n, k)) == count
        assert gaussian_binomial(n, k) == count

    def test_brute_force_cross_check(self):
        # independent oracle: dedup spans of all point pairs
        got = {s.basis for s in enumerate_subspaces(5, 2)}
        brute = set()
        for a in range(1, 32):
            for b in range(a + 1, 32):
                t = rref([a, b])
                if len(t) == 2:
                    brute.add(t)
        assert got == brute

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rref_bases_are_canonical(self, n):
        for k in range(n + 1):
            bases = rref_bases(n, k)
            assert len(bases) == gaussian_binomial(n, k)
            assert all(rref(b) == b and len(b) == k for b in bases)
            assert bases == sorted(set(bases))
            assert [s.basis for s in enumerate_subspaces(n, k)] == bases

    def test_order_deterministic(self):
        subs = enumerate_subspaces(5, 2)
        assert [s.basis for s in subs] == sorted(s.basis for s in subs)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_subspaces(5, 6)

import itertools

import numpy as np
import pytest

from spreadcodes.gf2geom import Subspace, dual, join, parse_point, rref, span
from spreadcodes.pg42 import N_LINES, tables
from spreadcodes.spreads import (
    Spread,
    SpreadError,
    classify,
    disjointness_graph,
    dual_spread,
    find_maximal_spreads,
    holes,
    is_regulus,
    opposite_regulus,
    reguli,
    spread_from_planes,
    verify_regulus_free_extension,
)


def _line(*toks):
    return span([parse_point(t) for t in toks], 5)


def rank_four_reguli(s):
    """Oracle for ``reguli``: the index triples whose lines span a solid."""
    return tuple(
        t
        for t in itertools.combinations(range(9), 3)
        if len(rref(sum((s.lines[i].basis for i in t), ()))) == 4
    )


class TestSpreadBasics:
    def test_reference_spreads_valid(self, reference_pairs):
        for s1, s2 in reference_pairs:
            for s in (s1, s2):
                assert len(s.lines) == 9
                assert bin(s.cover_mask).count("1") == 27
                assert len(holes(s)) == 4

    def test_rejects_intersecting_lines(self, reference_pairs):
        s1, _ = reference_pairs[0]
        bad = list(s1.lines)
        bad[8] = bad[0]
        with pytest.raises(SpreadError):
            Spread(bad)

    def test_rejects_wrong_count(self, reference_pairs):
        s1, _ = reference_pairs[0]
        with pytest.raises(SpreadError):
            Spread(s1.lines[:8])

    def test_from_line_ids_agrees_with_lines(self, reference_pairs):
        spreads = [s for pair in reference_pairs for s in pair]
        spreads += list(find_maximal_spreads("sample", count=40, rng_seed=5))
        lines = tables().lines
        for s in spreads:
            a = Spread([Subspace(l.basis, 5) for l in s.lines])
            b = Spread.from_line_ids(s.line_ids)
            assert a.line_ids == b.line_ids == s.line_ids
            assert a.lines == b.lines == tuple(lines[i] for i in s.line_ids)
            assert all(x is lines[i] for x, i in zip(a.lines, a.line_ids))
            in_dual = tables().perp[:, list(s.line_ids)].any(axis=1)
            assert a.line_bits == b.line_bits == sum(1 << i for i in s.line_ids)
            assert a.perp_bits == b.perp_bits == sum(
                1 << int(k) for k in np.flatnonzero(in_dual)
            )

    def test_from_line_ids_indexes_like_the_line_table(self, reference_pairs):
        s1, _ = reference_pairs[0]
        ids = list(s1.line_ids)
        alias = Spread.from_line_ids([ids[0] - N_LINES] + ids[1:])
        assert alias.line_ids == s1.line_ids and alias == s1
        with pytest.raises(IndexError):
            Spread.from_line_ids([N_LINES] + ids[1:])

    def test_overlaps_raise_the_same_error_both_ways(self, reference_pairs):
        s1, s2 = reference_pairs[0]
        lines = tables().lines
        inputs = []
        for k in range(9):
            ids = list(s1.line_ids)
            ids[k] = ids[(k + 4) % 9]  # a repeated line
            inputs.append(ids)
            meeting = next(  # a line of s2 meeting line k of s1
                i for i in s2.line_ids if (lines[i].mask & lines[ids[8 - k]].mask) != 1
            )
            ids = list(s1.line_ids)
            ids[k] = meeting
            inputs.append(ids)
        inputs += [s1.line_ids[:8], s1.line_ids + s2.line_ids[:1]]
        for ids in inputs:
            with pytest.raises(SpreadError) as by_lines:
                Spread([lines[i] for i in ids])
            with pytest.raises(SpreadError) as by_ids:
                Spread.from_line_ids(ids)
            assert str(by_lines.value) == str(by_ids.value)
            # the message names the first overlapping pair by rref bases
            if len(ids) == 9:
                a, b = next(
                    (a, b)
                    for a, b in itertools.combinations(range(9), 2)
                    if (lines[ids[a]].mask & lines[ids[b]].mask) != 1
                )
                assert str(by_ids.value) == (
                    f"lines {a + 1} and {b + 1} intersect: "
                    f"{Subspace(lines[ids[a]].basis, 5)!r}, "
                    f"{Subspace(lines[ids[b]].basis, 5)!r}"
                )

    def test_identity_order_independent(self, reference_pairs):
        s1, _ = reference_pairs[0]
        reordered = Spread(s1.lines[::-1])
        assert reordered == s1
        assert reordered.id == s1.id
        assert reordered.key == s1.key

    def test_holes_disjoint_from_lines(self, reference_pairs):
        s1, _ = reference_pairs[0]
        for h in holes(s1):
            assert all(h not in l for l in s1.lines)


class TestDisjointnessGraph:
    def test_regular_of_degree_112(self):
        adj = disjointness_graph()
        assert len(adj) == 155
        assert {m.bit_count() for m in adj} == {112}

    def test_irreflexive_symmetric(self):
        adj = disjointness_graph()
        for i, m in enumerate(adj):
            assert not m >> i & 1
            mm = m
            while mm:
                j = (mm & -mm).bit_length() - 1
                mm &= mm - 1
                assert adj[j] >> i & 1


class TestReguli:
    def test_is_regulus_examples(self, reference_pairs):
        s1, _ = reference_pairs[0]
        i, j, k = reguli(s1)[0]
        assert is_regulus(s1.lines[i], s1.lines[j], s1.lines[k])
        # lines through a common point are not even disjoint
        assert not is_regulus(_line("1", "2"), _line("1", "3"), _line("1", "4"))

    def test_disjoint_triple_spanning_whole_space(self):
        # three pairwise-disjoint lines whose join is all of PG(4,2) do not
        # form a regulus
        lines = tables().lines
        l1 = lines[0]
        l2 = next(l for l in lines if (l.mask & l1.mask) == 1)
        solid = join(l1, l2)
        l3 = next(
            l
            for l in lines
            if (l.mask & l1.mask) == 1
            and (l.mask & l2.mask) == 1
            and (l.mask & ~solid.mask) != 0
        )
        assert not is_regulus(l1, l2, l3)

    def test_reference_regulus_triples(self, reference_pairs):
        s1, _ = reference_pairs[0]
        assert reguli(s1) == ((0, 2, 8), (1, 3, 8), (4, 6, 8), (5, 7, 8))
        s1_5, _ = reference_pairs[4]
        assert reguli(s1_5) == ((0, 6, 8), (1, 7, 8), (2, 4, 8), (3, 5, 8))

    def test_table_lookup_matches_rank_oracle(self, reference_pairs):
        spreads = [s for pair in reference_pairs for s in pair]
        spreads += find_maximal_spreads(mode="sample", count=200, rng_seed=4)
        tags = set()
        for s in spreads:
            assert reguli(s) == rank_four_reguli(s)
            tags.add(classify(s).tag)
        assert tags == {"X", "E", "IDelta"}

    def test_opposite_regulus(self, reference_pairs):
        s1, _ = reference_pairs[0]
        for t in reguli(s1):
            reg = [s1.lines[i] for i in t]
            opp = opposite_regulus(reg)
            # transversals meet every original line in exactly one point
            for o in opp:
                for r in reg:
                    assert (o.mask & r.mask).bit_count() == 2
            # involution with the same 9 covered points
            back = opposite_regulus(opp)
            assert {l.basis for l in back} == {l.basis for l in reg}
            cover = {p for l in opp for p in l.points()}
            assert cover == {p for l in reg for p in l.points()}
            assert len(cover) == 9

    def test_opposite_regulus_rejects_non_regulus(self, reference_pairs):
        s1, _ = reference_pairs[0]
        i, j = [k for k in range(9) if k not in reguli(s1)[0]][:2]
        with pytest.raises(ValueError):
            opposite_regulus([s1.lines[i], s1.lines[j], s1.lines[0]])


class TestClassify:
    def test_reference_types(self, reference_pairs):
        for s1, s2 in reference_pairs:
            for s in (s1, s2):
                assert classify(s).tag == "X"
        s1, _ = reference_pairs[0]
        st = classify(s1)
        assert st.distinguished == 8  # the ninth listed line is common
        assert st.common_index == 8
        assert sorted(st.counts, reverse=True) == [4] + [1] * 8

    def test_regulus_swap_x_to_e_and_back(self, reference_pairs):
        # replacing one regulus of a type-X spread by its opposite yields a
        # type-E spread whose distinguished regulus is the swapped triple;
        # swapping back restores type X
        s1, _ = reference_pairs[0]
        st = classify(s1)
        t = st.reguli[0]
        opp = opposite_regulus([s1.lines[i] for i in t])
        rest = [s1.lines[i] for i in range(9) if i not in t]
        st_e = classify(Spread(rest + list(opp)))
        assert st_e.tag == "E"
        assert st_e.distinguished == (6, 7, 8)
        assert classify(Spread(rest + [s1.lines[i] for i in t])).tag == "X"

    def test_regulus_swap_preserves_idelta(self):
        found = None
        for s in find_maximal_spreads("sample", count=200, rng_seed=42):
            st = classify(s)
            if st.tag == "IDelta":
                found = (s, st)
                break
        assert found is not None
        s, st = found
        t = st.distinguished
        opp = opposite_regulus([s.lines[i] for i in t])
        rest = [s.lines[i] for i in range(9) if i not in t]
        assert classify(Spread(rest + list(opp))).tag == "IDelta"

    def test_all_three_types_reachable(self):
        seen = set()
        for s in find_maximal_spreads("sample", count=300, rng_seed=1):
            seen.add(classify(s).tag)
            if len(seen) == 3:
                break
        assert seen == {"X", "E", "IDelta"}


class TestSearchModes:
    def test_exhaustive_prefix_valid_and_ordered(self):
        keys = []
        for s in itertools.islice(find_maximal_spreads("exhaustive"), 200):
            assert classify(s).tag in ("X", "E", "IDelta")
            keys.append(tuple(sorted(s.line_ids)))
        assert keys == sorted(keys) and len(set(keys)) == 200

    def test_seeded_shares_line_with_seed(self, reference_pairs):
        s1, _ = reference_pairs[0]
        seed_ids = set(s1.line_ids)
        for s in itertools.islice(find_maximal_spreads("seeded", seed=s1), 100):
            assert seed_ids & set(s.line_ids)

    def test_sample_deterministic(self):
        a = [s.key for s in find_maximal_spreads("sample", count=20, rng_seed=5)]
        b = [s.key for s in find_maximal_spreads("sample", count=20, rng_seed=5)]
        assert a == b and len(set(a)) == 20

    def test_mode_errors(self):
        with pytest.raises(ValueError):
            next(find_maximal_spreads("seeded"))
        with pytest.raises(ValueError):
            next(find_maximal_spreads("sample"))
        with pytest.raises(ValueError):
            next(find_maximal_spreads("bogus"))


class TestDualSpread:
    def test_duals_pairwise_meet_in_points(self, reference_pairs):
        s1, _ = reference_pairs[0]
        planes = dual_spread(s1)
        assert all(p.dim == 3 for p in planes)
        for a, b in itertools.combinations(planes, 2):
            assert (a.mask & b.mask).bit_count() == 2
        assert spread_from_planes(planes) == s1

    def test_table_lookup_matches_dual_oracle(self, reference_pairs):
        spreads = [s for pair in reference_pairs for s in pair]
        spreads += find_maximal_spreads(mode="sample", count=200, rng_seed=5)
        assert {classify(s).tag for s in spreads} == {"X", "E", "IDelta"}
        for s in spreads:
            planes = tuple(dual(l) for l in s.lines)
            assert dual_spread(s) == planes
            back = spread_from_planes(planes)
            assert back.lines == Spread([dual(p) for p in planes]).lines == s.lines

    def test_spread_from_planes_rejects_non_spreads(self, reference_pairs):
        s1, _ = reference_pairs[0]
        planes = list(dual_spread(s1))
        a, b, _ = planes[0].basis
        v = next(v for v in range(1, 32) if v not in planes[0])
        bad = {
            "repeated plane": planes[:8] + [planes[0]],
            "planes meeting in a line": planes[:8] + [Subspace((a, b, v), 5)],
            "line as a plane": planes[:8] + [s1.lines[8]],
            "plane of ambient 6": planes[:8] + [Subspace(planes[8].basis, 6)],
        }
        for ps in bad.values():
            with pytest.raises(SpreadError):
                spread_from_planes(ps)
            with pytest.raises(SpreadError):  # the per-plane dual path agrees
                Spread([dual(p) for p in ps])


class TestRegulusFreeExtension:
    def test_type_x_partition_passes(self, reference_pairs):
        # for a type-X spread, the 7 points not covered by the 8 non-common
        # lines form a plane and every line of it extends back to type X
        s1, _ = reference_pairs[0]
        st = classify(s1)
        rest = [s1.lines[i] for i in range(9) if i != st.distinguished]
        cover = 1
        for l in rest:
            cover |= l.mask
        comp = [v for v in range(1, 32) if not cover >> v & 1]
        plane = span(comp, 5)
        assert plane.dim == 3
        assert verify_regulus_free_extension(rest, plane)

    def test_non_partition_rejected(self, reference_pairs):
        s1, _ = reference_pairs[0]
        with pytest.raises(SpreadError):
            verify_regulus_free_extension(s1.lines[:8], dual_spread(s1)[0])

    def test_wrong_arity_rejected(self, reference_pairs):
        s1, _ = reference_pairs[0]
        with pytest.raises(ValueError):
            verify_regulus_free_extension(s1.lines, dual_spread(s1)[0])


@pytest.mark.slow
class TestBulk:
    def test_type_totals(self, bulk):
        assert len(bulk.line_ids) == 5416320
        assert bulk.type_counts() == {
            "X": 416640,
            "E": 1666560,
            "IDelta": 3333120,
        }
        assert (bulk.n_reguli == 4).all()

    def test_bulk_agrees_with_scalar(self, bulk):
        import random

        rng = random.Random(99)
        for _ in range(50):
            i = rng.randrange(len(bulk.line_ids))
            s = Spread.from_line_ids(bulk.line_ids[i])
            st = classify(s)
            assert ("X", "E", "IDelta")[bulk.types[i]] == st.tag
            if st.tag == "X":
                assert bulk.common_pos[i] == st.distinguished
            else:
                assert bulk.common_pos[i] == -1

    def test_reference_spreads_present(self, bulk, reference_pairs):
        for s1, s2 in reference_pairs:
            for s in (s1, s2):
                row = np.array(s.key, dtype=bulk.line_ids.dtype)
                assert (bulk.line_ids == row).all(axis=1).any()

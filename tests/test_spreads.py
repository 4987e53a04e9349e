import hashlib
import itertools

import numpy as np
import pytest

from conftest import dot
from spreadcodes.constructions import hkk_build
from spreadcodes.gf2geom import Subspace, dual, join, parse_point, rank
from spreadcodes import spreads
from spreadcodes.pg42 import N_LINES, tables
from spreadcodes.spreads import (
    Spread,
    SpreadAnomaly,
    SpreadError,
    _classify,
    _clique_extend,
    all_spread_line_ids,
    _disjoint,
    _opposite_regulus_ids,
    classify,
    classify_all,
    dual_spread,
    holes,
    is_regulus,
    verify_regulus_free_extension,
)


def from_planes(planes) -> Spread:
    """The spread whose lines are the duals of 9 planes of PG(4,2), read as
    ``hkk_build`` reads its planes: a plane's id in ``tables().plane_id`` is
    the line id of its dual line."""
    return Spread.from_line_ids([tables().plane_id[p.mask] for p in planes])


def _line(*toks) -> int:
    """The id of the line through the points with these tokens."""
    return tables().line_id[Subspace([parse_point(t) for t in toks], 5).mask]


def _orthogonal(a, b) -> bool:
    """Oracle: is every vector of line ``a`` orthogonal to every vector of
    line ``b``?"""
    return all(dot(x, y) == 0 for x in a.basis for y in b.basis)


def rank_four_reguli(s):
    """Oracle for ``classify(s).reguli``, apart from ``line_solids`` and the
    bit-sliced count that the scalar and bulk paths share: the index triples
    whose 6 basis vectors have rank 4, that is whose lines span a solid."""
    return tuple(
        t
        for t in itertools.combinations(range(9), 3)
        if rank(sum((s.lines[i].basis for i in t), ())) == 4
    )


class TestSpreadBasics:
    def test_reference_spreads_valid(self, reference_pairs):
        for s1, s2 in reference_pairs:
            for s in (s1, s2):
                assert len(s.lines) == 9
                covered = {v for l in s.lines for v in l.points()}
                assert len(covered) == 27
                assert s.hole_mask == sum(
                    1 << v for v in range(1, 32) if v not in covered
                )
                assert len(holes(s)) == 4

    def test_rejects_intersecting_lines(self, reference_pairs):
        s1, _ = reference_pairs[0]
        bad = list(s1.line_ids)
        bad[8] = bad[0]
        with pytest.raises(SpreadError):
            Spread.from_line_ids(bad)

    def test_rejects_wrong_count(self, reference_pairs):
        s1, _ = reference_pairs[0]
        with pytest.raises(SpreadError):
            Spread.from_line_ids(s1.line_ids[:8])

    def test_from_line_ids_agrees_with_lines(self, reference_pairs, sample_spreads):
        spreads = [s for pair in reference_pairs for s in pair]
        spreads += sample_spreads(40, 5)
        lines = tables().lines
        for s in spreads:
            a = Spread.from_line_ids(list(s.line_ids))
            assert a.line_ids == s.line_ids
            assert a.lines == tuple(lines[i] for i in s.line_ids)
            assert all(x is lines[i] for x, i in zip(a.lines, a.line_ids))
            # oracle: the lines orthogonal to a line of the spread, by dot
            in_dual = [
                k
                for k, x in enumerate(lines)
                if any(_orthogonal(x, lines[i]) for i in s.line_ids)
            ]
            assert a.line_bits == sum(1 << i for i in s.line_ids)
            assert a.perp_bits == sum(1 << k for k in in_dual)

    def test_constructor_names_from_line_ids(self, reference_pairs):
        s1, _ = reference_pairs[0]
        for args in ((), (s1.line_ids,)):
            with pytest.raises(TypeError, match=r"Spread\.from_line_ids"):
                Spread(*args)

    def test_from_line_ids_indexes_like_the_line_table(self, reference_pairs):
        s1, _ = reference_pairs[0]
        ids = list(s1.line_ids)
        alias = Spread.from_line_ids([ids[0] - N_LINES] + ids[1:])
        assert alias.line_ids == s1.line_ids and alias == s1
        with pytest.raises(IndexError):
            Spread.from_line_ids([N_LINES] + ids[1:])

    def test_overlaps_name_the_first_intersecting_pair(self, reference_pairs):
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
            with pytest.raises(SpreadError) as err:
                Spread.from_line_ids(ids)
            if len(ids) != 9:
                assert str(err.value) == f"expected 9 lines, got {len(ids)}"
                continue
            # the message names the first overlapping pair by rref bases
            a, b = next(
                (a, b)
                for a, b in itertools.combinations(range(9), 2)
                if (lines[ids[a]].mask & lines[ids[b]].mask) != 1
            )
            assert str(err.value) == (
                f"lines {a + 1} and {b + 1} intersect: "
                f"{Subspace(lines[ids[a]].basis, 5)!r}, "
                f"{Subspace(lines[ids[b]].basis, 5)!r}"
            )

    def test_identity_order_independent(self, reference_pairs):
        s1, _ = reference_pairs[0]
        reordered = Spread.from_line_ids(s1.line_ids[::-1])
        assert reordered == s1
        assert reordered.id == s1.id
        assert reordered.key == s1.key

    def test_holes_disjoint_from_lines(self, reference_pairs):
        s1, _ = reference_pairs[0]
        for h in holes(s1):
            assert all(h not in l for l in s1.lines)


class TestDisjointnessGraph:
    def test_disjoint_matches_point_mask_oracle(self, sample_spreads):
        """``_disjoint`` against pairwise meets of point masks, on seeded
        id lists of 2 to 9 lines with and without repeats, and on spreads."""
        lm = [l.mask for l in tables().lines]
        rng = np.random.default_rng(5)
        lists = [list(s.line_ids) for s in sample_spreads(20, 5)]
        lists += [
            rng.integers(0, N_LINES, size=k).tolist()
            for k in range(2, 10)
            for _ in range(200)
        ]
        lists += [ids[:8] + ids[:1] for ids in lists[:20]]
        verdicts = set()
        for ids in lists:
            want = all((lm[a] & lm[b]) == 1 for a, b in itertools.combinations(ids, 2))
            assert _disjoint(ids) == want, ids
            verdicts.add(want)
        assert verdicts == {False, True}

    def test_regular_of_degree_112(self):
        adj = tables().adjacency
        assert len(adj) == 155
        assert {m.bit_count() for m in adj} == {112}

    def test_irreflexive_symmetric(self):
        adj = tables().adjacency
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
        assert is_regulus([s1.line_ids[i] for i in classify(s1).reguli[0]])
        # lines through a common point are not even disjoint
        assert not is_regulus([_line("1", "2"), _line("1", "3"), _line("1", "4")])
        with pytest.raises(ValueError):  # a regulus has three lines
            is_regulus(s1.line_ids[:4])

    def test_disjoint_triple_spanning_whole_space(self):
        # three pairwise-disjoint lines whose join is all of PG(4,2) do not
        # form a regulus
        lines = tables().lines
        l1 = lines[0]
        j = next(j for j, l in enumerate(lines) if (l.mask & l1.mask) == 1)
        solid = join(l1, lines[j])
        k = next(
            k
            for k, l in enumerate(lines)
            if (l.mask & l1.mask) == 1
            and (l.mask & lines[j].mask) == 1
            and (l.mask & ~solid.mask) != 0
        )
        assert not is_regulus([0, j, k])

    def test_reference_regulus_triples(self, reference_pairs):
        s1, _ = reference_pairs[0]
        assert classify(s1).reguli == ((0, 2, 8), (1, 3, 8), (4, 6, 8), (5, 7, 8))
        s1_5, _ = reference_pairs[4]
        assert classify(s1_5).reguli == ((0, 6, 8), (1, 7, 8), (2, 4, 8), (3, 5, 8))

    def test_table_lookup_matches_rank_oracle(self, reference_pairs, sample_spreads):
        spreads = [s for pair in reference_pairs for s in pair]
        spreads += sample_spreads(200, 4)
        tags = set()
        for s in spreads:
            assert classify(s).reguli == rank_four_reguli(s)
            tags.add(classify(s).tag)
        assert tags == {"X", "E", "IDelta"}

    def test_opposite_regulus(self, reference_pairs):
        s1, _ = reference_pairs[0]
        lines = tables().lines
        for t in classify(s1).reguli:
            reg = [s1.line_ids[i] for i in t]
            opp = _opposite_regulus_ids(reg)
            # transversals meet every original line in exactly one point
            for o in opp:
                for r in reg:
                    assert (lines[o].mask & lines[r].mask).bit_count() == 2
            # involution with the same 9 covered points
            assert set(_opposite_regulus_ids(opp)) == set(reg)
            cover = {p for i in opp for p in lines[i].points()}
            assert cover == {p for i in reg for p in lines[i].points()}
            assert len(cover) == 9

    def test_opposite_regulus_rejects_non_regulus(self, reference_pairs):
        s1, _ = reference_pairs[0]
        i, j = [k for k in range(9) if k not in classify(s1).reguli[0]][:2]
        with pytest.raises(SpreadAnomaly, match="transversals"):
            _opposite_regulus_ids([s1.line_ids[i], s1.line_ids[j], s1.line_ids[0]])


class TestClassify:
    def test_reference_types(self, reference_pairs):
        for s1, s2 in reference_pairs:
            for s in (s1, s2):
                assert classify(s).tag == "X"
        s1, _ = reference_pairs[0]
        st = classify(s1)
        assert st.distinguished == 8  # the ninth listed line is common
        assert sorted(st.counts, reverse=True) == [4] + [1] * 8

    def test_regulus_swap_x_to_e_and_back(self, reference_pairs):
        # replacing one regulus of a type-X spread by its opposite yields a
        # type-E spread whose distinguished regulus is the swapped triple;
        # swapping back restores type X
        s1, _ = reference_pairs[0]
        st = classify(s1)
        t = st.reguli[0]
        opp = _opposite_regulus_ids([s1.line_ids[i] for i in t])
        rest = [s1.line_ids[i] for i in range(9) if i not in t]
        st_e = classify(Spread.from_line_ids(rest + list(opp)))
        assert st_e.tag == "E"
        assert st_e.distinguished == (6, 7, 8)
        back = Spread.from_line_ids(rest + [s1.line_ids[i] for i in t])
        assert classify(back).tag == "X"

    def test_regulus_swap_preserves_idelta(self, sample_spreads):
        found = None
        for s in sample_spreads(200, 42):
            st = classify(s)
            if st.tag == "IDelta":
                found = (s, st)
                break
        assert found is not None
        s, st = found
        t = st.distinguished
        opp = _opposite_regulus_ids([s.line_ids[i] for i in t])
        rest = [s.line_ids[i] for i in range(9) if i not in t]
        assert classify(Spread.from_line_ids(rest + list(opp))).tag == "IDelta"

    def test_type_follows_each_objects_line_order(self, reference_pairs, sample_spreads):
        """Equal spreads whose lines are stored in other orders keep their
        own positions: the common line or the distinguished triple of each
        names the same lines."""
        by_tag = {}
        for s in [reference_pairs[0][0]] + sample_spreads(300, 1):
            by_tag.setdefault(classify(s).tag, s)
        assert set(by_tag) == {"X", "E", "IDelta"}
        order = (4, 8, 0, 6, 2, 7, 1, 5, 3)
        for tag, s in by_tag.items():
            t = classify(s)
            r = Spread.from_line_ids([s.line_ids[k] for k in order])
            assert r == s
            tr = classify(r)
            assert tr.tag == tag
            if tag == "X":
                assert r.lines[tr.distinguished] == s.lines[t.distinguished]
                assert tr.distinguished != t.distinguished
            else:
                got = {r.lines[i] for i in tr.distinguished}
                assert got == {s.lines[i] for i in t.distinguished}

    def test_classified_once_per_object(self, reference_pairs, monkeypatch):
        calls = []
        monkeypatch.setattr(
            spreads, "_classify", lambda ids, f=_classify: calls.append(ids) or f(ids)
        )
        s = Spread.from_line_ids(reference_pairs[0][0].line_ids)
        assert classify(s) is classify(s)
        assert calls == [s.line_ids]

    def test_all_three_types_reachable(self, sample_spreads):
        seen = set()
        for s in sample_spreads(300, 1):
            seen.add(classify(s).tag)
            if len(seen) == 3:
                break
        assert seen == {"X", "E", "IDelta"}


class TestSearchModes:
    def test_exhaustive_prefix_valid_and_ordered(self):
        """The clique generator behind ``all_spread_line_ids``."""
        full = (1 << N_LINES) - 1
        cliques = _clique_extend(tables().adjacency, [], full)
        keys = []
        for ids in itertools.islice(cliques, 200):
            s = Spread.from_line_ids(ids)
            assert classify(s).tag in ("X", "E", "IDelta")
            keys.append(tuple(sorted(s.line_ids)))
        assert keys == sorted(keys) and len(set(keys)) == 200


class TestDualSpread:
    def test_duals_pairwise_meet_in_points(self, reference_pairs):
        s1, _ = reference_pairs[0]
        planes = dual_spread(s1)
        assert all(p.dim == 3 for p in planes)
        for a, b in itertools.combinations(planes, 2):
            assert (a.mask & b.mask).bit_count() == 2
        assert from_planes(planes) == s1

    def test_table_lookup_matches_dual_oracle(self, reference_pairs, sample_spreads):
        spreads = [s for pair in reference_pairs for s in pair]
        spreads += sample_spreads(200, 5)
        assert {classify(s).tag for s in spreads} == {"X", "E", "IDelta"}
        for s in spreads:
            planes = tuple(dual(l) for l in s.lines)
            assert dual_spread(s) == planes
            back = from_planes(planes)
            assert back.lines == tuple(dual(p) for p in planes) == s.lines

    def test_non_spreads_of_planes_rejected(self, reference_pairs):
        s1, _ = reference_pairs[0]
        planes = list(dual_spread(s1))
        a, b, _ = planes[0].basis
        v = next(v for v in range(1, 32) if v not in planes[0])
        bad = {
            "repeated plane": planes[:8] + [planes[0]],
            "planes meeting in a line": planes[:8] + [Subspace((a, b, v), 5)],
        }
        for ps in bad.values():
            with pytest.raises(SpreadError):
                from_planes(ps)


def classify_per_line_oracle(ids8, plane) -> bool:
    """Oracle for ``verify_regulus_free_extension`` past its input checks,
    the formulation it replaced: no 3 of the 8 lines form a regulus, and
    ``classify`` types each spread of the 8 lines plus a line of the plane
    as X.  Line and plane ids as ``tables()`` numbers them."""
    if any(is_regulus(t) for t in itertools.combinations(ids8, 3)):
        return False
    t = tables()
    return all(
        classify(Spread.from_line_ids([*ids8, k])).tag == "X"
        for k, l in enumerate(t.lines)
        if l <= t.planes[plane]
    )


def _minus_line(s, i):
    """The ids of the 8 lines of ``s`` other than line i, and the id of the
    plane of the 7 points they leave uncovered, None if those points span
    more than a plane (they and the 8 lines partition the points iff they
    are a plane)."""
    rest = [k for j, k in enumerate(s.line_ids) if j != i]
    cover = 1
    for k in rest:
        cover |= tables().lines[k].mask
    comp = Subspace([v for v in range(1, 32) if not cover >> v & 1], 5)
    return rest, tables().plane_id[comp.mask] if comp.dim == 3 else None


class TestRegulusFreeExtension:
    def test_type_x_partition_passes(self, reference_pairs):
        # for a type-X spread, the 7 points not covered by the 8 non-common
        # lines form a plane and every line of it extends back to type X
        s1, _ = reference_pairs[0]
        rest, plane = _minus_line(s1, classify(s1).distinguished)
        assert plane is not None
        assert verify_regulus_free_extension(rest, plane)

    def test_non_partition_rejected(self, reference_pairs):
        s1, _ = reference_pairs[0]
        text = "^a line meets the plane; not a partition$"
        # the dual plane of line 1 meets it
        with pytest.raises(SpreadError, match=text):
            verify_regulus_free_extension(s1.line_ids[:8], s1.line_ids[0])

    def test_intersecting_lines_rejected(self, reference_pairs):
        """Of 8 lines and the plane they leave, swap the last line for one
        that meets the first: the disjointness error, whether or not the
        new line also meets the plane."""
        s1, _ = reference_pairs[0]
        rest, plane = _minus_line(s1, classify(s1).distinguished)
        lines = tables().lines
        k = next(
            k for k, l in enumerate(lines)
            if (l.mask & lines[rest[0]].mask).bit_count() == 2
        )
        text = "^the 8 lines are not pairwise disjoint$"
        with pytest.raises(SpreadError, match=text):
            verify_regulus_free_extension([*rest[:7], k], plane)

    def test_agrees_with_classify_oracle_on_hkk_codes(self):
        """The (8 lines, α9) input of every first-fit HKK code, α9 the join
        of the common line and the holes, as ``hkk_pattern_check`` reads it."""
        inputs = {}
        for res in hkk_build():
            s1 = res.code.s1
            st = classify(s1)
            assert st.distinguished == 8
            # S2's common line is stored last too: hkk_pattern_check's
            # pats[8] is the census's ninth plane, the dual of that line
            assert classify(res.code.s2).distinguished == 8
            alpha9 = join(s1.lines[8], Subspace(holes(s1), 5))
            inputs[s1.key] = (s1.line_ids[:8], tables().plane_id[alpha9.mask])
        assert len(inputs) > 1
        for ids8, alpha9 in inputs.values():
            assert verify_regulus_free_extension(ids8, alpha9)
            assert classify_per_line_oracle(ids8, alpha9)

    def test_agrees_with_classify_oracle_on_corpus_x_spreads(self, reference_pairs):
        spreads = {s for pair in reference_pairs for s in pair}
        xs = [(s, classify(s)) for s in spreads]
        xs = [(s, st) for s, st in xs if st.tag == "X"]
        assert xs
        for s, st in xs:
            rest, plane = _minus_line(s, st.distinguished)
            assert plane is not None
            assert verify_regulus_free_extension(rest, plane)
            assert classify_per_line_oracle(rest, plane)

    def test_only_type_x_minus_its_common_line_is_a_partition(self, sample_spreads):
        """An input that passes the partition check is a spread minus one
        line.  Over these seeded spreads it is always a type-X spread minus
        its common line, whose 8 lines hold no regulus, so the check returns
        True: its False branch is not reached by any of them."""
        found = 0
        spreads = sample_spreads(200, 4)
        for s in spreads:
            st = classify(s)
            for i in range(9):
                rest, plane = _minus_line(s, i)
                if plane is None:
                    continue
                found += 1
                assert (st.tag, st.distinguished) == ("X", i)
                assert verify_regulus_free_extension(rest, plane)
                assert classify_per_line_oracle(rest, plane)
        assert found == sum(classify(s).tag == "X" for s in spreads) == 23

    def test_wrong_arity_rejected(self, reference_pairs):
        s1, _ = reference_pairs[0]
        with pytest.raises(ValueError):
            verify_regulus_free_extension(s1.line_ids, s1.line_ids[0])


class TestClassifyAll:
    def test_agrees_with_scalar(self, reference_pairs, sample_spreads):
        """``classify_all`` on the corpus and sampled spreads of all three
        types against object-level ``classify``, row by row."""
        spreads = [s for pair in reference_pairs for s in pair]
        spreads += sample_spreads(200, 4)
        bulk = classify_all(np.array([s.line_ids for s in spreads], dtype=np.int16))
        tags = []
        for k, s in enumerate(spreads):
            st = classify(s)
            tags.append(st.tag)
            assert bulk.TAGS[bulk.types[k]] == st.tag
            assert tuple(bulk.counts[k]) == st.counts
            assert bulk.common_pos[k] == (st.distinguished if st.tag == "X" else -1)
        assert set(tags) == {"X", "E", "IDelta"}
        assert (bulk.n_reguli == 4).all()


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

    def test_sha256_pins(self, bulk):
        """The enumeration and every array of its classification, byte for
        byte."""
        def sha(a):
            return hashlib.sha256(a.tobytes()).hexdigest()

        assert sha(all_spread_line_ids()) == (
            "a88016de129b47ce548f27d5b4daa3cc863c1cbeb97e584360a316884566ae03"
        )
        assert sha(bulk.types) == (
            "ca726f75b0177b42fa48972ac1723f7575b0fa51ebd87bd98359b0bf2e293f4e"
        )
        assert sha(bulk.counts) == (
            "e02a917c6c24c23e707e9a625ca4266128501d20aaebe9a7ebd36405d0477b82"
        )
        assert sha(bulk.common_pos) == (
            "d8c3ecc2df926e0dd65f0ea9344e819ba34d3aee4561985ed64baca491e2c46c"
        )
        assert sha(bulk.n_reguli) == (
            "3616eff8f86ce070fbfd4d59add13b803ef9d1a967959b71fb1fd7d73856c026"
        )

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

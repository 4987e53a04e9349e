import dataclasses
import itertools
import random

import numpy as np
import pytest

from spreadcodes import cli, doubling
from spreadcodes.constructions import cps_build
from spreadcodes.doubling import (
    ALLOWED_PATTERNS,
    ELIMINATED_PATTERN,
    NINTH_PLANE_PATTERNS,
    PATTERN_HOLES,
    DoublingCode,
    doubling_search,
    exhaustive_xx_census,
    hole_count,
    intersection_pattern,
    min_distance,
    pattern_census,
    validate_doubling,
)
from spreadcodes.gf2geom import dual, enumerate_subspaces, subspace_distance
from spreadcodes.pg42 import tables
from spreadcodes.spreads import (
    Spread,
    SpreadAnomaly,
    classify,
    dual_spread,
    find_maximal_spreads,
    holes,
)

TAGS = ("X", "E", "IDelta")


@pytest.fixture(scope="module")
def typed_db(reference_pairs):
    """Twenty sampled spreads of each type, two corpus pairs and a CPS
    (X,E) pair, so that every type pair has both verdicts among its pairs."""
    by_tag = {tag: [] for tag in TAGS}
    for s in find_maximal_spreads("sample", count=400, rng_seed=3):
        group = by_tag[classify(s).tag]
        if len(group) < 20:
            group.append(s)
    code, _ = next(cps_build(variant="basic", limit=1))
    corpus_spreads = [s for pair in reference_pairs[:2] for s in pair]
    return corpus_spreads + [code.s1, code.s2] + [s for g in by_tag.values() for s in g]


def _containment_verdict(s1, s2, planes2):
    """Oracle for ``validate_doubling``: point masks of s1's lines against
    the planes ``gf2geom.dual`` builds for s2, in (line, plane) order."""
    for i, line in enumerate(s1.lines):
        for j, plane in enumerate(planes2):
            if line.mask & ~plane.mask == 0:
                return False, (i, j)
    return True, None


class TestValidation:
    def test_reference_pairs_optimal(self, reference_pairs):
        for s1, s2 in reference_pairs:
            code = DoublingCode(s1, s2)
            assert code.is_optimal
            assert len(code.codewords) == 18
            assert code.min_distance() == 3

    def test_witness_on_violation(self, reference_pairs):
        # a spread paired with itself is never far from its own dual planes
        s1, _ = reference_pairs[0]
        verdict = validate_doubling(s1, s1)
        assert not verdict.optimal
        i, j = verdict.witness
        line = s1.lines[i]
        plane = dual_spread(s1)[j]
        assert line <= plane

    def test_verdicts_match_containment_oracle(self, typed_db):
        planes = [[dual(l) for l in s.lines] for s in typed_db]
        tags = [classify(s).tag for s in typed_db]
        seen = set()
        for s1, t1 in zip(typed_db, tags):
            for s2, t2, planes2 in zip(typed_db, tags, planes):
                want = _containment_verdict(s1, s2, planes2)
                v = validate_doubling(s1, s2)
                assert (v.optimal, v.witness) == want
                seen.add((t1, t2, v.optimal))
        pairs = {(a, b) for a in TAGS for b in TAGS}
        assert {(a, b) for a, b, ok in seen if not ok} == pairs
        assert {("X", "X"), ("X", "E"), ("E", "X")} <= {
            (a, b) for a, b, ok in seen if ok
        }

    def test_search_matches_per_pair_validation(self, typed_db):
        tags = [classify(s).tag for s in typed_db]
        for f in itertools.product(TAGS, repeat=2):
            want = [
                (a, b)
                for a, ta in zip(typed_db, tags)
                for b, tb in zip(typed_db, tags)
                if (ta, tb) == f and validate_doubling(a, b).optimal
            ]
            got = [(c.s1, c.s2) for c in doubling_search(typed_db, f)]
            assert got == want
            limited = [(c.s1, c.s2) for c in doubling_search(typed_db, f, limit=2)]
            assert limited == want[:2]

    def test_min_distance_matches_pairwise_sweep(self, reference_pairs):
        s1, s2 = reference_pairs[0]
        code = DoublingCode(s1, s2)
        dists = [
            subspace_distance(a, b)
            for a, b in itertools.combinations(code.codewords, 2)
        ]
        assert min(dists) == min_distance(code) == 3

    def test_code_immutable(self, reference_pairs):
        s1, s2 = reference_pairs[0]
        code = DoublingCode(s1, s2)
        with pytest.raises(AttributeError):
            code.s1 = s2


class TestPatterns:
    def test_reference_ninth_patterns(self, reference_pairs):
        expected = [
            (2, 2, 2, 0),
            (2, 2, 1, 1),
            (3, 3, 1, 1),
            (2, 2, 2, 2),
            (3, 3, 2, 2),
        ]
        for (s1, s2), want in zip(reference_pairs, expected):
            st1, st2 = classify(s1), classify(s2)
            ninth = dual_spread(s2)[st2.distinguished]
            pat = intersection_pattern(ninth, s1, st1)
            assert pat.counts == want
            assert pat.counts in NINTH_PLANE_PATTERNS

    def test_all_reference_patterns_allowed(self, reference_pairs):
        for s1, s2 in reference_pairs:
            st = classify(s1)
            for plane in dual_spread(s2):
                pat = intersection_pattern(plane, s1, st)
                assert pat.counts in ALLOWED_PATTERNS
                assert pat.counts != ELIMINATED_PATTERN
                assert PATTERN_HOLES[pat.counts] == (
                    pat.meets_common,
                    pat.hole_count,
                )

    def test_reference_hole_trichotomy(self, reference_pairs):
        expected = [(False, 1), (False, 1), (True, 2), (True, 2), (True, 0)]
        for (s1, s2), want in zip(reference_pairs, expected):
            st1, st2 = classify(s1), classify(s2)
            ninth = dual_spread(s2)[st2.distinguished]
            assert hole_count(ninth, s1, st1) == want

    def test_raw_counts_account_for_all_plane_points(self, reference_pairs):
        # each plane has 7 points: regulus-line hits + common-line hits +
        # holes of the first spread
        s1, s2 = reference_pairs[0]
        st = classify(s1)
        common = s1.lines[st.distinguished]
        hs = holes(s1)
        for plane in dual_spread(s2):
            pat = intersection_pattern(plane, s1, st)
            on_common = sum(1 for p in plane.points() if p in common)
            in_holes = sum(1 for p in plane.points() if p in hs)
            reg_pts = sum(
                (plane.mask & s1.lines[i].mask).bit_count() >> 1
                for t in st.reguli
                for i in t
                if i != st.distinguished
            )
            assert reg_pts + on_common + in_holes == 7
            # raw counts one hit per regulus line, and the common line sits
            # on all four reguli
            assert sum(pat.raw) == reg_pts + 4 * pat.meets_common

    def test_pattern_requires_type_x(self, reference_pairs):
        s1, _ = reference_pairs[0]
        st = classify(s1)
        from spreadcodes.spreads import Spread, opposite_regulus

        t = st.reguli[0]
        opp = opposite_regulus([s1.lines[i] for i in t])
        s_e = Spread([s1.lines[i] for i in range(9) if i not in t] + list(opp))
        with pytest.raises(ValueError):
            intersection_pattern(dual_spread(s1)[0], s_e)

    def test_hole_count_rejects_illegal_combo(self, reference_pairs):
        # scanning every plane of PG(4,2): most show a legal
        # (meets_common, holes) combination, but at least one does not and
        # must raise instead of returning a wrong answer
        from spreadcodes.pg42 import tables

        s1, _ = reference_pairs[0]
        st = classify(s1)
        legal, illegal = 0, 0
        for plane in tables().planes:
            try:
                meets, nholes = hole_count(plane, s1, st)
            except SpreadAnomaly:
                illegal += 1
            else:
                legal += 1
                assert (meets, nholes) in ((False, 1), (True, 0), (True, 2))
        assert legal + illegal == 155
        assert illegal >= 1


class TestCensusStreaming:
    def test_reference_pairs_census(self, reference_pairs):
        census = pattern_census(reference_pairs)
        assert census.pair_count == 5
        assert census.plane_count == 45
        assert census.violations == []
        assert census.check() == []
        assert census.eliminated_pattern_count == 0
        assert set(census.by_pattern()) <= set(ALLOWED_PATTERNS)
        assert set(census.ninth_by_pattern()) == {
            (2, 2, 2, 0),
            (2, 2, 1, 1),
            (3, 3, 1, 1),
            (2, 2, 2, 2),
            (3, 3, 2, 2),
        }

    def test_census_rejects_non_optimal_pair(self, reference_pairs):
        s1, _ = reference_pairs[0]
        with pytest.raises(ValueError):
            pattern_census([(s1, s1)])

    def test_search_on_small_db(self, reference_pairs):
        db = [s for pair in reference_pairs for s in pair]
        found = list(doubling_search(db, limit=3))
        assert len(found) == 3
        for code in found:
            assert code.is_optimal
            assert classify(code.s1).tag == "X"
            assert classify(code.s2).tag == "X"


class TestGL52Generators:
    def test_each_is_a_disjointness_preserving_line_bijection(self):
        lines = tables().lines
        for g in doubling._GENERATORS:
            perm = doubling._line_permutation(g)
            assert sorted(perm.tolist()) == list(range(155))
            for i, j in itertools.combinations(range(155), 2):
                a, b = lines[perm[i]], lines[perm[j]]
                assert ((a.mask & b.mask) == 1) == (
                    (lines[i].mask & lines[j].mask) == 1
                )

    def test_each_maps_reference_spreads_to_type_x(self, reference_pairs):
        for g in doubling._GENERATORS:
            perm = doubling._line_permutation(g)
            for pair in reference_pairs:
                for s in pair:
                    image = Spread.from_line_ids(perm[list(s.line_ids)])
                    assert classify(image).tag == "X"


@pytest.mark.slow
class TestExhaustiveCensus:
    def test_limited_run_is_clean(self):
        census = exhaustive_xx_census(limit=2)
        assert census.s1_count == 2
        assert census.pair_count > 0
        assert census.violations == []
        assert census.plane_count == 9 * census.pair_count

    def test_sampled_s1_have_the_representative_histogram(self, bulk):
        # oracle for the orbit argument and the perp partner lookup: the
        # partners of two sampled S1 found by containment in the dual
        # planes' point masks, censused object-level
        x_rows = bulk.line_ids[bulk.types == 0]
        dual_masks = [dual(l).mask for l in enumerate_subspaces(5, 2)]
        want = exhaustive_xx_census(limit=1).histogram
        for r in random.Random(7).sample(range(1, len(x_rows)), 2):
            s1 = Spread.from_line_ids(x_rows[r])
            forbidden = np.array(
                [any(l.mask & ~m == 0 for l in s1.lines) for m in dual_masks]
            )
            partners = x_rows[~forbidden[x_rows].any(axis=1)]
            got = pattern_census((s1, Spread.from_line_ids(row)) for row in partners)
            assert got.pair_count == len(partners) > 0
            assert got.histogram == want

    def test_certificate_rejects_rows_that_are_not_one_orbit(
        self, bulk, monkeypatch, capsys
    ):
        # the X rows minus one: some generator image is missing; the X and
        # E rows together: closed under the generators, but two orbits
        x = np.flatnonzero(bulk.types == 0)
        one_short = bulk.types.copy()
        one_short[x[12345]] = 1
        with_e = bulk.types.copy()
        with_e[with_e == 1] = 0
        for types, match in ((one_short, "outside"), (with_e, "orbit")):
            fake = dataclasses.replace(bulk, types=types)
            monkeypatch.setattr(doubling, "classify_all", lambda: fake)
            with pytest.raises(SpreadAnomaly, match=match):
                exhaustive_xx_census(limit=1)
            assert cli.main(["census", "--exhaustive", "--limit", "1"]) == 3
            assert "invariant violation" in capsys.readouterr().err
